"""Independent reference implementations used only to check the library.

Deliberately written with different algorithms than the production code:
full-matrix edit distance, a double loop over the Jaro search window,
explicit pair enumeration for evaluation, all-pairs reachability for the
transitive closure, and plain double loops over the reference pair
decisions for the match scan and triage. Bird's reference decision is its
condition-by-condition form, not a threshold on its pair score.
The containment predicates of rules 5-7 are kept as the matcher spelled
them, one predicate per rule and direction, apart from ``rules.needles``
and ``rules.containment_rules``: the containment tests and bird's
reference decision use them. The graded rules are spelled as
``rules.score_pair`` defines them, one similarity per leg, with no leg
shared between rules.
"""

from __future__ import annotations

from itertools import combinations

from dealias.baselines import simple_match
from dealias.normalize import Alias
from dealias.rules import gated_similarity, is_match, score_pair
from dealias.similarity import JaroBreakdown


def lev_distance_matrix(s1: str, s2: str) -> int:
    """Edit distance via the full (m+1) x (n+1) table."""
    m, n = len(s1), len(s2)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if s1[i - 1] == s2[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1,
                              table[i][j - 1] + 1,
                              table[i - 1][j - 1] + cost)
    return table[m][n]


def lev_similarity_matrix(s1: str, s2: str) -> float:
    """1 - d / max(len(s1), len(s2)) from the full table; 1.0 for two
    empty strings."""
    longer = max(len(s1), len(s2))
    if longer == 0:
        return 1.0
    return 1.0 - lev_distance_matrix(s1, s2) / longer


# similarity.jaro_breakdown as it was before its linear-time kernel: the
# O(len(s1) x window) double loop over the search window, word for word
def jaro_breakdown_reference(s1: str, s2: str) -> JaroBreakdown:
    """Compute the Jaro similarity of two strings along with its parts."""
    len1, len2 = len(s1), len(s2)
    if len1 == 0 and len2 == 0:
        return JaroBreakdown(0, 0, 0, 1.0)

    prefix_len = 0
    for a, b in zip(s1[:4], s2[:4]):
        if a != b:
            break
        prefix_len += 1

    window = max(len1, len2) // 2 - 1
    if window < 0:
        window = 0

    matched1 = [False] * len1
    matched2 = [False] * len2
    common = 0
    for i, ch in enumerate(s1):
        lo = i - window if i > window else 0
        hi = i + window + 1
        if hi > len2:
            hi = len2
        for j in range(lo, hi):
            if not matched2[j] and s2[j] == ch:
                matched1[i] = True
                matched2[j] = True
                common += 1
                break

    if common == 0:
        return JaroBreakdown(0, 0, prefix_len, 0.0)

    # Count matched characters that appear in a different order in s2;
    # every two of them constitute one transposition.
    out_of_order = 0
    k = 0
    for i in range(len1):
        if matched1[i]:
            while not matched2[k]:
                k += 1
            if s1[i] != s2[k]:
                out_of_order += 1
            k += 1
    transpositions = out_of_order // 2

    jaro = (common / len1 + common / len2 + (common - transpositions) / common) / 3.0
    return JaroBreakdown(common, transpositions, prefix_len, jaro)


def brute_force_counts(predicted: dict[str, str],
                       truth: dict[str, str]) -> tuple[int, int, int]:
    """(tp, fp, fn) by enumerating every unordered pair of alias ids."""
    ids = sorted(predicted)
    assert sorted(truth) == ids
    tp = fp = fn = 0
    for a, b in combinations(ids, 2):
        same_pred = predicted[a] == predicted[b]
        same_true = truth[a] == truth[b]
        if same_pred and same_true:
            tp += 1
        elif same_pred:
            fp += 1
        elif same_true:
            fn += 1
    return tp, fp, fn


def closure_components(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Connected-component labels via Floyd-Warshall style reachability.

    Returns, for every node, the smallest node index reachable from it.
    O(n^3); fine for the small graphs used in tests.
    """
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for a, b in edges:
        reach[a][b] = True
        reach[b][a] = True
    for k in range(n):
        row_k = reach[k]
        for i in range(n):
            if reach[i][k]:
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return [min(j for j in range(n) if reach[i][j]) for i in range(n)]


def contains_initial_last(x: Alias, y: Alias, min_len: int) -> bool:
    # first-name initial glued to the last name, e.g. "jdoe", inside y's
    # email base
    if not x.first_name:
        return False
    needle = x.first_name[0] + x.last_name
    return (len(needle) >= min_len and len(y.email_base) >= min_len
            and needle in y.email_base)


def contains_first_initial(x: Alias, y: Alias, min_len: int) -> bool:
    # first name glued to the last-name initial, e.g. "johnd"
    if not x.last_name:
        return False
    needle = x.first_name + x.last_name[0]
    return (len(needle) >= min_len and len(y.email_base) >= min_len
            and needle in y.email_base)


def contains_both_names(x: Alias, y: Alias, min_len: int) -> bool:
    # first and last name both occur somewhere in y's email base
    if (len(x.first_name) < min_len or len(x.last_name) < min_len
            or len(y.email_base) < min_len):
        return False
    return x.first_name in y.email_base and x.last_name in y.email_base


CONTAINMENT_RULES = {5: contains_initial_last, 6: contains_first_initial,
                     7: contains_both_names}


def containment_reference(a: Alias, b: Alias, min_len: int) -> set[int]:
    """The rules among 5-7 that hold for the pair, in either direction."""
    return {rule for rule, holds in CONTAINMENT_RULES.items()
            if holds(a, b, min_len) or holds(b, a, min_len)}


def graded_rules_reference(a: Alias, b: Alias, cfg) -> tuple[float, ...]:
    """Rules 0, 2, 3, 4 and 9 of ``rules.score_pair``, in that order: each
    leg of each rule is its own ``gated_similarity(cfg)`` call."""
    gs = gated_similarity(cfg)
    name_sim = gs(a.name, b.name)
    straight = min(gs(a.first_name, b.first_name),
                   max(gs(a.last_name, b.last_name),
                       gs(a.last_name, b.penultimate_name),
                       gs(a.penultimate_name, b.last_name)))
    swap_b = min(gs(a.first_name, b.last_name),
                 max(gs(a.penultimate_name, b.first_name),
                     gs(a.last_name, b.penultimate_name),
                     gs(a.last_name, b.first_name)))
    swap_a = min(gs(a.last_name, b.first_name),
                 max(gs(a.penultimate_name, b.last_name),
                     gs(a.first_name, b.penultimate_name),
                     gs(a.first_name, b.last_name)))
    base_sim = gs(a.email_base, b.email_base)
    return name_sim, straight, swap_b, swap_a, base_sim


# baselines.bird_match as it was before it became a threshold on
# baselines.bird_rule_score: one early return per condition, with containment
# tested by this module's own predicates
def bird_match_reference(a, b, cfg) -> bool:
    gs = gated_similarity(cfg)
    t = cfg.threshold
    if gs(a.name, b.name) >= t:
        return True
    if min(gs(a.first_name, b.first_name), gs(a.last_name, b.last_name)) >= t:
        return True
    if containment_reference(a, b, cfg.min_len):
        return True
    return gs(a.email_base, b.email_base) >= t


def reference_match(a, b, method, cfg) -> bool:
    """The reference decision of ``method`` on one pair."""
    if method == "gambit":
        return is_match(score_pair(a, b, cfg), cfg)
    if method == "simple":
        return simple_match(a, b, cfg)
    if method == "bird":
        return bird_match_reference(a, b, cfg)
    raise ValueError(f"unknown method {method!r}")


def all_pairs_matches(aliases, method, cfg) -> list[tuple[int, int]]:
    """Every index pair (i, j), i < j, that the reference decision of
    ``method`` matches, found by deciding all n(n-1)/2 pairs."""
    return [(i, j) for i, j in combinations(range(len(aliases)), 2)
            if reference_match(aliases[i], aliases[j], method, cfg)]


def triage_reference(aliases, differ_cutoff):
    """(auto_match, auto_differ, undecided) as sorted lists of id pairs:
    every pair decided on its own, with full-matrix edit distances, and
    auto-matches found by reachability over identical non-empty names and
    emails."""
    n = len(aliases)
    links = [(i, j) for i, j in combinations(range(n), 2)
             if (aliases[i].name and aliases[i].name == aliases[j].name)
             or (aliases[i].email and aliases[i].email == aliases[j].email)]
    component = closure_components(n, links)

    match, differ, undecided = [], [], []
    for i, j in combinations(range(n), 2):
        a, b = aliases[i], aliases[j]
        pair = tuple(sorted((a.id, b.id)))
        if component[i] == component[j]:
            match.append(pair)
        elif (lev_similarity_matrix(a.name, b.name) < differ_cutoff
                and lev_similarity_matrix(a.email, b.email) < differ_cutoff):
            differ.append(pair)
        else:
            undecided.append(pair)
    return sorted(match), sorted(differ), sorted(undecided)
