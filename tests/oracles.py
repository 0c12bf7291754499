"""Independent reference implementations used only to check the library.

Deliberately written with different algorithms than the production code:
full-matrix edit distance, explicit pair enumeration for evaluation,
all-pairs reachability for the transitive closure, and a plain double
loop over the reference pair decisions for the match scan.
"""

from __future__ import annotations

from itertools import combinations

from dealias.baselines import bird_match, simple_match
from dealias.rules import is_match, score_pair


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


def reference_match(a, b, method, cfg) -> bool:
    """The reference decision of ``method`` on one pair."""
    if method == "gambit":
        return is_match(score_pair(a, b, cfg), cfg)
    if method == "simple":
        return simple_match(a, b, cfg)
    if method == "bird":
        return bird_match(a, b, cfg)
    raise ValueError(f"unknown method {method!r}")


def all_pairs_matches(aliases, method, cfg) -> list[tuple[int, int]]:
    """Every index pair (i, j), i < j, that the reference decision of
    ``method`` matches, found by deciding all n(n-1)/2 pairs."""
    return [(i, j) for i, j in combinations(range(len(aliases)), 2)
            if reference_match(aliases[i], aliases[j], method, cfg)]
