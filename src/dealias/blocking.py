"""Exact candidate generation for the pure-Python pair scan.

Only a small share of alias pairs can match, and the rules say which ones.
The index below finds every pair that can match without looking at all of
them; the scan then runs the unchanged reference decision on these
candidates only, so the matched pairs are exactly those of the all-pairs
scan.

Each join of the index stands for one rule: every pair whose score under
that rule reaches a cutoff ``tau`` is found by the join. The index records,
for every pair, which rules' joins found it, and keeps the pair when those
rules could decide a match:

* gambit at threshold t: a weight-2 rule (identical email, rule 8; both
  names inside the other email base, rule 7) decides a pair on its own.
  Without one, every score is at most 1, so a top-two average >= t needs
  two distinct rules, each scoring at least tau = 2t - 1. A pair is kept
  when the join of a weight-2 rule found it, or the joins of two distinct
  rules did.
* bird at threshold t: a pair matches when a single condition holds, and
  every graded condition compares a similarity against tau = t. One hit
  keeps a pair.
* simple: identical cleaned names or identical email bases; it has no
  threshold. One hit keeps a pair.

A graded score >= tau > 0 implies that both compared strings pass the
``min_len`` gate and have Levenshtein similarity >= tau. The joins, and the
gambit rules they stand for, are

* a hash join on the email (rule 8), and the hits of a name with itself
  in the name join below (rules 1 and 0 at once: identical names are
  similar names too, which is two rules); simple hash-joins the names and
  the email bases;
* a substring join for the containment rules 5-7 (bird's containment
  conditions are the same three): every alias's ``(needle, rest)`` pairs
  from ``rules.needles`` are filed under the needle, each distinct email
  base looks up the substrings of the needle lengths inside each of its
  words (a needle holds no whitespace), and a hit counts when the rest
  occurs in the base too;
* a Levenshtein join at tau on full names (rule 0; bird), on email bases
  (rule 9; bird), on first names (rule 2, whose first-name leg must reach
  tau; bird) and between first and last names (rules 3 and 4).

Rules 3 and 4 are one comparison seen from the two ends of a pair (i, j)
with i < j: rule 3 compares i's first name with j's last name, rule 4 i's
last name with j's first name. A join hit of ``first_i ~ last_j`` therefore
marks rule 3 of the pair (i, j) when i < j, and rule 4 of the pair (j, i)
when i > j.

The Levenshtein join is a partition join (Li, Deng, Wang and Feng,
"Pass-Join: A Partition-based Method for Similarity Joins", PVLDB 2011).
The keys are taken shortest first. Each probes the index of the keys before
it, which are no longer than itself, and is then filed in it, so every
pair of keys is confirmed once. Every budget is an edit count from
``similarity.edit_budget``, which turns the rules' own float test into the
most edits that pass it, so a pair at exactly tau is never lost to
rounding:

* a probing key of length n may be d <= D(n) = ``edit_budget(n, tau)``
  edits away from a partner, so it probes only the indexed lengths
  n - D(n) .. n;
* a filed key of length l has no longer-or-equal partner more than E(l)
  edits away, E(l) being the largest d with d <= ``edit_budget(l + d,
  tau)`` (a partner is at most l + d long), so it is cut into E(l) + 1 even
  segments and filed under each (length, segment number, segment).

Pigeonhole: d <= E(l) edits touch at most d of the E(l) + 1 segments, so
one segment of the shorter key occurs untouched in the longer one. If it
starts at p in the shorter key, it starts at p + shift in the longer one,
with at least |shift| edits before it and |delta - shift| after it, delta
= n - l being the difference in length. So |shift| + |delta - shift| <= d
<= D(n), which is the window ceil((delta - D(n)) / 2) <= shift <=
floor((delta + D(n)) / 2), and the probe looks up its substrings at those
starts only. Every hit u is confirmed by ``levenshtein_similarity(s, u)
>= tau``, the rules' own similarity test, which passes exactly the hits
within D(n) edits, as the probing key s is the longer; so the join yields
exactly the pairs whose similarity reaches tau.

All cutoffs are lowered by a small slack so that float rounding in the
rules' arithmetic can only add candidates, never drop a match.

There is no index, and every pair is scanned, when tau <= 1/2 or when the
measure is Jaro-Winkler. At tau <= 1/2 a key can be as many edits away
from a partner as it has characters, so it would need more segments than
characters and an empty segment, which occurs in every string (and at
tau <= 0 every pair can match); for Jaro-Winkler no filter here is proven.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Sequence

from .normalize import Alias
from .rules import MatcherConfig, needles
from .similarity import Measure, edit_budget, levenshtein_similarity

# how far below tau the join cuts, to absorb float rounding in the rules
_FLOAT_SLACK = 1e-9

# bit k of a pair's mask: the join of gambit rule k found the pair
_RULE = tuple(1 << k for k in range(10))
# either weight-2 rule decides a gambit pair on its own
_WEIGHT_TWO = _RULE[7] | _RULE[8]


def candidate_partners(aliases: list[Alias], method: str,
                       cfg: MatcherConfig) -> list[list[int]] | None:
    """For every row i, the sorted indices j > i that may match alias i.

    Returns None when no index applies and every pair must be scanned.
    """
    m = cfg.min_len
    found = _PairSet(len(aliases))
    if method == "simple":
        _join_equal(found, _owners([a.name for a in aliases], m), _RULE[1])
        _join_equal(found, _owners([a.email_base for a in aliases], m),
                    _RULE[9])
        return found.partners(two_hits=False)

    gambit = method == "gambit"
    tau = (2.0 * cfg.threshold - 1.0 if gambit
           else cfg.threshold) - _FLOAT_SLACK
    if tau <= 0.5 or cfg.measure is not Measure.LEVENSHTEIN:
        return None
    names = _owners([a.name for a in aliases], m)
    bases = _owners([a.email_base for a in aliases], m)
    if gambit:
        _join_equal(found, _owners([a.email for a in aliases], m), _RULE[8])
    _join_containment(found, aliases, bases, m)
    # a name's hit with itself is an identical name: rules 0 and 1
    for owners, rule, same in ((names, _RULE[0], _RULE[0] | _RULE[1]),
                               (bases, _RULE[9], _RULE[9])):
        for s, u in _similar_keys(owners, tau):
            found.add_all(owners[s], owners[u], same if s == u else rule)
    # rule 2 and bird compare first names; rules 3 and 4 compare one
    # alias's first name with the other's last name
    firsts = _owners([a.first_name for a in aliases], m)
    lasts = _owners([a.last_name for a in aliases], m) if gambit else {}
    for s, u in _similar_keys(firsts.keys() | lasts.keys(), tau):
        found.add_all(firsts.get(s, ()), firsts.get(u, ()), _RULE[2])
        found.add_all(firsts.get(s, ()), lasts.get(u, ()),
                      _RULE[3], _RULE[4])
        if s != u:
            found.add_all(firsts.get(u, ()), lasts.get(s, ()),
                          _RULE[3], _RULE[4])
    return found.partners(two_hits=gambit)


class _PairSet:
    """Unordered index pairs, kept as the partners of the smaller index,
    each with the mask of the rules whose joins found it."""

    def __init__(self, n: int):
        self._later: list[dict[int, int]] = [{} for _ in range(n)]

    def add_all(self, left: Sequence[int], right: Sequence[int], rule: int,
                swapped: int | None = None) -> None:
        """Mark every pair of ``left`` x ``right`` with ``rule``, or with
        ``swapped`` where the index from ``left`` is the larger one."""
        if swapped is None:
            swapped = rule
        later = self._later
        for i in left:
            row_i = later[i]
            for j in right:
                if i < j:
                    row_i[j] = row_i.get(j, 0) | rule
                elif j < i:
                    row_j = later[j]
                    row_j[i] = row_j.get(i, 0) | swapped

    def partners(self, two_hits: bool) -> list[list[int]]:
        """Every row's sorted partners: all found pairs, or with
        ``two_hits`` those with a weight-2 rule or two distinct rules."""
        if not two_hits:
            return [sorted(row) for row in self._later]
        # mask & (mask - 1) clears the lowest bit: nonzero for two or more
        return [sorted(j for j, mask in row.items()
                       if mask & _WEIGHT_TWO or mask & (mask - 1))
                for row in self._later]


def _owners(keys: list[str], min_len: int) -> dict[str, list[int]]:
    """Distinct key -> indices holding it, ignoring keys below the gate."""
    owners: dict[str, list[int]] = defaultdict(list)
    for i, key in enumerate(keys):
        if len(key) >= min_len:
            owners[key].append(i)
    return owners


def _join_equal(found: _PairSet, owners: dict[str, list[int]],
                rule: int) -> None:
    for members in owners.values():
        found.add_all(members, members, rule)


def _join_containment(found: _PairSet, aliases: list[Alias],
                      bases: dict[str, list[int]], min_len: int) -> None:
    # needle -> (alias, rule, rest): the alias's rule holds in every base
    # that holds both the needle and the rest
    by_needle: dict[str, list[tuple[int, int, str]]] = defaultdict(list)
    for i, a in enumerate(aliases):
        for rule, pair in zip(_RULE[5:8], needles(a, min_len)):
            if pair:
                by_needle[pair[0]].append((i, rule, pair[1]))
    lengths = {len(needle) for needle in by_needle}
    for base, owners in bases.items():
        # a needle holds no whitespace, so it lies inside one word
        substrings = {word[k:k + n] for word in base.split() for n in lengths
                      for k in range(len(word) - n + 1)}
        for needle in substrings & by_needle.keys():
            for i, rule, rest in by_needle[needle]:
                if rest in base:
                    found.add_all((i,), owners, rule)


def _similar_keys(keys: Iterable[str],
                  tau: float) -> Iterator[tuple[str, str]]:
    """Yield ``(s, s)`` for every key, and ``(s, u)`` once for every other
    unordered pair of ``keys`` whose Levenshtein similarity is at least
    tau, for 1/2 < tau <= 1.

    Shortest first, each key looks up its substrings in the shift window of
    every segment of the lengths it can match, confirms the keys found, and
    then files its own segments.
    """
    # length -> per segment, its (start, end) and segment -> keys filed
    index: dict[int, list[tuple[int, int, dict[str, list[str]]]]] = {}
    for s in sorted(keys, key=len):
        yield s, s
        n = len(s)
        budget = edit_budget(n, tau)
        near: set[str] = set()
        for length in range(n - budget, n + 1):
            delta = n - length
            low, high = -((budget - delta) // 2), (delta + budget) // 2
            for start, end, filed in index.get(length, ()):
                width = end - start
                for at in range(max(start + low, 0),
                                min(start + high, n - width) + 1):
                    near.update(filed.get(s[at:at + width], ()))
        for u in near:
            if levenshtein_similarity(s, u) >= tau:
                yield s, u
        if n not in index:
            parts = _max_edits_to_longer(n, tau) + 1
            index[n] = [(k * n // parts, (k + 1) * n // parts, {})
                        for k in range(parts)]
        for start, end, filed in index[n]:
            filed.setdefault(s[start:end], []).append(s)


def _max_edits_to_longer(length: int, tau: float) -> int:
    """The most edits d a key of ``length`` can be from a partner at least
    as long with similarity >= tau: a partner is at most length + d long,
    and the longer it is, the higher the similarity of d edits."""
    d = 0
    while edit_budget(length + d + 1, tau) > d:
        d += 1
    return d
