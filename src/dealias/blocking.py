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

* hash joins on the email (rule 8) and on the name (rules 1 and 0 at once:
  identical names are similar names too, which is two rules); simple joins
  the names and the email bases;
* a substring join for the containment rules 5-7 (bird's containment
  conditions are the same three): every alias's ``(needle, rest)`` pairs
  from ``rules.needles`` are filed under the needle, each distinct email
  base looks up its own substrings of the needle lengths, and a hit counts
  when the rest occurs in the base too;
* a Levenshtein join at tau on full names (rule 0; bird), on email bases
  (rule 9; bird), on first names (rule 2, whose first-name leg must reach
  tau; bird) and between first and last names (rules 3 and 4).

Rules 3 and 4 are one comparison seen from the two ends of a pair (i, j)
with i < j: rule 3 compares i's first name with j's last name, rule 4 i's
last name with j's first name. A join hit of ``first_i ~ last_j`` therefore
marks rule 3 of the pair (i, j) when i < j, and rule 4 of the pair (j, i)
when i > j.

The join uses deletion neighbourhoods (Bocek et al., "Fast Similarity
Search in Large Dictionaries", 2007): if two strings are within edit
distance d, deleting at most d characters from each yields a common
string. Similarity 1 - d / max(len) >= tau bounds d by
(1 - tau) * len(s) / tau for either string s, so each string indexes the
neighbourhood of that budget. The keys are taken shortest first: each
probes the index of the keys before it and then adds its own neighbourhood,
so every pair of keys is confirmed once and no key's neighbourhood is held
after its turn. A string whose neighbourhood would be too large is
compared directly against every earlier string whose length is within the
ratio tau of its own. Join hits are confirmed with the same similarity
function the rules use.

All cutoffs are lowered by a small slack so that float rounding in the
rules' arithmetic can only add candidates, never drop a match.

There is no index, and every pair is scanned, when tau <= 1/2 or when the
measure is Jaro-Winkler. At tau <= 1/2 the deletion budget of every string
reaches its whole length, so the join could prune nothing (and at
tau <= 0 every pair can match); for Jaro-Winkler no filter here is proven.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from math import comb, floor
from typing import Iterable, Iterator, Sequence

from .normalize import Alias
from .rules import MatcherConfig, needles
from .similarity import Measure, levenshtein_similarity

# how far below tau the join cuts, to absorb float rounding in the rules
_FLOAT_SLACK = 1e-9
# strings with more deletion variants than this are compared directly
_MAX_NEIGHBOURHOOD = 2000

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
        _join_equal(found, names, _RULE[0] | _RULE[1])
    _join_containment(found, aliases, bases, m)
    for owners, rule in ((names, _RULE[0]), (bases, _RULE[9])):
        for s, u in _similar_keys(owners, tau):
            found.add_all(owners[s], owners[u], rule)
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
        substrings = {base[k:k + n] for n in lengths
                      for k in range(len(base) - n + 1)}
        for needle in substrings & by_needle.keys():
            for i, rule, rest in by_needle[needle]:
                if rest in base:
                    found.add_all((i,), owners, rule)


def _similar_keys(keys: Iterable[str],
                  tau: float) -> Iterator[tuple[str, str]]:
    """Yield ``(s, s)`` for every key, and ``(s, u)`` once for every other
    unordered pair of ``keys`` whose Levenshtein similarity is at least
    tau.

    Shortest first, each key probes the deletion-neighbourhood index of the
    keys before it, then adds its own variants. A neighbourhood only grows
    with the key's length, so once a key is too wide to index, every later
    key is too: the wide keys are compared directly with every earlier key
    of a possible length, and no indexed key ever has to look for them.
    """
    index: dict[str, list[str]] = {}
    done: list[str] = []       # the keys so far, shortest first
    lens: list[int] = []
    for s in sorted(keys, key=len):
        yield s, s
        hood = _neighbourhood(s, tau)
        if hood is None:
            # similarity >= tau needs len(shorter) >= tau * len(longer)
            near = done[bisect_left(lens, tau * len(s)):]
        else:
            near = {u for variant in hood for u in index.get(variant, ())}
            for variant in hood:
                index.setdefault(variant, []).append(s)
        for u in near:
            if levenshtein_similarity(s, u) >= tau:
                yield s, u
        done.append(s)
        lens.append(len(s))


def _neighbourhood(s: str, tau: float) -> set[str] | None:
    """Every string left after deleting up to the budget of characters
    from ``s``; None when that set would exceed ``_MAX_NEIGHBOURHOOD``."""
    budget = min(floor((1.0 - tau) * len(s) / tau), len(s))
    if sum(comb(len(s), k) for k in range(budget + 1)) > _MAX_NEIGHBOURHOOD:
        return None
    hood = frontier = {s}
    for _ in range(budget):
        frontier = {v[:k] + v[k + 1:] for v in frontier for k in range(len(v))}
        hood = hood | frontier
    return hood
