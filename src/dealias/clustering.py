"""Clustering of pairwise match decisions into author identities.

Matching is not transitive on its own (a~b and b~c do not force a~c), so
aliases are grouped by the transitive closure of the matched pairs: every
connected component becomes one author.
"""

from __future__ import annotations

import os
from collections import defaultdict
from functools import lru_cache
from math import inf
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from .baselines import bird_rule_score, simple_match
from .blocking import candidate_partners
from .errors import DuplicateAliasIdError, UniverseMismatchError
from .normalize import Alias
from .rules import (DEFAULT_CONFIG, MatcherConfig, gambit_rule_score,
                    gated_similarity)

METHODS = ("gambit", "simple", "bird")
DEFAULT_METHOD = "gambit"

# below this row count extra worker processes cost more than they save
_WORKERS_MIN_ALIASES = 512


class Partition:
    """An assignment of every alias id to an author id.

    Labels are canonical: each author is named after the lexicographically
    smallest alias id it contains. Two partitions that group the same ids
    the same way therefore compare equal no matter how they were labelled
    originally.
    """

    def __init__(self, assignment: Mapping[str, Hashable]):
        groups: dict[Hashable, list[str]] = defaultdict(list)
        for alias_id, author_id in assignment.items():
            groups[author_id].append(alias_id)
        self._assignment: dict[str, str] = {}
        for members in groups.values():
            label = min(members)
            for alias_id in members:
                self._assignment[alias_id] = label

    @property
    def assignment(self) -> dict[str, str]:
        return dict(self._assignment)

    def clusters(self) -> dict[str, list[str]]:
        """Author id -> sorted member alias ids."""
        out: dict[str, list[str]] = defaultdict(list)
        for alias_id, author_id in self._assignment.items():
            out[author_id].append(alias_id)
        return {author: sorted(members) for author, members in out.items()}

    def universe(self) -> frozenset[str]:
        return frozenset(self._assignment)

    def author_count(self) -> int:
        return len(set(self._assignment.values()))

    def __len__(self) -> int:
        return len(self._assignment)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._assignment == other._assignment

    def __repr__(self) -> str:
        return (f"Partition({len(self._assignment)} aliases, "
                f"{self.author_count()} authors)")


class _DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def union_equal(self, keys: Iterable[Hashable]) -> None:
        """Join element k to the first element whose key equals the k-th
        of ``keys``; a None key joins nothing."""
        first: dict[Hashable, int] = {}
        for k, key in enumerate(keys):
            if key is not None:
                self.union(first.setdefault(key, k), k)

    def partition(self, ids: list[str]) -> Partition:
        """Element k is alias ``ids[k]``; one author per component."""
        return Partition({ids[k]: ids[self.find(k)] for k in range(len(ids))})


def _pair_scorer(method: str,
                 cfg: MatcherConfig) -> Callable[[Alias, Alias], float]:
    """:func:`pair_score` of ``method`` under ``cfg`` as a function of the
    pair alone. A scan builds one, which memoises the gated name-part
    similarities; full names and email bases are nearly unique per alias."""
    if method == "simple":
        return lambda a, b: inf if simple_match(a, b, cfg) else -inf
    m = cfg.min_len
    sim = gated_similarity(cfg)
    part_sim = lru_cache(maxsize=1 << 18)(sim)
    if method == "gambit":
        return lambda a, b: gambit_rule_score(a, b, m, sim, part_sim)
    return lambda a, b: bird_rule_score(a, b, m, sim, part_sim)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def pair_score(a: Alias, b: Alias, method: str = DEFAULT_METHOD,
               cfg: MatcherConfig = DEFAULT_CONFIG) -> float:
    """The score of a pair under ``method``: the pair matches at threshold
    t exactly when its score is >= t.

    Gambit's score is the top-two rule average, bird's is
    :func:`baselines.bird_rule_score`, and simple's is +inf for a match and
    -inf otherwise. None of them uses ``cfg.threshold``.
    """
    _check_method(method)
    return _pair_scorer(method, cfg)(a, b)


def _scan_rows(aliases: list[Alias], method: str, cfg: MatcherConfig,
               partners, rows) -> list[tuple[float, int, int]]:
    """(score, i, j) for the pairs of the given rows that score at least
    ``cfg.threshold``, over row i's candidate ``partners`` (every later row
    when ``partners`` is None)."""
    score = _pair_scorer(method, cfg)
    t = cfg.threshold
    n = len(aliases)
    found = []
    for i in rows:
        a = aliases[i]
        for j in range(i + 1, n) if partners is None else partners[i]:
            s = score(a, aliases[j])
            if s >= t:
                found.append((s, i, j))
    return found


def scored_pairs(aliases: list[Alias], method: str = DEFAULT_METHOD,
                 cfg: MatcherConfig = DEFAULT_CONFIG,
                 workers: int = 1) -> list[tuple[float, int, int]]:
    """(score, i, j), in (i, j) order, for every pair i < j whose
    :func:`pair_score` is at least ``cfg.threshold``.

    Only the candidate pairs of :func:`blocking.candidate_partners` are
    scored; they provably include every pair that reaches the threshold.
    The index is built once, in this process. With ``workers`` > 1 and at
    least ``_WORKERS_MIN_ALIASES`` aliases the rows are dealt round-robin,
    which balances their uneven lengths, to a ``multiprocessing.Pool`` of
    at most ``min(workers, os.cpu_count(), n - 1)`` processes, started the
    platform's way. Each worker receives the scan's inputs with its stripe,
    the same way under every start method. The result is the same for any
    worker count. Raises ``ValueError`` on ``workers`` below 1.
    """
    _check_method(method)
    _check_workers(workers)
    state = (aliases, method, cfg, candidate_partners(aliases, method, cfg))
    n = len(aliases)
    rows = range(n - 1)
    procs = min(workers, os.cpu_count() or 1, n - 1)
    if procs < 2 or n < _WORKERS_MIN_ALIASES:
        return _scan_rows(*state, rows)
    import multiprocessing  # here, not at load: it slows every CLI start
    with multiprocessing.Pool(procs) as pool:
        chunks = pool.starmap(_scan_rows,
                              [(*state, rows[w::procs]) for w in range(procs)])
    return sorted((p for chunk in chunks for p in chunk), key=itemgetter(1, 2))


def matched_pairs(aliases: list[Alias], method: str = DEFAULT_METHOD,
                  cfg: MatcherConfig = DEFAULT_CONFIG,
                  workers: int = 1) -> list[tuple[int, int]]:
    """All matching index pairs (i, j) with i < j, in that order: the pairs
    of :func:`scored_pairs` without their scores. The result is the same
    for any worker count."""
    return [(i, j) for _, i, j in scored_pairs(aliases, method, cfg, workers)]


def _alias_ids(aliases: list[Alias]) -> list[str]:
    """The aliases' ids, in order; raises on a duplicate."""
    ids = [a.id for a in aliases]
    seen = set()
    for alias_id in ids:
        if alias_id in seen:
            raise DuplicateAliasIdError(f"duplicate alias id {alias_id!r}")
        seen.add(alias_id)
    return ids


def _check_same_ids(ids: Iterable[str], other: Iterable[str], name: str,
                    other_name: str) -> None:
    """Raise :class:`UniverseMismatchError` unless ``other`` holds exactly
    the alias ids of ``ids``, saying how many ids each side lacks."""
    ids, other = set(ids), set(other)
    if ids != other:
        raise UniverseMismatchError(
            f"{other_name} covers other alias ids than {name}: "
            f"{len(ids - other)} are only in {name}, "
            f"{len(other - ids)} only in {other_name}")


def _distinct(aliases: list[Alias], method: str, cfg: MatcherConfig
              ) -> tuple[list[int], list[tuple[float, int, int]]]:
    """The indices of the aliases a scan must see, ascending, and a merge
    edge (s, r, k) for each other alias k: a copy of alias r, equal to it
    in every field but the id, whose record matches itself at every
    threshold, s = :func:`pair_score` of (r, r) >= 1."""
    self_score = lru_cache(maxsize=None)(
        lambda r: pair_score(aliases[r], aliases[r], method, cfg))
    first: dict[tuple[str, ...], int] = {}
    scanned, copies = [], []
    for k, a in enumerate(aliases):
        r = first.setdefault((a.name, a.email, a.first_name,
                              a.penultimate_name, a.last_name,
                              a.email_base), k)
        if r != k and (s := self_score(r)) >= 1:
            copies.append((s, r, k))
        else:
            scanned.append(k)
    return scanned, copies


def _merge_edges(aliases: list[Alias], method: str, cfg: MatcherConfig,
                 scan: Callable[[list[Alias]], Iterable]
                 ) -> Iterator[tuple[float, int, int]]:
    """The merge edges (s, i, j) over ``aliases``, each scoring at least
    ``cfg.threshold``: the copy edges of :func:`_distinct`, and then the
    pairs that ``scan`` gives for the other aliases, mapped back to
    ``aliases`` as they come.

    A copy decides every pair as its record does, and the pair of the two
    scores as the record against itself. Where that score is at least 1,
    which no threshold in [0, 1] exceeds, their one edge puts the copy in
    its record's cluster at every threshold, where each pair the copy
    matches would put it too. Such a record has an identical key that
    passes the length gate: the name or the email for gambit, the name or
    the email base for bird and simple. Every other copy is scanned as an
    alias of its own.
    """
    scanned, copies = _distinct(aliases, method, cfg)
    yield from copies
    for s, i, j in scan([aliases[k] for k in scanned]):
        yield s, scanned[i], scanned[j]


def _closures(ids: list[str], edges: Iterable[tuple[float, int, int]],
              thresholds: Iterable[float]) -> Iterator[Partition]:
    """For each of the descending ``thresholds`` t, the partition of
    ``ids`` that the ``edges`` (s, i, j) with s >= t join, element k being
    alias ``ids[k]``: single linkage cut at t.

    The edges come highest score first, and one union-find walk goes down
    them, each partition growing from the last. For a single threshold
    that every edge reaches, the edges may come in any order: the walk
    takes them all."""
    dsu = _DisjointSet(len(ids))
    edges = iter(edges)
    end = (-inf, 0, 0)  # reaches no threshold
    s, i, j = next(edges, end)
    for t in thresholds:
        while s >= t:
            dsu.union(i, j)
            s, i, j = next(edges, end)
        yield dsu.partition(ids)


def disambiguate(aliases: list[Alias], method: str = DEFAULT_METHOD,
                 cfg: MatcherConfig = DEFAULT_CONFIG,
                 workers: int = 1) -> Partition:
    """Group aliases into authors: match all pairs, then take the
    transitive closure of the matches.

    One :func:`matched_pairs` scan covers every alias but the copies that
    :func:`_merge_edges` joins to their record directly: those of a record
    that matches itself at every threshold. A matched pair scores at least
    the threshold t, so each becomes an edge of score t, and a copy's edge
    scores at least 1. Every edge reaches t, so the closure is
    :func:`_closures` at t alone, which takes the edges in the order they
    come: none is held again or sorted.
    """
    ids = _alias_ids(aliases)
    t = cfg.threshold
    edges = _merge_edges(aliases, method, cfg, lambda records: (
        (t, i, j) for i, j in matched_pairs(records, method, cfg, workers)))
    return next(_closures(ids, edges, [t]))
