"""Clustering of pairwise match decisions into author identities.

Matching is not transitive on its own (a~b and b~c do not force a~c), so
aliases are grouped by the transitive closure of the matched pairs: every
connected component becomes one author.
"""

from __future__ import annotations

import importlib.util
import multiprocessing
from collections import defaultdict
from math import inf
from operator import itemgetter
from typing import Iterable, Mapping

from .baselines import bird_score, simple_match
from .blocking import candidate_partners
from .errors import (DuplicateAliasIdError, EmptyClusterError,
                     UniverseMismatchError)
from .normalize import Alias
from .rules import DEFAULT_CONFIG, MatcherConfig, score_pair, top_two_average

METHODS = ("gambit", "simple", "bird")
ENGINES = ("auto", "python", "numba")

# below this pair count the compiled scan is not worth dispatching to
_NUMBA_MIN_PAIRS = 20_000
# below this row count extra worker processes cost more than they save
_WORKERS_MIN_ALIASES = 512


class Partition:
    """An assignment of every alias id to an author id.

    Labels are canonical: each author is named after the lexicographically
    smallest alias id it contains. Two partitions that group the same ids
    the same way therefore compare equal no matter how they were labelled
    originally.
    """

    def __init__(self, assignment: Mapping[str, str]):
        groups: dict[str, list[str]] = defaultdict(list)
        for alias_id, author_id in assignment.items():
            groups[author_id].append(alias_id)
        self._assignment: dict[str, str] = {}
        for members in groups.values():
            label = min(members)
            for alias_id in members:
                self._assignment[alias_id] = label

    @classmethod
    def from_clusters(cls, clusters: Iterable[Iterable[str]]) -> "Partition":
        assignment = {}
        for position, members in enumerate(clusters):
            members = list(members)
            if not members:
                raise EmptyClusterError(
                    f"cluster at position {position} (counting from 0) "
                    f"has no members")
            label = min(members)
            for alias_id in members:
                if alias_id in assignment:
                    raise DuplicateAliasIdError(
                        f"alias id {alias_id!r} appears in more than one cluster")
                assignment[alias_id] = label
        return cls(assignment)

    @property
    def assignment(self) -> dict[str, str]:
        return dict(self._assignment)

    def author_of(self, alias_id: str) -> str:
        return self._assignment[alias_id]

    def same_author(self, id_a: str, id_b: str) -> bool:
        return self._assignment[id_a] == self._assignment[id_b]

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

    def partition(self, ids: list[str]) -> Partition:
        """Element k is alias ``ids[k]``; one author per component."""
        return Partition({ids[k]: ids[self.find(k)] for k in range(len(ids))})


def _gambit_score(a: Alias, b: Alias, cfg: MatcherConfig) -> float:
    return top_two_average(score_pair(a, b, cfg))


def _simple_score(a: Alias, b: Alias, cfg: MatcherConfig) -> float:
    return inf if simple_match(a, b, cfg) else -inf


_PAIR_SCORES = {"gambit": _gambit_score, "simple": _simple_score,
                "bird": bird_score}


def _check_method(method: str) -> None:
    if method not in _PAIR_SCORES:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def pair_score(a: Alias, b: Alias, method: str = "gambit",
               cfg: MatcherConfig = DEFAULT_CONFIG) -> float:
    """The score of a pair under ``method``: the pair matches at threshold
    t exactly when its score is >= t.

    Gambit's score is the top-two rule average, bird's is
    :func:`baselines.bird_score`, and simple's is +inf for a match and -inf
    otherwise. None of them uses ``cfg.threshold``.
    """
    _check_method(method)
    return _PAIR_SCORES[method](a, b, cfg)


def _scan_rows(aliases: list[Alias], method: str, cfg: MatcherConfig,
               partners, rows) -> list[tuple[float, int, int]]:
    """(score, i, j) for the pairs of the given rows that score at least
    ``cfg.threshold``, over row i's candidate ``partners`` (every later row
    when ``partners`` is None)."""
    score = _PAIR_SCORES[method]
    t = cfg.threshold
    n = len(aliases)
    found = []
    for i in rows:
        a = aliases[i]
        for j in range(i + 1, n) if partners is None else partners[i]:
            s = score(a, aliases[j], cfg)
            if s >= t:
                found.append((s, i, j))
    return found


def _compiled_rows(enc, method: str, cfg: MatcherConfig,
                   rows) -> list[tuple[int, int]]:
    from . import fastscan
    return fastscan.scan_matches(enc, rows, method, cfg)


def _resolve_encoding(aliases: list[Alias], engine: str, method: str,
                      cfg: MatcherConfig):
    """Pick the scan engine; returns an EncodedCorpus or None for pure Python.

    ``fastscan``, and numpy with it, is imported only when numba is
    installed and the compiled scan may run.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    _check_method(method)
    if engine == "python":
        return None
    n = len(aliases)
    if engine == "auto" and n * (n - 1) // 2 < _NUMBA_MIN_PAIRS:
        return None
    if importlib.util.find_spec("numba") is not None:
        from . import fastscan
        if fastscan.available():
            enc = fastscan.encode_corpus(aliases)
            if enc is None and engine == "numba":
                raise ValueError("numba engine unavailable: alias fields are "
                                 "not latin-1 encodable")
            return enc
    if engine == "numba":
        raise ValueError("numba engine unavailable: numba is not importable")
    return None


_WORKER_STATE = None


def _init_worker(*state):
    global _WORKER_STATE
    _WORKER_STATE = state


def _scan_stripe(rows):
    scan, state = _WORKER_STATE
    return scan(*state, rows)


def _in_stripes(scan, state: tuple, n: int, workers: int, order) -> list:
    """``scan(*state, rows)`` over the rows 0 .. n-2, sorted by ``order``.

    With ``workers`` > 1 and enough aliases the rows are dealt round-robin
    to worker processes, which balances the uneven row lengths; ``state``
    is built before the workers fork, so each has it without a copy.
    """
    rows = range(n - 1)
    if workers <= 1 or n < _WORKERS_MIN_ALIASES:
        return scan(*state, rows)
    stripes = [rows[w::workers] for w in range(workers)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_init_worker,
                  initargs=(scan, state)) as pool:
        chunks = pool.map(_scan_stripe, stripes)
    found = [p for chunk in chunks for p in chunk]
    found.sort(key=order)
    return found


def scored_pairs(aliases: list[Alias], method: str = "gambit",
                 cfg: MatcherConfig = DEFAULT_CONFIG,
                 workers: int = 1) -> list[tuple[float, int, int]]:
    """(score, i, j), in (i, j) order, for every pair i < j whose
    :func:`pair_score` is at least ``cfg.threshold``.

    Only the candidate pairs of :func:`blocking.candidate_partners` are
    scored; they provably include every pair that reaches the threshold.
    ``workers`` > 1 splits the rows across processes; the candidate index is
    built once, before the workers fork. The result is the same for any
    worker count.
    """
    _check_method(method)
    partners = candidate_partners(aliases, method, cfg)
    return _in_stripes(_scan_rows, (aliases, method, cfg, partners),
                       len(aliases), workers, itemgetter(1, 2))


def matched_pairs(aliases: list[Alias], method: str = "gambit",
                  cfg: MatcherConfig = DEFAULT_CONFIG, workers: int = 1,
                  engine: str = "auto") -> list[tuple[int, int]]:
    """All matching index pairs (i, j) with i < j, in that order.

    The pure-Python engine returns the pairs of :func:`scored_pairs`
    without their scores; the compiled engine decides all pairs. The result
    is the same pair set regardless of worker count or engine.
    """
    enc = _resolve_encoding(aliases, engine, method, cfg)
    if enc is None:
        return [(i, j) for _, i, j in
                scored_pairs(aliases, method, cfg, workers)]
    return _in_stripes(_compiled_rows, (enc, method, cfg), len(aliases),
                       workers, None)


def _alias_ids(aliases: list[Alias]) -> list[str]:
    """The aliases' ids, in order; raises on a duplicate."""
    ids = [a.id for a in aliases]
    seen = set()
    for alias_id in ids:
        if alias_id in seen:
            raise DuplicateAliasIdError(f"duplicate alias id {alias_id!r}")
        seen.add(alias_id)
    return ids


def disambiguate(aliases: list[Alias], method: str = "gambit",
                 cfg: MatcherConfig = DEFAULT_CONFIG, workers: int = 1,
                 engine: str = "auto") -> Partition:
    """Group aliases into authors: match all pairs, then take the
    transitive closure of the matches."""
    ids = _alias_ids(aliases)
    dsu = _DisjointSet(len(ids))
    for i, j in matched_pairs(aliases, method, cfg, workers, engine):
        dsu.union(i, j)
    return dsu.partition(ids)


def merge_partitions(p1: Partition, p2: Partition) -> Partition:
    """Finest common coarsening: two aliases share an author in the result
    iff they are connected through same-author links of either input."""
    if p1.universe() != p2.universe():
        raise UniverseMismatchError(
            f"partitions cover different alias ids "
            f"({len(p1)} vs {len(p2)} aliases)")
    ids = sorted(p1.universe())
    index = {alias_id: k for k, alias_id in enumerate(ids)}
    dsu = _DisjointSet(len(ids))
    for part in (p1, p2):
        for members in part.clusters().values():
            first = index[members[0]]
            for other in members[1:]:
                dsu.union(first, index[other])
    return dsu.partition(ids)
