"""Scoring predicted groupings against ground truth, threshold sweeps,
inter-rater agreement, and triage of pairs for manual labelling."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .clustering import (DEFAULT_METHOD, Partition, _alias_ids,
                         _check_method, _check_same_ids, _check_workers,
                         _closures, _DisjointSet, _merge_edges, disambiguate,
                         scored_pairs)
from .normalize import Alias
from .rules import DEFAULT_CONFIG, MatcherConfig
from .similarity import LevenshteinRows, Measure
from .storage import write_csv

# triage: auto-differ when both name and email similarity fall below this
DEFAULT_DIFFER_CUTOFF = 0.5


@dataclass(frozen=True)
class EvalReport:
    """Pairwise contingency counts of a predicted partition against truth.

    A pair of aliases is a positive when the prediction puts both in the
    same cluster. Precision/recall/f1 define 0/0 as 0.
    """

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0

    @property
    def f1(self) -> float:
        denom = self.precision + self.recall
        return 2.0 * self.precision * self.recall / denom if denom else 0.0


def _pairs_within(sizes: Iterable[int]) -> int:
    return sum(s * (s - 1) // 2 for s in sizes)


def evaluate(predicted: Partition, truth: Partition) -> EvalReport:
    """Count pairs both/only-predicted/only-true via the cluster overlap
    table, without enumerating pairs."""
    _check_same_ids(truth.universe(), predicted.universe(), "the truth",
                    "the predicted partition")
    pred, actual = predicted.assignment, truth.assignment
    cells = Counter((pred[alias_id], author)
                    for alias_id, author in actual.items())
    tp = _pairs_within(cells.values())
    fp = _pairs_within(Counter(pred.values()).values()) - tp
    fn = _pairs_within(Counter(actual.values()).values()) - tp
    return EvalReport(tp, fp, fn)


@dataclass(frozen=True)
class SweepRow:
    """One (method, measure, threshold) point of a sweep."""

    method: str
    measure: Measure | None   # None for methods that ignore the measure
    threshold: float | None
    report: EvalReport
    wall_time_s: float


def sweep(aliases: list[Alias], truth: Partition,
          methods: Sequence[str] = (DEFAULT_METHOD,),
          measures: Sequence[Measure] = (DEFAULT_CONFIG.measure,),
          thresholds: Sequence[float] = (DEFAULT_CONFIG.threshold,),
          min_len: int = DEFAULT_CONFIG.min_len,
          workers: int = 1) -> list[SweepRow]:
    """Score one disambiguation per (method, measure, threshold) against the
    truth. The simple method has no parameters, so it contributes a single
    row. Rows come with methods and measures in the order first given and
    thresholds ascending; a repeated method, measure or threshold counts
    once.

    No pair score depends on the threshold, and a pair matches at t exactly
    when its score is >= t. So each (method, measure) is scanned once, at the
    lowest threshold, and every threshold's partition is read from one
    union-find walk down the scored pairs, highest score first. The edges
    and the walk are those of :func:`disambiguate`: a copy of a record that
    matches itself at every threshold joins it through one edge, and every
    other alias is scanned. Each such row's ``wall_time_s`` is an even
    share of its group's scan, edges and sort, plus its own step of the
    walk and evaluation; the simple row's is its one :func:`disambiguate`
    and evaluation. So the rows add up to the sweep's time.

    Before any scan, raises ``ValueError`` on no or an unknown method, no
    measure for a method that uses one, no or an out-of-range threshold, or
    ``workers`` below 1, and :class:`UniverseMismatchError` unless the truth
    labels exactly the aliases' ids.
    """
    methods = list(dict.fromkeys(methods))
    measures = list(dict.fromkeys(measures))
    if not methods:
        raise ValueError("no methods given")
    for method in methods:
        _check_method(method)
    _check_workers(workers)
    if not measures and any(method != "simple" for method in methods):
        raise ValueError("no measures given")
    thresholds = sorted(set(thresholds))
    for t in thresholds:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"threshold out of range: {t}")
    if not thresholds:
        raise ValueError("no thresholds given")
    ids = _alias_ids(aliases)
    _check_same_ids(ids, truth.universe(), "the aliases", "the truth")

    rows: list[SweepRow] = []
    for method in methods:
        if method == "simple":
            start = time.perf_counter()
            report = evaluate(disambiguate(aliases, method, MatcherConfig(
                min_len=min_len), workers), truth)
            rows.append(SweepRow(method, None, None, report,
                                 time.perf_counter() - start))
            continue
        for measure in measures:
            cfg = MatcherConfig(threshold=thresholds[0], measure=measure,
                                min_len=min_len)
            rows += _sweep_group(aliases, ids, truth, method, cfg,
                                 thresholds, workers)
    return rows


def _sweep_group(aliases: list[Alias], ids: list[str], truth: Partition,
                 method: str, cfg: MatcherConfig, thresholds: list[float],
                 workers: int) -> list[SweepRow]:
    """The rows of one (method, measure) at the ascending ``thresholds``,
    from one scan at ``cfg.threshold``, the lowest of them, and one walk of
    :func:`clustering._closures` down its edges, highest score first."""
    start = time.perf_counter()
    edges = sorted(_merge_edges(aliases, method, cfg, lambda records: (
        scored_pairs(records, method, cfg, workers))), reverse=True)
    scan_share = (time.perf_counter() - start) / len(thresholds)
    cuts = _closures(ids, edges, reversed(thresholds))
    rows = []
    for t in reversed(thresholds):
        start = time.perf_counter()
        report = evaluate(next(cuts), truth)
        rows.append(SweepRow(method, cfg.measure, t, report,
                             scan_share + time.perf_counter() - start))
    return rows[::-1]


SWEEP_HEADER = ["method", "measure", "threshold", "tp", "fp", "fn",
                "precision", "recall", "f1", "wall_time_ms"]


def write_sweep_csv(rows: list[SweepRow], out) -> None:
    """Write the sweep file to ``out``: a path, an open text stream, or
    None for standard output."""
    write_csv(SWEEP_HEADER, ([
        row.method,
        row.measure.value if row.measure is not None else "",
        f"{row.threshold:.10g}" if row.threshold is not None else "",
        str(row.report.true_positives), str(row.report.false_positives),
        str(row.report.false_negatives), f"{row.report.precision:.6f}",
        f"{row.report.recall:.6f}", f"{row.report.f1:.6f}",
        f"{row.wall_time_s * 1000.0:.1f}",
    ] for row in rows), out)


def cohen_kappa(labels_a: Sequence[bool], labels_b: Sequence[bool]) -> float:
    """Chance-corrected agreement of two binary label sequences.

    Returns 1.0 when chance agreement is total (both raters constant and
    equal), since observed agreement is then total as well.
    """
    if len(labels_a) != len(labels_b):
        raise ValueError("label sequences differ in length")
    n = len(labels_a)
    if n == 0:
        raise ValueError("empty label sequences")
    agree = sum(1 for x, y in zip(labels_a, labels_b) if bool(x) == bool(y))
    p_observed = agree / n
    pos_a = sum(1 for x in labels_a if x) / n
    pos_b = sum(1 for y in labels_b if y) / n
    p_chance = pos_a * pos_b + (1.0 - pos_a) * (1.0 - pos_b)
    if p_chance == 1.0:
        return 1.0
    return (p_observed - p_chance) / (1.0 - p_chance)


@dataclass(frozen=True)
class TriageResult:
    """Pairs pre-labelled for review. The three lists are disjoint and
    together cover every unordered pair of alias ids."""

    auto_match: tuple[tuple[str, str], ...]
    auto_differ: tuple[tuple[str, str], ...]
    undecided: tuple[tuple[str, str], ...]


def triage_rows(aliases: list[Alias],
                differ_cutoff: float = DEFAULT_DIFFER_CUTOFF
                ) -> Iterator[tuple[str, list[str], list[str], list[str]]]:
    """Decide every pair of aliases, one alias at a time.

    Yields ``(id_a, match, differ, undecided)`` for each alias in id order:
    the ids after ``id_a`` that it auto-matches, auto-differs from and
    leaves undecided, each list ascending. Only one alias's lists are held
    at a time, so a caller that writes each row as it comes holds memory
    linear in the number of aliases.

    Pairs whose aliases share an identical non-empty name or email (directly
    or through a chain of such links) are auto-matches. Of the remaining
    pairs, those whose name similarity AND email similarity are both below
    ``differ_cutoff`` are auto-differs; everything else is left undecided
    for a human. Similarities are ``levenshtein_similarity`` values, so
    every pair is decided exactly as by comparing the two aliases alone.
    For each alias, one pass of the packed kernel per field
    (:class:`LevenshteinRows`) names the later aliases within the cutoff:
    only those, and the auto-matches, from groups found once, are handled
    one by one. The auto-differs are the rest of the row, taken in one
    ``itertools.compress``.

    Raises :class:`DuplicateAliasIdError` when two aliases share an id, and
    ``ValueError`` unless 0 <= ``differ_cutoff`` <= 1 or when an id holds a
    carriage return, which no CSV output would read back, before the first
    row is decided.
    """
    if not 0.0 <= differ_cutoff <= 1.0:
        raise ValueError(f"differ cutoff out of range: {differ_cutoff}")
    for alias_id in _alias_ids(aliases):
        if "\r" in alias_id:
            raise ValueError(f"alias id {alias_id!r} holds a carriage return")
    return _triage_rows(sorted(aliases, key=lambda a: a.id), differ_cutoff)


def _triage_rows(aliases: list[Alias], differ_cutoff: float
                 ) -> Iterator[tuple[str, list[str], list[str], list[str]]]:
    n = len(aliases)
    ids = [a.id for a in aliases]
    names = [a.name for a in aliases]
    emails = [a.email for a in aliases]
    dsu = _DisjointSet(n)
    for keys in (names, emails):
        dsu.union_equal(key or None for key in keys)
    roots = [dsu.find(k) for k in range(n)]
    groups: dict[int, list[int]] = {}   # root -> its members, ascending
    for k, root in enumerate(roots):
        groups.setdefault(root, []).append(k)
    name_rows = LevenshteinRows(names, differ_cutoff)
    email_rows = LevenshteinRows(emails, differ_cutoff)
    # selector[j]: pair (i, j) of the current row i is an auto-differ
    selector = bytearray(b"\1") * n
    for i in range(n):
        selector[i] = 0
        group = groups[roots[i]]
        matched = group[group.index(i) + 1:]
        close = set(name_rows.similar(names[i], i + 1))
        close.update(email_rows.similar(emails[i], i + 1))
        undecided = sorted(close.difference(matched))
        for j in matched + undecided:
            selector[j] = 0
        differ = list(compress(ids, selector))
        for j in matched + undecided:
            selector[j] = 1
        yield (ids[i], [ids[j] for j in matched], differ,
               [ids[j] for j in undecided])


def triage(aliases: list[Alias],
           differ_cutoff: float = DEFAULT_DIFFER_CUTOFF) -> TriageResult:
    """Every pair of :func:`triage_rows`, held: obvious matches, obvious
    non-matches and the rest, each written ``(id_a, id_b)`` with
    ``id_a < id_b`` and in ascending order. It raises as
    :func:`triage_rows` does."""
    kinds = ([], [], [])
    for id_a, *decided in triage_rows(aliases, differ_cutoff):
        for pairs, ids in zip(kinds, decided):
            pairs += [(id_a, id_b) for id_b in ids]
    return TriageResult(*map(tuple, kinds))
