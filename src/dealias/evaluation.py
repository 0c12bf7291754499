"""Scoring predicted groupings against ground truth, threshold sweeps,
inter-rater agreement, and triage of pairs for manual labelling."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .clustering import (ENGINES, Partition, _alias_ids, _DisjointSet,
                         scored_pairs)
# kept in this namespace, where bench/workloads.py wraps it for its trace
from .clustering import disambiguate  # noqa: F401
from .errors import UniverseMismatchError
from .normalize import Alias
from .rules import MatcherConfig
from .similarity import Measure, levenshtein_similarity


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
    if predicted.universe() != truth.universe():
        raise UniverseMismatchError(
            "predicted and truth partitions cover different alias ids")
    pred = predicted.assignment
    cells: dict[tuple[str, str], int] = {}
    for alias_id, true_author in truth.assignment.items():
        key = (pred[alias_id], true_author)
        cells[key] = cells.get(key, 0) + 1
    tp = _pairs_within(cells.values())
    pred_sizes: dict[str, int] = {}
    for author in pred.values():
        pred_sizes[author] = pred_sizes.get(author, 0) + 1
    true_sizes: dict[str, int] = {}
    for author in truth.assignment.values():
        true_sizes[author] = true_sizes.get(author, 0) + 1
    fp = _pairs_within(pred_sizes.values()) - tp
    fn = _pairs_within(true_sizes.values()) - tp
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
          methods: Sequence[str] = ("gambit",),
          measures: Sequence[Measure] = (Measure.LEVENSHTEIN,),
          thresholds: Sequence[float] = (0.95,),
          min_len: int = 3, workers: int = 1,
          engine: str = "auto") -> list[SweepRow]:
    """Score one disambiguation per (method, measure, threshold) against the
    truth. The simple method has no parameters, so it contributes a single
    row. Rows come with methods and measures in the order given and
    thresholds ascending.

    No pair score depends on the threshold, and a pair matches at t exactly
    when its score is >= t. So each (method, measure) is scanned once, at the
    lowest threshold, and every threshold's partition is read from one
    union-find pass over the scored pairs, highest score first. A row's
    ``wall_time_s`` is an even share of its group's scan plus its own
    closure and evaluation, so the rows add up to the sweep's time.

    The scan needs pair scores, which the numba engine does not give:
    ``engine="numba"`` is rejected, and ``"auto"`` runs the pure scan.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "numba":
        raise ValueError("sweep needs pair scores, which the numba engine "
                         "does not give; use --engine auto or python")
    thresholds = sorted(set(thresholds))
    for t in thresholds:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"threshold out of range: {t}")
    if not thresholds:
        raise ValueError("no thresholds given")
    ids = _alias_ids(aliases)

    rows: list[SweepRow] = []
    for method in methods:
        if method == "simple":
            cfg = MatcherConfig(min_len=min_len)
            (row,) = _sweep_group(aliases, ids, truth, method, cfg,
                                  [cfg.threshold], workers)
            rows.append(replace(row, measure=None, threshold=None))
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
    from one scan at ``cfg.threshold``, the lowest of them."""
    start = time.perf_counter()
    scored = scored_pairs(aliases, method, cfg, workers)
    scored.sort(reverse=True)
    scan_share = (time.perf_counter() - start) / len(thresholds)
    dsu = _DisjointSet(len(ids))
    rows = []
    k = 0
    for t in reversed(thresholds):
        start = time.perf_counter()
        while k < len(scored) and scored[k][0] >= t:
            _, i, j = scored[k]
            dsu.union(i, j)
            k += 1
        report = evaluate(dsu.partition(ids), truth)
        rows.append(SweepRow(method, cfg.measure, t, report,
                             scan_share + time.perf_counter() - start))
    rows.reverse()
    return rows


SWEEP_HEADER = ["method", "measure", "threshold", "tp", "fp", "fn",
                "precision", "recall", "f1", "wall_time_ms"]


def write_sweep_csv(rows: list[SweepRow], fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for row in rows:
        r = row.report
        writer.writerow([
            row.method,
            row.measure.value if row.measure is not None else "",
            f"{row.threshold:.10g}" if row.threshold is not None else "",
            r.true_positives, r.false_positives, r.false_negatives,
            f"{r.precision:.6f}", f"{r.recall:.6f}", f"{r.f1:.6f}",
            f"{row.wall_time_s * 1000.0:.1f}",
        ])


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


def triage(aliases: list[Alias], differ_cutoff: float = 0.5) -> TriageResult:
    """Split all pairs into obvious matches, obvious non-matches and the
    rest.

    Pairs whose aliases share an identical non-empty name or email (directly
    or through a chain of such links) are auto-matches. Of the remaining
    pairs, those whose name similarity AND email similarity are both below
    ``differ_cutoff`` are auto-differs; everything else is left undecided
    for a human.
    """
    n = len(aliases)
    dsu = _DisjointSet(n)
    by_name: dict[str, int] = {}
    by_email: dict[str, int] = {}
    for k, alias in enumerate(aliases):
        if alias.name:
            if alias.name in by_name:
                dsu.union(by_name[alias.name], k)
            else:
                by_name[alias.name] = k
        if alias.email:
            if alias.email in by_email:
                dsu.union(by_email[alias.email], k)
            else:
                by_email[alias.email] = k

    auto_match = []
    auto_differ = []
    undecided = []
    for i in range(n):
        a = aliases[i]
        for j in range(i + 1, n):
            b = aliases[j]
            pair = (a.id, b.id) if a.id <= b.id else (b.id, a.id)
            if dsu.find(i) == dsu.find(j):
                auto_match.append(pair)
            elif (levenshtein_similarity(a.name, b.name) < differ_cutoff
                    and levenshtein_similarity(a.email, b.email) < differ_cutoff):
                auto_differ.append(pair)
            else:
                undecided.append(pair)
    return TriageResult(tuple(sorted(auto_match)),
                        tuple(sorted(auto_differ)),
                        tuple(sorted(undecided)))
