import io
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dealias import clustering
from dealias.clustering import METHODS, Partition, disambiguate
from dealias.errors import UniverseMismatchError
from dealias.evaluation import (EvalReport, SWEEP_HEADER, cohen_kappa,
                                evaluate, sweep, triage, write_sweep_csv)
from dealias.rules import MatcherConfig
from dealias.similarity import Measure
from oracles import brute_force_counts
from synth import alias_lists, make_alias, random_corpus


def partition_of(groups):
    return Partition.from_clusters(groups)


def test_evaluate_worked_example():
    predicted = partition_of([["A", "B", "C"]])
    truth = partition_of([["A", "B"], ["C"]])
    r = evaluate(predicted, truth)
    assert (r.true_positives, r.false_positives, r.false_negatives) == (1, 2, 0)
    assert r.precision == pytest.approx(1 / 3)
    assert r.recall == 1.0
    assert r.f1 == pytest.approx(0.5)


def test_evaluate_perfect_and_inverse():
    p = partition_of([["a", "b"], ["c", "d"]])
    r = evaluate(p, p)
    assert (r.true_positives, r.false_positives, r.false_negatives) == (2, 0, 0)
    assert r.precision == r.recall == r.f1 == 1.0

    singletons = partition_of([["a"], ["b"], ["c"], ["d"]])
    r = evaluate(singletons, p)
    assert (r.true_positives, r.false_positives, r.false_negatives) == (0, 0, 2)
    assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0


def test_evaluate_zero_denominators_are_zero():
    singletons = partition_of([["a"], ["b"]])
    r = evaluate(singletons, singletons)
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)


def test_evaluate_requires_same_universe():
    with pytest.raises(UniverseMismatchError):
        evaluate(partition_of([["a", "b"]]), partition_of([["a", "c"]]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**9))
def test_evaluate_matches_brute_force(n, seed):
    rng = random.Random(seed)
    ids = [f"a{i}" for i in range(n)]
    predicted = {i: f"p{rng.randrange(1 + n // 2)}" for i in ids}
    truth = {i: f"t{rng.randrange(1 + n // 2)}" for i in ids}
    r = evaluate(Partition(predicted), Partition(truth))
    assert (r.true_positives, r.false_positives, r.false_negatives) == \
        brute_force_counts(predicted, truth)


def test_report_f1_is_harmonic_mean():
    r = EvalReport(true_positives=1, false_positives=2, false_negatives=0)
    p, rec = 1 / 3, 1.0
    assert r.f1 == pytest.approx(2 * p * rec / (p + rec))


def test_cohen_kappa_exact_values():
    # full agreement
    assert cohen_kappa([True, False, True, False],
                       [True, False, True, False]) == 1.0
    # independent raters: observed equals chance
    assert cohen_kappa([True, True, False, False],
                       [True, False, True, False]) == 0.0
    # full disagreement with balanced marginals
    assert cohen_kappa([True, True, False, False],
                       [False, False, True, True]) == -1.0


def test_cohen_kappa_known_hand_value():
    a = [True, True, False, False, True]
    b = [True, False, False, False, True]
    # po = 0.8, pe = 0.6*0.4 + 0.4*0.6 = 0.48 -> kappa = 0.32/0.52
    assert cohen_kappa(a, b) == pytest.approx(8 / 13)


def test_cohen_kappa_constant_equal_raters():
    assert cohen_kappa([True, True], [True, True]) == 1.0
    assert cohen_kappa([False], [False]) == 1.0


def test_cohen_kappa_validation():
    with pytest.raises(ValueError):
        cohen_kappa([True], [True, False])
    with pytest.raises(ValueError):
        cohen_kappa([], [])


def test_triage_partitions_all_pairs():
    aliases = random_corpus(seed=3, n=40)
    result = triage(aliases)
    n = len(aliases)
    all_pairs = {(a.id, b.id) for i, a in enumerate(aliases)
                 for b in aliases[i + 1:]}
    got = (set(result.auto_match) | set(result.auto_differ)
           | set(result.undecided))
    assert got == {tuple(sorted(p)) for p in all_pairs}
    assert len(result.auto_match) + len(result.auto_differ) + \
        len(result.undecided) == n * (n - 1) // 2
    assert not set(result.auto_match) & set(result.auto_differ)
    assert not set(result.auto_match) & set(result.undecided)
    assert not set(result.auto_differ) & set(result.undecided)


def test_triage_auto_match_is_transitive():
    a = make_alias("a", "grace hopper", "one@site com")
    b = make_alias("b", "grace hopper", "two@site com")   # same name as a
    c = make_alias("c", "someone else", "two@site com")   # same email as b
    result = triage([a, b, c])
    assert ("a", "b") in result.auto_match
    assert ("b", "c") in result.auto_match
    assert ("a", "c") in result.auto_match


def test_triage_differ_requires_both_fields_dissimilar():
    a = make_alias("a", "john doe", "jdoe@work com")
    near_name = make_alias("b", "john doex", "zzz@qqq vv")
    both_far = make_alias("c", "wwwwwwww", "mmmmm@nnnn oo")
    result = triage([a, near_name, both_far])
    assert ("a", "b") in result.undecided   # name similarity 8/9 >= 0.5
    assert ("a", "c") in result.auto_differ
    assert ("b", "c") in result.auto_differ


def test_triage_empty_fields_do_not_auto_match():
    a = make_alias("a", "", "")
    b = make_alias("b", "", "")
    result = triage([a, b])
    # both-empty pairs are identical but carry no evidence; they fall to
    # the undecided bucket (similarity of equal strings is 1.0)
    assert ("a", "b") in result.undecided


def test_sweep_rows_and_csv():
    aliases = random_corpus(seed=5, n=30)
    truth = Partition({a.id: a.id for a in aliases})
    rows = sweep(aliases, truth, methods=("gambit", "simple", "bird"),
                 measures=(Measure.LEVENSHTEIN, Measure.JARO_WINKLER),
                 thresholds=(0.9, 0.95), engine="python")
    # gambit and bird: 2 measures x 2 thresholds; simple: 1 row
    assert len(rows) == 4 + 1 + 4
    simple_rows = [r for r in rows if r.method == "simple"]
    assert len(simple_rows) == 1
    assert simple_rows[0].measure is None and simple_rows[0].threshold is None
    assert all(r.wall_time_s >= 0 for r in rows)

    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 1 + len(rows)
    simple_line = [ln for ln in lines if ln.startswith("simple,")][0]
    assert simple_line.split(",")[1] == "" and simple_line.split(",")[2] == ""


def test_sweep_thresholds_sorted_and_validated():
    aliases = random_corpus(seed=5, n=10)
    truth = Partition({a.id: a.id for a in aliases})
    rows = sweep(aliases, truth, thresholds=(0.95, 0.5, 0.95), engine="python")
    assert [r.threshold for r in rows] == [0.5, 0.95]
    with pytest.raises(ValueError):
        sweep(aliases, truth, thresholds=(1.5,))
    with pytest.raises(ValueError):
        sweep(aliases, truth, thresholds=())


def _reference_sweep(aliases, truth, measures, thresholds, min_len):
    """One disambiguation and evaluation per row, every method."""
    rows = []
    for method in METHODS:
        if method == "simple":
            part = disambiguate(aliases, method, MatcherConfig(min_len=min_len),
                                engine="python")
            rows.append((method, None, None, evaluate(part, truth)))
            continue
        for measure in measures:
            for t in sorted(set(thresholds)):
                cfg = MatcherConfig(threshold=t, measure=measure,
                                    min_len=min_len)
                part = disambiguate(aliases, method, cfg, engine="python")
                rows.append((method, measure, t, evaluate(part, truth)))
    return rows


_grid_values = st.sampled_from([0.5, 0.75, 0.8, 0.9, 0.95, 1.0])


@settings(max_examples=100, deadline=None)
@given(st.data(), alias_lists(max_size=16),
       st.one_of(
           # unsorted, with duplicates, anywhere in [0, 1]
           st.lists(st.one_of(_grid_values, st.floats(0.0, 1.0)),
                    min_size=1, max_size=5),
           # entirely above 0.75, where gambit and bird scan through the index
           st.lists(st.one_of(_grid_values.filter(lambda t: t > 0.75),
                              st.floats(0.76, 1.0)),
                    min_size=1, max_size=5)),
       st.integers(1, 4), st.sampled_from([1, 2]))
def test_sweep_rows_equal_one_disambiguation_per_row(data, aliases,
                                                     thresholds, min_len,
                                                     workers):
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(aliases),
                                max_size=len(aliases)))
    truth = Partition({a.id: f"p{k}" for a, k in zip(aliases, labels)})
    measures = list(Measure)
    # let the worker pool run on these small corpora
    with mock.patch.object(clustering, "_WORKERS_MIN_ALIASES", 2):
        rows = sweep(aliases, truth, METHODS, measures, thresholds,
                     min_len=min_len, workers=workers)
    assert ([(r.method, r.measure, r.threshold, r.report) for r in rows]
            == _reference_sweep(aliases, truth, measures, thresholds, min_len))

