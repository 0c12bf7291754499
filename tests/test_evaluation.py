import io
import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dealias import clustering, evaluation
from dealias.clustering import METHODS, Partition, disambiguate
from dealias.errors import DuplicateAliasIdError, UniverseMismatchError
from dealias.evaluation import (EvalReport, SWEEP_HEADER, cohen_kappa,
                                evaluate, sweep, triage, triage_rows,
                                write_sweep_csv)
from dealias.rules import MatcherConfig
from dealias.similarity import Measure
from dealias.storage import write_triage
from oracles import (brute_force_counts, lev_similarity_matrix,
                     triage_reference)
from synth import (alias_lists, copied_alias_lists, gate_edge_cases,
                   make_alias, random_corpus, random_token)


def partition_of(groups):
    return Partition({alias: k for k, members in enumerate(groups)
                      for alias in members})


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


def test_triage_rejects_duplicate_ids():
    a = make_alias("x", "john doe", "jdoe@work com")
    b = make_alias("x", "jane roe", "jroe@home org")
    with pytest.raises(DuplicateAliasIdError):
        triage([a, b])


def test_triage_rejects_cutoff_out_of_range():
    # 0 and 1 themselves are allowed: test_triage_equals_reference runs them
    aliases = [make_alias("a", "ann lee", "ann@x org"),
               make_alias("b", "bob roe", "bob@y org")]
    for cutoff in (float("nan"), -1.0, -1e-9, 1.0000001, 7.0):
        with pytest.raises(ValueError, match="differ cutoff out of range"):
            triage(aliases, differ_cutoff=cutoff)


def test_triage_rows_check_their_input_before_the_first_row():
    aliases = [make_alias("b", "bob roe", "bob@y org"),
               make_alias("a", "ann lee", "ann@x org")]
    # raised by the call itself, not by the first next()
    with pytest.raises(ValueError, match="differ cutoff out of range"):
        triage_rows(aliases, differ_cutoff=2.0)
    with pytest.raises(DuplicateAliasIdError):
        triage_rows(aliases + aliases[:1])
    # csv.writer leaves a lone "\r" unquoted, so the row would not read back
    with pytest.raises(ValueError, match=r"'q\\r4' holds a carriage return"):
        triage_rows([make_alias("q\r4", "ann lee", "ann@x org"),
                     make_alias("q5", "ann lee", "ann@x org")])
    assert list(triage_rows(aliases)) == [("a", [], [], ["b"]),
                                          ("b", [], [], [])]


def test_streaming_triage_holds_one_row_not_every_pair(tmp_path):
    # 499,500 pairs: held as id tuples they take about 30 MB; streamed,
    # only one alias's three lists and the packed rows are alive at a time
    rng = random.Random(7)
    aliases = [make_alias(f"a{k:04d}", random_token(rng, 1, 5),
                          random_token(rng, 1, 5) + "@x")
               for k in range(1000)]
    tracemalloc.start()
    try:
        counts = write_triage(triage_rows(aliases), tmp_path / "t")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts) == 1000 * 999 // 2
    assert peak < 4 << 20


def _exact_similarities(aliases):
    """Every similarity a pair of the aliases has, on names and emails."""
    values = set()
    for i, a in enumerate(aliases):
        for b in aliases[i + 1:]:
            values.add(lev_similarity_matrix(a.name, b.name))
            values.add(lev_similarity_matrix(a.email, b.email))
    return sorted(values)


@settings(max_examples=100, deadline=None)
@given(alias_lists(min_size=0, max_size=12), st.data())
def test_triage_equals_reference(aliases, data):
    # ids in no particular order, so the output order comes from sorting
    ids = data.draw(st.lists(st.text(alphabet="aB9\u00e9_", min_size=1,
                                     max_size=3),
                             min_size=len(aliases), max_size=len(aliases),
                             unique=True))
    aliases = [replace(a, id=i) for a, i in zip(aliases, ids)]
    cutoff = data.draw(st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from(_exact_similarities(aliases) or [0.5])))
    result = triage(aliases, differ_cutoff=cutoff)
    match, differ, undecided = triage_reference(aliases, cutoff)
    assert list(result.auto_match) == match
    assert list(result.auto_differ) == differ
    assert list(result.undecided) == undecided


def test_sweep_rows_and_csv():
    aliases = random_corpus(seed=5, n=30)
    truth = Partition({a.id: a.id for a in aliases})
    rows = sweep(aliases, truth, methods=("gambit", "simple", "bird"),
                 measures=(Measure.LEVENSHTEIN, Measure.JARO_WINKLER),
                 thresholds=(0.9, 0.95))
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
    rows = sweep(aliases, truth, thresholds=(0.95, 0.5, 0.95))
    assert [r.threshold for r in rows] == [0.5, 0.95]
    with pytest.raises(ValueError):
        sweep(aliases, truth, thresholds=(1.5,))
    with pytest.raises(ValueError):
        sweep(aliases, truth, thresholds=())


def test_sweep_checks_every_method_before_a_scan():
    aliases = random_corpus(seed=5, n=10)
    truth = Partition({a.id: a.id for a in aliases})
    with mock.patch("dealias.evaluation.scored_pairs") as scan, \
            mock.patch("dealias.evaluation.disambiguate") as simple:
        with pytest.raises(ValueError, match="unknown method 'nope'"):
            sweep(aliases, truth, methods=("gambit", "nope"))
        with pytest.raises(ValueError, match="no methods"):
            sweep(aliases, truth, methods=())
        with pytest.raises(ValueError, match="no measures"):
            sweep(aliases, truth, methods=("simple", "bird"), measures=())
        # a truth that lacks two of the aliases' ids, then one with an id
        # of no alias: there is no predicted file, so sweep must say so
        lacking = Partition({a.id: a.id for a in aliases[2:]})
        with pytest.raises(UniverseMismatchError, match="2 are only in the "
                           "aliases, 0 only in the truth"):
            sweep(aliases, lacking)
        extra = Partition({**truth.assignment, "nobody": "nobody"})
        with pytest.raises(UniverseMismatchError, match="0 are only in the "
                           "aliases, 1 only in the truth"):
            sweep(aliases, extra, methods=("simple", "gambit"))
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            sweep(aliases, truth, methods=("simple", "gambit"), workers=0)
    scan.assert_not_called()
    simple.assert_not_called()


def test_sweep_scans_each_distinct_method_and_measure_once():
    aliases = random_corpus(seed=5, n=10)
    truth = Partition({a.id: a.id for a in aliases})
    with mock.patch("dealias.evaluation.scored_pairs",
                    return_value=[]) as scan:
        rows = sweep(aliases, truth, methods=("gambit", "bird", "gambit"),
                     measures=(Measure.JARO_WINKLER, Measure.LEVENSHTEIN,
                               Measure.JARO_WINKLER),
                     thresholds=(0.9,))
    assert [(call.args[1], call.args[2].measure)
            for call in scan.call_args_list] == [
        ("gambit", Measure.JARO_WINKLER), ("gambit", Measure.LEVENSHTEIN),
        ("bird", Measure.JARO_WINKLER), ("bird", Measure.LEVENSHTEIN)]
    assert [(r.method, r.measure) for r in rows] == [
        (call.args[1], call.args[2].measure) for call in scan.call_args_list]


def test_sweep_scans_copies_once(monkeypatch):
    # 2,000 equal records: one scan of one alias, and every row joins them.
    # Copies of "al" with no email, which does not match itself, are each
    # scanned; rule 6's "ala" in "alan" joins them to alan at 0.5 only
    aliases = [make_alias(f"a{k:04d}", "person", "p@example org")
               for k in range(2000)]
    short = [make_alias(f"a{k}", "al", "") for k in range(3)] + [
        make_alias("b", "alan", "alan@x org")]
    calls = []
    scan = evaluation.scored_pairs

    def counted(scanned, *args):
        calls.append(len(scanned))
        return scan(scanned, *args)

    monkeypatch.setattr(evaluation, "scored_pairs", counted)
    rows = sweep(aliases, Partition({a.id: "p" for a in aliases}),
                 thresholds=(0.5, 0.95))
    assert [r.report for r in rows] == [EvalReport(1999000, 0, 0)] * 2
    rows = sweep(short, Partition({a.id: "p" for a in short}),
                 thresholds=(0.5, 0.95))
    assert [r.report for r in rows] == [EvalReport(6, 0, 0),
                                        EvalReport(0, 0, 6)]
    assert calls == [1, 4]


def _reference_sweep(aliases, truth, measures, thresholds, min_len):
    """One disambiguation and evaluation per row, every method."""
    rows = []
    for method in METHODS:
        if method == "simple":
            part = disambiguate(aliases, method, MatcherConfig(min_len=min_len))
            rows.append((method, None, None, evaluate(part, truth)))
            continue
        for measure in measures:
            for t in sorted(set(thresholds)):
                cfg = MatcherConfig(threshold=t, measure=measure,
                                    min_len=min_len)
                part = disambiguate(aliases, method, cfg)
                rows.append((method, measure, t, evaluate(part, truth)))
    return rows


_grid_values = st.sampled_from([0.5, 0.75, 0.8, 0.9, 0.95, 1.0])


@settings(max_examples=100, deadline=None)
@given(st.data(), copied_alias_lists(max_size=16),
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
    _assert_sweep_is_one_disambiguation_per_row(data, aliases, thresholds,
                                                min_len, workers)


@settings(max_examples=100, deadline=None)
@given(st.data(), gate_edge_cases(),
       st.lists(st.one_of(_grid_values, st.floats(0.0, 1.0)), min_size=1,
                max_size=5))
def test_sweep_rows_equal_one_disambiguation_per_row_at_the_gate_edge(
        data, case, thresholds):
    aliases, min_len = case
    _assert_sweep_is_one_disambiguation_per_row(data, aliases, thresholds,
                                                min_len, 1)


def _assert_sweep_is_one_disambiguation_per_row(data, aliases, thresholds,
                                                min_len, workers):
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

