"""The benchmark's checkers accept the program's outputs and reject
deliberately wrong ones."""

from itertools import combinations

import pytest

import checks
import corpus
from dealias import (Measure, RawAlias, disambiguate, evaluate,
                     prepare_aliases, sweep, triage)
from dealias.clustering import Partition
from dealias.rules import DEFAULT_CONFIG


@pytest.fixture(scope="module")
def labelled():
    raws = corpus.aliases(5, 60)
    aliases = prepare_aliases(RawAlias(f"a{i:04d}", r.name, r.email)
                              for i, r in enumerate(raws))
    truth = {a.id: f"p{r.identity:05d}" for a, r in zip(aliases, raws)}
    return aliases, truth


def _move_one(assign):
    """Move the member of a multi-alias cluster that is not its label into
    another cluster."""
    clusters = checks.clusters_of(assign)
    big = next(m for m in clusters.values() if len(m) > 1)
    moved = max(big)
    target = next(label for label in clusters if label != assign[moved])
    wrong = dict(assign)
    wrong[moved] = target
    return wrong, moved


def test_partition_checks_accept_program_output(labelled):
    aliases, truth = labelled
    assign = disambiguate(aliases).assignment
    ids = [a.id for a in aliases]
    assert checks.check_partition(ids, sorted(assign.items())) == []
    assert checks.check_shared_key(assign, {a.id: a.email for a in aliases},
                                   3, "email") == []
    assert checks.check_same_grouping(
        assign, checks.oracle_assignment(aliases, "gambit",
                                         DEFAULT_CONFIG)) == []
    report = evaluate(Partition(assign), Partition(truth))
    counts = (report.true_positives, report.false_positives,
              report.false_negatives)
    assert checks.pair_counts(assign, truth) == counts


def test_alias_moved_to_another_cluster_is_rejected(labelled):
    aliases, truth = labelled
    assign = disambiguate(aliases).assignment
    wrong, moved = _move_one(assign)
    assert checks.check_same_grouping(
        wrong, checks.oracle_assignment(aliases, "gambit", DEFAULT_CONFIG))
    report = checks.parse_report(
        "tp = {}\nfp = {}\nfn = {}\n".format(*checks.pair_counts(assign,
                                                                 truth)))
    assert checks.check_counts(report, checks.pair_counts(wrong, truth))
    # an alias sharing its email with its old cluster breaks rule 8
    emails = {a.id: a.email for a in aliases}
    emails[moved] = emails[assign[moved]]
    assert checks.check_shared_key(wrong, emails, 3, "email")


def test_partition_label_and_coverage_errors():
    ids = ["a1", "a2", "a3"]
    good = [("a1", "a1"), ("a2", "a1"), ("a3", "a3")]
    assert checks.check_partition(ids, good) == []
    assert checks.check_partition(ids, [("a1", "a2"), ("a2", "a2"),
                                        ("a3", "a3")])
    assert checks.check_partition(ids + ["a4"], good)
    assert checks.check_partition(ids, good + [("a3", "a3")])


def test_wrong_counts_are_rejected():
    report = checks.parse_report("tp = 4\nfp = 1\nfn = 2\n"
                                 "precision = 0.800000\n"
                                 "recall = 0.666667\nf1 = 0.727273\n")
    assert checks.check_counts(report, (4, 1, 2)) == []
    for wrong in ((5, 1, 2), (4, 0, 2), (4, 1, 3)):
        assert checks.check_counts(report, wrong)
    bad_f1 = dict(report, f1=0.75)
    assert checks.check_counts(bad_f1, (4, 1, 2))


@pytest.fixture(scope="module")
def sweep_rows(labelled):
    aliases, truth = labelled
    rows = sweep(aliases, Partition(truth), ["gambit", "simple", "bird"],
                 [Measure.LEVENSHTEIN], [0.5, 0.6, 0.8, 1.0])
    out = []
    for r in rows:
        rep = r.report
        out.append({"method": r.method,
                    "measure": r.measure.value if r.measure else "",
                    "threshold": r.threshold, "tp": rep.true_positives,
                    "fp": rep.false_positives, "fn": rep.false_negatives,
                    "precision": round(rep.precision, 6),
                    "recall": round(rep.recall, 6), "f1": round(rep.f1, 6)})
    return out, checks.pair_counts(truth, truth)[0]


def test_sweep_checker_accepts_program_rows(sweep_rows):
    rows, true_pairs = sweep_rows
    assert checks.check_sweep(rows, true_pairs) == []


def test_sweep_row_out_of_monotone_order_is_rejected(sweep_rows):
    rows, true_pairs = sweep_rows
    gambit = [k for k, r in enumerate(rows) if r["method"] == "gambit"]
    # find two gambit rows whose predicted pair counts differ, swap them
    i, j = next((i, j) for i, j in combinations(gambit, 2)
                if rows[i]["tp"] + rows[i]["fp"] != rows[j]["tp"]
                + rows[j]["fp"])
    swapped = list(rows)
    swapped[i], swapped[j] = rows[j], rows[i]
    assert checks.check_sweep(swapped, true_pairs)
    # same order, but a row's counts no longer fall with the threshold
    lowest = rows[gambit[0]]
    raised = list(rows)
    raised[gambit[-1]] = dict(rows[gambit[-1]], fp=lowest["fp"] + 1,
                              tp=lowest["tp"], fn=lowest["fn"])
    errors = checks.check_sweep(raised, true_pairs)
    assert any("tp + fp rose" in e for e in errors)


def test_sweep_row_with_lost_true_pairs_is_rejected(sweep_rows):
    rows, true_pairs = sweep_rows
    assert checks.check_sweep(rows, true_pairs + 1)


@pytest.fixture(scope="module")
def triage_files(labelled):
    aliases, _ = labelled
    result = triage(aliases)
    files = {"match": list(result.auto_match),
             "differ": list(result.auto_differ),
             "undecided": list(result.undecided)}
    return aliases, files


def test_triage_checker_accepts_program_files(triage_files):
    aliases, files = triage_files
    ids = [a.id for a in aliases]
    assert checks.check_triage(ids, files,
                               checks.identical_key_pairs(aliases)) == []
    by_id = {a.id: a for a in aliases}
    for kind in ("differ", "undecided"):
        assert checks.check_triage_sample(kind, files[kind], by_id, 0.5) == []


@pytest.mark.parametrize("kind", ["match", "differ", "undecided"])
def test_dropped_or_duplicated_triage_row_is_rejected(triage_files, kind):
    aliases, files = triage_files
    ids = [a.id for a in aliases]
    expected = checks.identical_key_pairs(aliases)
    dropped = dict(files, **{kind: files[kind][1:]})
    assert checks.check_triage(ids, dropped, expected)
    duplicated = dict(files, **{kind: files[kind] + files[kind][:1]})
    assert checks.check_triage(ids, duplicated, expected)
    reversed_pair = dict(files, **{kind: [files[kind][0][::-1]]
                                   + files[kind][1:]})
    assert checks.check_triage(ids, reversed_pair, expected)


def test_triage_row_in_the_wrong_file_is_rejected(triage_files):
    aliases, files = triage_files
    by_id = {a.id: a for a in aliases}
    assert checks.check_triage_sample("differ", files["undecided"][:5],
                                      by_id, 0.5)
    assert checks.check_triage_sample("undecided", files["differ"][:5],
                                      by_id, 0.5)


def test_matrix_similarity_agrees_on_small_cases():
    assert checks.matrix_similarity("", "") == 1.0
    assert checks.matrix_similarity("kitten", "sitting") == 1 - 3 / 7
    assert checks.matrix_similarity("abc", "") == 0.0
