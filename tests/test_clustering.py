import os
import random
import subprocess
import sys
from dataclasses import replace
from itertools import combinations, permutations
from math import inf
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dealias import clustering
from dealias.clustering import (METHODS, Partition, _closures, _DisjointSet,
                                disambiguate, matched_pairs, pair_score,
                                scored_pairs)
from dealias.errors import DuplicateAliasIdError
from dealias.normalize import Alias
from dealias.rules import MatcherConfig, score_pair, top_two_average
from dealias.similarity import Measure
from oracles import all_pairs_matches, closure_components, reference_match
from synth import (alias_lists, copied_alias_lists, gate_edge_cases,
                   make_alias, mixed_corpus, random_corpus)


def test_partition_canonical_labels():
    p = Partition({"a3": "x", "a1": "x", "a2": "y"})
    assert p.assignment == {"a1": "a1", "a3": "a1", "a2": "a2"}
    assert p.clusters() == {"a1": ["a1", "a3"], "a2": ["a2"]}
    assert p.author_count() == 2
    assert len(p) == 3


def test_partition_equality_ignores_input_labels():
    p1 = Partition({"a": "group1", "b": "group1", "c": "other"})
    p2 = Partition({"a": "zzz", "b": "zzz", "c": "qqq"})
    assert p1 == p2
    p3 = Partition({"a": "x", "b": "y", "c": "z"})
    assert p1 != p3


def test_partition_universe():
    p = Partition({"a": "x", "b": "x"})
    assert p.universe() == frozenset({"a", "b"})


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 30), st.lists(st.tuples(st.integers(0, 29),
                                              st.integers(0, 29)),
                                    max_size=40))
def test_disjoint_set_agrees_with_reachability_oracle(n, raw_edges):
    edges = [(a % n, b % n) for a, b in raw_edges]
    dsu = _DisjointSet(n)
    for a, b in edges:
        dsu.union(a, b)
    labels = closure_components(n, edges)
    # same grouping: roots agree exactly when oracle labels agree
    for i in range(n):
        for j in range(n):
            assert (dsu.find(i) == dsu.find(j)) == (labels[i] == labels[j])


# few values, so that edges tie and scores equal a threshold; +inf is a
# simple match
_walk_values = [0.0, 0.25, 0.5, 0.75, 1.0]
_walk_graphs = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.sampled_from(_walk_values + [1.5, inf]),
                                   st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=16)))


def _closure_at(n, ids, edges, t):
    component = closure_components(n, [(i, j) for s, i, j in edges
                                       if s >= t])
    return Partition({ids[k]: ids[component[k]] for k in range(n)})


@settings(max_examples=300, deadline=None)
@given(st.data(), _walk_graphs,
       st.lists(st.one_of(st.sampled_from(_walk_values), st.floats(0.0, 1.0)),
                min_size=1, max_size=5))
def test_closures_walk_equals_closure_of_the_edges_at_each_threshold(
        data, graph, thresholds):
    n, edges = graph
    ids = [f"a{k}" for k in range(n)]
    # highest score first, equal scores in any order
    walked = sorted(data.draw(st.permutations(edges)), key=itemgetter(0),
                    reverse=True)
    descending = sorted(thresholds, reverse=True)
    assert list(_closures(ids, walked, descending)) == [
        _closure_at(n, ids, edges, t) for t in descending]
    # one threshold that every edge reaches: the edges of disambiguate,
    # taken in the order they come
    t = min([s for s, _, _ in edges] + descending[-1:])
    assert list(_closures(ids, data.draw(st.permutations(edges)), [t])) == [
        _closure_at(n, ids, edges, t)]


def test_transitive_closure_groups_unlinked_pair():
    # a-b share an email, b-c share a name; a-c alone is below threshold
    from dealias.rules import is_match, score_pair
    a = make_alias("x1", "grace hopper", "ghopper@navy mil")
    b = make_alias("x2", "g hopper", "ghopper@navy mil")
    c = make_alias("x3", "g hopper", "")
    cfg = MatcherConfig()
    assert not is_match(score_pair(a, c, cfg), cfg)
    p = disambiguate([a, b, c], "gambit", cfg)
    assert p.author_count() == 1


def test_disambiguate_rejects_duplicate_ids():
    a = make_alias("same", "john doe", "")
    b = make_alias("same", "mary major", "")
    with pytest.raises(DuplicateAliasIdError):
        disambiguate([a, b])


def test_disambiguate_empty_and_single():
    assert len(disambiguate([])) == 0
    p = disambiguate([make_alias("only", "john doe", "")])
    assert p.assignment == {"only": "only"}


def test_matched_pairs_rejects_unknown_method():
    aliases = [make_alias("a", "x y", ""), make_alias("b", "x y", "")]
    with pytest.raises(ValueError):
        matched_pairs(aliases, "fancy")


def test_scan_equals_oracle_for_one_and_two_workers(monkeypatch):
    # the scan, in this process and split across worker processes, must
    # decide every pair exactly as the all-pairs oracle
    monkeypatch.setattr(clustering, "_WORKERS_MIN_ALIASES", 2)
    corpora = {"random": random_corpus(seed=7, n=120),
               "mixed": mixed_corpus(seed=7, n=120)}
    for name, aliases in corpora.items():
        for measure in Measure:
            for t in (0.5, 0.75, 0.95, 1.0):
                cfg = MatcherConfig(threshold=t, measure=measure)
                for method in METHODS:
                    expected = all_pairs_matches(aliases, method, cfg)
                    for workers in (1, 2):
                        got = matched_pairs(aliases, method, cfg,
                                            workers=workers)
                        assert got == expected, (name, workers, method,
                                                 measure, t)


def test_back_to_back_scans_share_no_memo(monkeypatch):
    # each scan memoises name-part similarities; a memo keyed on the strings
    # alone, one that holds the min_len gate, or one that outlives its scan
    # would carry one scan's values into the next
    monkeypatch.setattr(clustering, "_WORKERS_MIN_ALIASES", 2)
    # first names under the default length gate: rule 2 carries these pairs
    # at min_len 1 and scores 0 at min_len 3
    aliases = mixed_corpus(seed=3, n=60) + [
        make_alias("s1", "al smith", "asm@x.org"),
        make_alias("s2", "al smyth", "qq@y.org"),
        make_alias("s3", "jo brand", "jb@x.org"),
        make_alias("s4", "jo brandt", "zz@y.org")]
    lev, jw = Measure.LEVENSHTEIN, Measure.JARO_WINKLER
    expected = {}
    for workers in (1, 2):
        for method in ("gambit", "bird"):
            for first, second in [((lev, 3), (jw, 3)), ((jw, 3), (lev, 3)),
                                  ((lev, 1), (lev, 3)), ((jw, 1), (jw, 3))]:
                for measure, min_len in (first, second):
                    cfg = MatcherConfig(threshold=0.75, measure=measure,
                                        min_len=min_len)
                    if (method, cfg) not in expected:
                        expected[method, cfg] = all_pairs_matches(
                            aliases, method, cfg)
                    got = [(i, j) for _, i, j in
                           scored_pairs(aliases, method, cfg, workers)]
                    assert got == expected[method, cfg], (
                        workers, method, measure, min_len)


@settings(max_examples=200, deadline=None)
@given(alias_lists(), st.floats(0.5, 1.0), st.sampled_from(METHODS),
       st.integers(1, 4))
# swapped name order, nothing else shared: only rules 3 and 4 fire
@example([make_alias("a", "abc abcd", ""), make_alias("b", "abcd abc", "")],
         0.95, "gambit", 1)
# identical email whose base is below the length gate: only rule 8 fires
@example([make_alias("a", "ab", "ab@x"), make_alias("b", "cd", "ab@x")],
         0.95, "gambit", 3)
# one substitution in ten letters: similarity exactly at the threshold
@example([make_alias("a", "abcdabcdab", ""),
          make_alias("b", "abcdabcdaa", "")], 0.9, "bird", 3)
# a name too long to index against a shorter similar one
@example([make_alias("a", "abcd" * 7, ""),
          make_alias("b", "abcd" * 6 + "ab", "")], 0.9, "bird", 3)
# gambit matches resting on exactly two rules below weight 2, each found
# by its own join: a's needles "acdd" and "abc" in b's base (rules 5, 6)
@example([make_alias("a", "ab cdd", ""), make_alias("b", "", "acddabc@x")],
         0.95, "gambit", 3)
# identical first names, a's last name is b's penultimate, identical email
# bases under different domains (rules 2, 9)
@example([make_alias("a", "abcd ccc dddd", "bcda@x"),
          make_alias("b", "abcd dddd eeee", "bcda@y z")], 0.95, "gambit", 3)
# names one letter apart, first names too far apart for rule 2, identical
# email bases (rules 0, 9)
@example([make_alias("a", "abcde fghijklmnopq", "qrstu@x"),
          make_alias("b", "abcdx fghijklmnopq", "qrstu@y z")],
         0.95, "gambit", 3)
# identical names with a first name below the length gate and different
# emails (rules 0, 1)
@example([make_alias("a", "ab cdefg", "ghij@x"),
          make_alias("b", "ab cdefg", "klmn@y z")], 0.95, "gambit", 3)
def test_blocked_scan_equals_all_pairs_at_any_threshold(aliases, t, method,
                                                        min_len):
    cfg = MatcherConfig(threshold=t, min_len=min_len)
    assert (matched_pairs(aliases, method, cfg)
            == all_pairs_matches(aliases, method, cfg))


@settings(max_examples=200, deadline=None)
@given(gate_edge_cases(max_copies=0), st.floats(0.0, 1.0),
       st.sampled_from(METHODS), st.sampled_from(list(Measure)))
def test_blocked_scan_equals_all_pairs_at_the_gate_edge(case, t, method,
                                                        measure):
    aliases, min_len = case
    cfg = MatcherConfig(threshold=t, measure=measure, min_len=min_len)
    assert (matched_pairs(aliases, method, cfg)
            == all_pairs_matches(aliases, method, cfg))


_below_gate = make_alias("a00", "ab", "a@x")
_contained = [make_alias("a00", "abc dddd", ""),
              make_alias("a01", "", "adddd@x")]
# hand-built: one name below the length gate, name parts that disagree
_inconsistent = [Alias("a00", "ab", "", "abcd", "abcd", "efgh", ""),
                 Alias("a01", "ab", "", "zz", "zz", "zz", ""),
                 make_alias("a02", "", "aefgh@x")]
_one_token_copy = [make_alias("a1", "al", ""), make_alias("a2", "al", ""),
                   make_alias("a3", "alan", "alan@x org")]


@settings(max_examples=300, deadline=None)
@given(copied_alias_lists(), st.sampled_from(METHODS),
       st.sampled_from(list(Measure)), st.floats(0.0, 1.0),
       st.integers(1, 4))
# a record whose name and email are both below the length gate: its copy
# joins it when every pair matches, and stays apart above 0
@example([_below_gate, replace(_below_gate, id="c0")], "gambit",
         Measure.LEVENSHTEIN, 0.0, 4)
@example([_below_gate, replace(_below_gate, id="c0")], "gambit",
         Measure.LEVENSHTEIN, 0.5, 4)
# copies of an alias that matches a third only through a containment rule:
# a00's "adddd" in a01's email base (rule 5)
@example(_contained + [replace(_contained[1], id=f"c{k}") for k in range(2)],
         "gambit", Measure.JARO_WINKLER, 0.5, 3)
@example(_contained + [replace(_contained[1], id=f"c{k}") for k in range(2)],
         "bird", Measure.LEVENSHTEIN, 1.0, 3)
# equal names and emails, other name parts: not a copy (a00 matches a02
# through rule 5, a01 matches nothing)
@example(_inconsistent, "gambit", Measure.LEVENSHTEIN, 0.5, 3)
# one-token names below the gate that match through a needle one letter
# longer, found in the other's email base, and so do their copies, though
# they score 0 against themselves: "al" of the file a1,Al, / a2,Al, /
# a3,Alan,alan@x.org at the defaults (needle "ala"), "abc" at min_len 4
# (needle "abca") and "c" at min_len 2 (needle "cc")
@example(_one_token_copy, "bird", Measure.LEVENSHTEIN, 0.95, 3)
@example(_one_token_copy, "gambit", Measure.LEVENSHTEIN, 0.95, 3)
@example([make_alias("a00", "abc", ""), make_alias("a01", "", "abcab@x"),
          make_alias("c0", "abc", "")], "gambit", Measure.LEVENSHTEIN, 0.5, 4)
@example([make_alias("a00", "c", ""), make_alias("a01", "", "cc@x"),
          make_alias("c0", "c", "")], "bird", Measure.JARO_WINKLER, 1.0, 2)
def test_disambiguate_equals_closure_of_all_pairs_with_copies(
        aliases, method, measure, t, min_len):
    _assert_disambiguate_is_closure(aliases, method, measure, t, min_len)


@settings(max_examples=300, deadline=None)
@given(gate_edge_cases(), st.sampled_from(METHODS),
       st.sampled_from(list(Measure)), st.floats(0.0, 1.0))
def test_disambiguate_equals_closure_of_all_pairs_at_the_gate_edge(
        case, method, measure, t):
    aliases, min_len = case
    _assert_disambiguate_is_closure(aliases, method, measure, t, min_len)


def _assert_disambiguate_is_closure(aliases, method, measure, t, min_len):
    # a copy of a record that matches itself at every threshold is joined
    # to it without a scan, and every other copy is scanned as an alias of
    # its own; the result must still be the closure of every pair's decision
    cfg = MatcherConfig(threshold=t, measure=measure, min_len=min_len)
    component = closure_components(len(aliases),
                                   all_pairs_matches(aliases, method, cfg))
    expected = Partition({a.id: component[k] for k, a in enumerate(aliases)})
    assert disambiguate(aliases, method, cfg) == expected


def test_copies_are_scanned_once(monkeypatch):
    # cleaning drops the digits of "Person k <pk@example.org>": 2,000 equal
    # records are one scan of one alias, not 1,999,000 matched pairs. "al"
    # with no email has no key past the length gate and does not match
    # itself, so its copies are scanned, each as an alias of its own
    aliases = [make_alias(f"a{k:04d}", "person", "p@example org")
               for k in range(2000)]
    short = [make_alias(f"a{k}", "al", "") for k in range(3)] + [
        make_alias("b", "alan", "alan@x org")]
    calls = []
    scan = clustering.matched_pairs

    def counted(scanned, *args):
        calls.append(len(scanned))
        return scan(scanned, *args)

    monkeypatch.setattr(clustering, "matched_pairs", counted)
    assert disambiguate(aliases).author_count() == 1
    assert disambiguate(short).author_count() == 4
    assert calls == [1, 4]


@settings(max_examples=300, deadline=None)
@given(alias_lists(max_size=6), st.sampled_from(METHODS),
       st.sampled_from(list(Measure)), st.floats(0.0, 1.0),
       st.integers(1, 4))
# a match of a one-token name that does not match itself: rule 6's needle
# "abca" in the base "abcab", and "cc" in "cc"
@example([make_alias("a", "abc", ""), make_alias("b", "", "abcab@x")],
         "gambit", Measure.LEVENSHTEIN, 0.5, 4)
@example([make_alias("a", "c", ""), make_alias("b", "", "cc@x")],
         "bird", Measure.LEVENSHTEIN, 0.5, 2)
def test_pair_score_reaches_threshold_exactly_when_reference_matches(
        aliases, method, measure, t, min_len):
    # the score is taken at one threshold and compared with the reference
    # decision at t and at the score itself, so it must not depend on the
    # threshold and must match at a cut equal to it
    for a, b in combinations(aliases, 2):
        score = pair_score(a, b, method, MatcherConfig(
            threshold=t, measure=measure, min_len=min_len))
        for cut in (t, score):
            if not 0.0 <= cut <= 1.0:
                continue  # +-inf for simple and bird, up to 2 for gambit
            cfg = MatcherConfig(threshold=cut, measure=measure,
                                min_len=min_len)
            assert (score >= cut) == reference_match(a, b, method, cfg), (
                a, b, method, measure, cut, score)
        # the copy join rests on this: a copy of a, equal to it in every
        # field but the id, scores as a does against b, at either end of
        # the pair, so it shares a's cluster when a matches anything
        copy = replace(a, id=f"{a.id}'")
        for x, y in ((copy, b), (b, copy)):
            assert pair_score(x, y, method, MatcherConfig(
                threshold=t, measure=measure, min_len=min_len)) == score, (
                a, b, method, measure)


@settings(max_examples=300, deadline=None)
@given(alias_lists(max_size=6), st.sampled_from(list(Measure)),
       st.integers(1, 4))
# identical emails and names inside the other base: the exact rules alone
# fix the top two (2 and 2)
@example([make_alias("a", "abc abcd", "abcabcd@x"),
          make_alias("b", "abc abcd", "abcabcd@x")], Measure.LEVENSHTEIN, 3)
# one exact rule of weight 2 and graded rules up to 1 (1.5)
@example([make_alias("a", "abcd abcd", "dcba@x"),
          make_alias("b", "abcd abcc", "dcba@x")], Measure.JARO_WINKLER, 3)
def test_gambit_pair_score_is_the_top_two_average_of_the_rules(
        aliases, measure, min_len):
    # the scan's gambit score skips the graded rules when the exact ones
    # fix the top two; it must still be the very same float
    cfg = MatcherConfig(measure=measure, min_len=min_len)
    for a, b in permutations(aliases, 2):
        assert (pair_score(a, b, "gambit", cfg)
                == top_two_average(score_pair(a, b, cfg))), (a, b)


def test_workers_do_not_change_result():
    aliases = random_corpus(seed=11, n=600)
    cfg = MatcherConfig()
    base = matched_pairs(aliases, "gambit", cfg, workers=1)
    multi = matched_pairs(aliases, "gambit", cfg, workers=3)
    assert base == multi
    p1 = disambiguate(aliases, "gambit", cfg, workers=1)
    p4 = disambiguate(aliases, "gambit", cfg, workers=4)
    assert p1 == p4


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_1_raise(workers):
    # no silent one-worker fallback, in the words MatcherConfig uses
    aliases = random_corpus(seed=11, n=10)
    for method in METHODS:
        with pytest.raises(ValueError,
                           match=f"workers must be >= 1, got {workers}"):
            scored_pairs(aliases, method, MatcherConfig(), workers)


class _InProcessPool:
    """Stands in for a process pool: records its size, maps in this
    process."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def starmap(self, func, items):
        return [func(*item) for item in items]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_worker_pool_is_bounded_and_starts_without_fork(monkeypatch):
    import multiprocessing
    aliases = random_corpus(seed=11, n=40)
    cfg = MatcherConfig()
    expected = all_pairs_matches(aliases, "gambit", cfg)
    monkeypatch.setattr(clustering, "_WORKERS_MIN_ALIASES", 2)
    monkeypatch.setattr(multiprocessing, "Pool", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    # no more processes than asked for, than cores, or than rows
    for workers, cores, n, size in [(100_000, 8, 40, 8), (100_000, 8, 5, 4),
                                    (3, 8, 40, 3)]:
        monkeypatch.setattr(clustering.os, "cpu_count", lambda: cores)
        got = matched_pairs(aliases[:n], "gambit", cfg, workers=workers)
        assert got == all_pairs_matches(aliases[:n], "gambit", cfg)
        assert _InProcessPool.sizes[-1] == size
    # an unknown core count counts as one core: no pool
    monkeypatch.setattr(clustering.os, "cpu_count", lambda: None)
    assert matched_pairs(aliases, "gambit", cfg, workers=100_000) == expected
    # with only spawn available, the pool still starts
    monkeypatch.setattr(clustering.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert matched_pairs(aliases, "gambit", cfg, workers=4) == expected
    assert _InProcessPool.sizes == [8, 4, 3, 4]


# lowers the pool's size floor, counts the pools that start and forces two
# cores, then prints whether two workers scan as one process and the oracle
_POOL_SCRIPT = """
import multiprocessing, os, sys
multiprocessing.set_start_method(sys.argv[1])
from dealias import clustering
from dealias.rules import MatcherConfig
from dealias.similarity import Measure
from oracles import all_pairs_matches
from synth import mixed_corpus
clustering._WORKERS_MIN_ALIASES = 2
os.cpu_count = lambda: 2
started = []
pool = multiprocessing.Pool
multiprocessing.Pool = lambda *a, **k: started.append(a) or pool(*a, **k)
aliases = mixed_corpus(seed=5, n=40)
cfg = MatcherConfig(threshold=0.75, measure=Measure.JARO_WINKLER)
assert clustering.candidate_partners(aliases, "gambit", cfg) is None
one = clustering.matched_pairs(aliases, "gambit", cfg, workers=1)
two = clustering.matched_pairs(aliases, "gambit", cfg, workers=2)
print(len(started), len(one) > 0, one == two,
      two == all_pairs_matches(aliases, "gambit", cfg))
"""


@pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
def test_worker_pool_scans_as_one_process_under_start_method(start_method):
    import multiprocessing
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} is not available here")
    paths = [Path(clustering.__file__).parents[1], Path(__file__).parent]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(str(p) for p in paths)}
    proc = subprocess.run([sys.executable, "-c", _POOL_SCRIPT, start_method],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True", "True", "True"]


_two_labellings = st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from("abc"), min_size=n, max_size=n),
    st.lists(st.sampled_from("xy"), min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(_two_labellings)
def test_union_equal_on_two_labellings_equals_closure_of_same_label_links(
        labellings):
    labels1, labels2 = labellings
    # "" is a valid id, and the smallest: it names every cluster it is in
    ids = [str(k) if k else "" for k in range(len(labels1))]
    dsu = _DisjointSet(len(ids))
    for labels in (labels1, labels2):
        dsu.union_equal(labels)
    links = [(i, j) for i, j in combinations(range(len(ids)), 2)
             if labels1[i] == labels1[j] or labels2[i] == labels2[j]]
    component = closure_components(len(ids), links)
    expected = Partition({ids[k]: component[k] for k in range(len(ids))})
    assert dsu.partition(ids) == expected


def test_methods_tuple_stable():
    assert METHODS == ("gambit", "simple", "bird")
