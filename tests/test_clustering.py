import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from dealias import clustering, fastscan
from dealias.clustering import (ENGINES, METHODS, Partition, _DisjointSet,
                                disambiguate, matched_pairs, merge_partitions,
                                pair_score)
from dealias.errors import (DealiasError, DuplicateAliasIdError,
                            EmptyClusterError, UniverseMismatchError)
from dealias.rules import MatcherConfig
from dealias.similarity import Measure
from oracles import all_pairs_matches, closure_components, reference_match
from synth import alias_lists, make_alias, mixed_corpus, random_corpus


def test_partition_canonical_labels():
    p = Partition({"a3": "x", "a1": "x", "a2": "y"})
    assert p.assignment == {"a1": "a1", "a3": "a1", "a2": "a2"}
    assert p.author_of("a3") == "a1"
    assert p.same_author("a1", "a3")
    assert not p.same_author("a1", "a2")
    assert p.author_count() == 2
    assert len(p) == 3


def test_partition_equality_ignores_input_labels():
    p1 = Partition({"a": "group1", "b": "group1", "c": "other"})
    p2 = Partition({"a": "zzz", "b": "zzz", "c": "qqq"})
    assert p1 == p2
    p3 = Partition({"a": "x", "b": "y", "c": "z"})
    assert p1 != p3


def test_partition_from_clusters():
    p = Partition.from_clusters([["b", "a"], ["c"]])
    assert p.clusters() == {"a": ["a", "b"], "c": ["c"]}
    with pytest.raises(DuplicateAliasIdError):
        Partition.from_clusters([["a", "b"], ["b"]])


def test_partition_from_clusters_rejects_empty_cluster():
    with pytest.raises(EmptyClusterError, match="position 1 "):
        Partition.from_clusters([["a"], [], ["b"]])
    assert issubclass(EmptyClusterError, DealiasError)


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


def test_transitive_closure_groups_unlinked_pair():
    # a-b share an email, b-c share a name; a-c alone is below threshold
    from dealias.rules import is_match, score_pair
    a = make_alias("x1", "grace hopper", "ghopper@navy mil")
    b = make_alias("x2", "g hopper", "ghopper@navy mil")
    c = make_alias("x3", "g hopper", "")
    cfg = MatcherConfig()
    assert not is_match(score_pair(a, c, cfg), cfg)
    p = disambiguate([a, b, c], "gambit", cfg, engine="python")
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


def test_matched_pairs_rejects_unknown_method_and_engine():
    aliases = [make_alias("a", "x y", ""), make_alias("b", "x y", "")]
    with pytest.raises(ValueError):
        matched_pairs(aliases, "fancy")
    with pytest.raises(ValueError):
        matched_pairs(aliases, "gambit", engine="gpu")


def test_numba_engine_rejects_non_latin1():
    aliases = [make_alias("a", "дмитрий", ""), make_alias("b", "x y", "")]
    cause = ("not latin-1 encodable" if fastscan.available()
             else "numba is not importable")
    with pytest.raises(ValueError, match=cause):
        matched_pairs(aliases, "gambit", engine="numba")
    # auto falls back to the pure scan
    assert matched_pairs(aliases, "gambit", engine="auto") == []


def test_engines_equivalent_on_random_corpus(monkeypatch):
    # every engine that runs here, and the pure scan split across worker
    # processes, must decide every pair exactly as the all-pairs oracle
    engines = [e for e in ENGINES if e != "numba" or fastscan.available()]
    runs = [(engine, 1) for engine in engines] + [("python", 2)]
    monkeypatch.setattr(clustering, "_WORKERS_MIN_ALIASES", 2)
    corpora = {"random": random_corpus(seed=7, n=120),
               "mixed": mixed_corpus(seed=7, n=120)}
    for name, aliases in corpora.items():
        for measure in Measure:
            for t in (0.5, 0.75, 0.95, 1.0):
                cfg = MatcherConfig(threshold=t, measure=measure)
                for method in METHODS:
                    expected = all_pairs_matches(aliases, method, cfg)
                    for engine, workers in runs:
                        got = matched_pairs(aliases, method, cfg,
                                            workers=workers, engine=engine)
                        assert got == expected, (name, engine, workers,
                                                 method, measure, t)


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
def test_blocked_scan_equals_all_pairs_at_any_threshold(aliases, t, method,
                                                        min_len):
    cfg = MatcherConfig(threshold=t, min_len=min_len)
    assert (matched_pairs(aliases, method, cfg, engine="python")
            == all_pairs_matches(aliases, method, cfg))


@settings(max_examples=300, deadline=None)
@given(alias_lists(max_size=6), st.sampled_from(METHODS),
       st.sampled_from(list(Measure)), st.floats(0.0, 1.0),
       st.integers(1, 4))
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


def test_encode_corpus_round_trip_lengths():
    aliases = [make_alias("a", "john doe", "jdoe@work com"),
               make_alias("b", "", "")]
    enc = fastscan.encode_corpus(aliases)
    assert enc is not None and enc.count == 2
    # needle rows exist for a, are absent (-1) for the empty alias
    assert enc.lens[0, 5] == 4 and enc.lens[0, 6] == 5
    assert enc.lens[1, 5] == -1 and enc.lens[1, 6] == -1
    assert fastscan.encode_corpus([make_alias("a", "дмитрий", "")]) is None


def test_workers_do_not_change_result():
    aliases = random_corpus(seed=11, n=600)
    cfg = MatcherConfig()
    base = matched_pairs(aliases, "gambit", cfg, workers=1, engine="python")
    multi = matched_pairs(aliases, "gambit", cfg, workers=3, engine="python")
    assert base == multi
    p1 = disambiguate(aliases, "gambit", cfg, workers=1, engine="python")
    p4 = disambiguate(aliases, "gambit", cfg, workers=4, engine="python")
    assert p1 == p4


def test_merge_partitions():
    p1 = Partition({"a": "1", "b": "1", "c": "2", "d": "3"})
    p2 = Partition({"a": "x", "b": "y", "c": "y", "d": "z"})
    merged = merge_partitions(p1, p2)
    assert merged.clusters() == {"a": ["a", "b", "c"], "d": ["d"]}
    with pytest.raises(UniverseMismatchError):
        merge_partitions(p1, Partition({"a": "1"}))


def test_engines_tuple_stable():
    assert ENGINES == ("auto", "python", "numba")
    assert METHODS == ("gambit", "simple", "bird")
