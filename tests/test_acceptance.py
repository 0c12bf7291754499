"""Acceptance suite: ten binding criteria, one test (and one printed
PASS/FAIL line) each. Run with ``pytest -s tests/test_acceptance.py -v``
to see the lines."""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from dealias import (MatcherConfig, Measure, cohen_kappa, disambiguate,
                     evaluate, jaro_winkler_similarity, levenshtein_distance,
                     prepare_aliases, read_aliases, read_partition)
from dealias.baselines import bird_match, simple_match
from dealias.clustering import Partition, matched_pairs
from dealias.rules import is_match, score_pair
from oracles import brute_force_counts, lev_distance_matrix
from synth import make_alias, mixed_corpus, random_alias


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d}: FAIL - {label}")
        raise
    print(f"[acceptance] criterion {number:2d}: PASS - {label}")


def test_criterion_01_headline_quality_statement(data_dir):
    """The headline result quality is demonstrated on the bundled corpus.

    The originally reported aggregate (f1 ~ 0.985 on a proprietary
    1,896-pair labelled set) cannot be recomputed here because that corpus
    is not redistributable. The binding check is therefore: with default
    parameters (top-two rule average, levenshtein, threshold 0.95) the
    matcher reproduces the bundled hand-labelled corpus perfectly, and
    strictly outperforms both reference matchers on f1.
    """
    with criterion(1, "default-parameter quality on the labelled corpus"):
        aliases = prepare_aliases(read_aliases(data_dir / "fixture_aliases.csv"))
        truth = read_partition(data_dir / "fixture_truth.csv")
        cfg = MatcherConfig()
        scores = {}
        for method in ("gambit", "simple", "bird"):
            part = disambiguate(aliases, method, cfg)
            scores[method] = evaluate(part, truth).f1
        assert scores["gambit"] == 1.0
        assert scores["gambit"] > scores["simple"]
        assert scores["gambit"] > scores["bird"]


def test_criterion_02_levenshtein_against_oracle():
    with criterion(2, "edit distance equals the reference DP, within 1e-12"):
        start = time.perf_counter()
        strings = [""]
        for k in range(1, 6):
            strings += ["".join(t) for t in itertools.product("abc", repeat=k)]
        # every ordered pair of strings up to length 5 over {a, b, c}
        for s1 in strings:
            for s2 in strings:
                assert abs(levenshtein_distance(s1, s2)
                           - lev_distance_matrix(s1, s2)) <= 1e-12
        rng = random.Random(20260815)
        pool = "abcdefghij"
        for _ in range(1000):
            s1 = "".join(rng.choice(pool)
                         for _ in range(rng.randrange(0, 21)))
            s2 = "".join(rng.choice(pool)
                         for _ in range(rng.randrange(0, 21)))
            assert abs(levenshtein_distance(s1, s2)
                       - lev_distance_matrix(s1, s2)) <= 1e-12
        assert time.perf_counter() - start < 5.0


def test_criterion_03_jaro_winkler_reference_values():
    with criterion(3, "jaro-winkler canonical values"):
        assert jaro_winkler_similarity("martha", "marhta") == pytest.approx(
            0.9611, abs=1e-4)
        assert jaro_winkler_similarity("same", "same") == 1.0
        assert jaro_winkler_similarity("abcd", "wxyz") == 0.0


def test_criterion_04_decision_symmetry():
    with criterion(4, "match decisions are symmetric (10,000 random pairs)"):
        rng = random.Random(99)
        cfg_pool = [MatcherConfig(threshold=t, measure=m)
                    for t in (0.5, 0.75, 0.95, 1.0) for m in Measure]
        violations = 0
        for k in range(10_000):
            a = random_alias(rng, "a")
            b = random_alias(rng, "b")
            cfg = cfg_pool[k % len(cfg_pool)]
            if is_match(score_pair(a, b, cfg), cfg) != \
                    is_match(score_pair(b, a, cfg), cfg):
                violations += 1
            if simple_match(a, b, cfg) != simple_match(b, a, cfg):
                violations += 1
            if bird_match(a, b, cfg) != bird_match(b, a, cfg):
                violations += 1
        assert violations == 0


def test_criterion_05_escape_hatches_match_at_threshold_one():
    with criterion(5, "high-confidence rules carry a match at t = 1.0"):
        cfg = MatcherConfig(threshold=1.0)
        # identical full name, nothing else in common
        a = make_alias("a", "kurt weller", "abc@def ghi")
        b = make_alias("b", "kurt weller", "zzz@qqq www")
        assert is_match(score_pair(a, b, cfg), cfg)
        # identical full email (>= 3 chars), names dissimilar
        c = make_alias("c", "totally other", "ghopper@navy mil")
        d = make_alias("d", "unrelated person", "ghopper@navy mil")
        assert is_match(score_pair(c, d, cfg), cfg)
        # first+last name inside the other email base, all else dissimilar
        e = make_alias("e", "kurt weller", "abc@def ghi")
        f = make_alias("f", "vvvv gggg", "weller kurt@other net")
        assert is_match(score_pair(e, f, cfg), cfg)
        # control: very similar but not identical fields miss at 1.0
        g = make_alias("g", "kurt weller", "abc@def ghi")
        h = make_alias("h", "kurt welles", "qqq@rrr sss")
        assert not is_match(score_pair(g, h, cfg), cfg)


def test_criterion_06_threshold_monotonicity():
    with criterion(6, "higher thresholds only shrink the matched-pair set"):
        aliases = mixed_corpus(seed=13, n=200)
        thresholds = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        previous = None
        for t in thresholds:
            cfg = MatcherConfig(threshold=t)
            pairs = set(matched_pairs(aliases, "gambit", cfg))
            if previous is not None:
                assert pairs.issubset(previous), \
                    f"pairs at t={t} not a subset of the previous level"
            previous = pairs


def test_criterion_07_evaluation_against_brute_force():
    with criterion(7, "pairwise scores equal brute-force enumeration"):
        predicted = Partition({"A": "g", "B": "g", "C": "g"})
        truth = Partition({"A": "u1", "B": "u1", "C": "u2"})
        r = evaluate(predicted, truth)
        assert r.precision == pytest.approx(1 / 3, abs=1e-12)
        assert r.recall == pytest.approx(1.0, abs=1e-12)
        assert r.f1 == pytest.approx(0.5, abs=1e-12)

        rng = random.Random(4242)
        for _ in range(1000):
            n = rng.randrange(1, 9)
            ids = [f"a{i}" for i in range(n)]
            pred = {i: f"p{rng.randrange(1 + n // 2)}" for i in ids}
            tru = {i: f"t{rng.randrange(1 + n // 2)}" for i in ids}
            r = evaluate(Partition(pred), Partition(tru))
            assert (r.true_positives, r.false_positives,
                    r.false_negatives) == brute_force_counts(pred, tru)


def test_criterion_08_labelled_corpus_comparison(data_dir):
    with criterion(8, "perfect f1 on the labelled corpus; references trail"):
        aliases = prepare_aliases(read_aliases(data_dir / "fixture_aliases.csv"))
        truth = read_partition(data_dir / "fixture_truth.csv")
        cfg = MatcherConfig()  # levenshtein, t = 0.95
        reports = {m: evaluate(disambiguate(aliases, m, cfg),
                               truth)
                   for m in ("gambit", "simple", "bird")}
        assert reports["gambit"].f1 == 1.0
        assert reports["simple"].recall < reports["gambit"].recall
        assert reports["bird"].precision < reports["gambit"].precision


def test_criterion_09_scale_and_thread_stability():
    with criterion(9, "2,000 aliases disambiguated in < 60 s; "
                      "thread count does not change the result"):
        aliases = mixed_corpus(seed=20260815, n=2000)
        cfg = MatcherConfig()
        start = time.perf_counter()
        single = disambiguate(aliases, "gambit", cfg, workers=1)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        multi = disambiguate(aliases, "gambit", cfg, workers=4)
        assert single == multi


def test_criterion_10_kappa_exact_values():
    with criterion(10, "agreement statistic hits 1, 0, -1 exactly"):
        assert abs(cohen_kappa([True, False, True, False],
                               [True, False, True, False]) - 1.0) <= 1e-12
        assert abs(cohen_kappa([True, True, False, False],
                               [True, False, True, False]) - 0.0) <= 1e-12
        assert abs(cohen_kappa([True, True, False, False],
                               [False, False, True, True]) + 1.0) <= 1e-12
