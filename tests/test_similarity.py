import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from dealias.blocking import _similar_keys
from dealias.similarity import (JaroBreakdown, LevenshteinRows, Measure,
                                edit_budget, jaro_breakdown,
                                jaro_winkler_similarity, levenshtein_distance,
                                levenshtein_similarity)
from oracles import jaro_breakdown_reference, lev_distance_matrix

words = st.text(alphabet="abcdefg @", max_size=16)


def test_levenshtein_distance_basics():
    assert levenshtein_distance("", "") == 0
    assert levenshtein_distance("abc", "") == 3
    assert levenshtein_distance("", "abc") == 3
    assert levenshtein_distance("kitten", "sitting") == 3
    assert levenshtein_distance("flaw", "lawn") == 2
    assert levenshtein_distance("abc", "abc") == 0


def test_a_pair_in_either_order_is_one_cache_entry():
    # the index confirms a hit and the rules then score the same pair,
    # each passing the two strings in whatever order it meets them
    levenshtein_distance.cache_clear()
    assert list(_similar_keys(["abcdefgh", "abcdefgx"], 0.8)) == [
        ("abcdefgh", "abcdefgh"), ("abcdefgx", "abcdefgx"),
        ("abcdefgx", "abcdefgh")]
    assert levenshtein_similarity("abcdefgx", "abcdefgh") == 1 - 1 / 8
    assert levenshtein_similarity("abcdefgh", "abcdefgx") == 1 - 1 / 8
    info = levenshtein_distance.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)


def test_levenshtein_exhaustive_against_matrix_oracle():
    alphabet = "abc"
    strings = [""]
    for k in range(1, 5):
        strings += ["".join(t) for t in itertools.product(alphabet, repeat=k)]
    for s1 in strings:
        for s2 in strings:
            assert levenshtein_distance(s1, s2) == lev_distance_matrix(s1, s2)


def test_levenshtein_similarity_values():
    assert levenshtein_similarity("", "") == 1.0
    assert levenshtein_similarity("abc", "abc") == 1.0
    assert levenshtein_similarity("abc", "") == 0.0
    assert levenshtein_similarity("martha", "marhta") == pytest.approx(1 - 2 / 6)
    # normalized by the longer string
    assert levenshtein_similarity("ab", "abcd") == 0.5


@given(words, words)
def test_levenshtein_symmetric_and_bounded(s1, s2):
    d = levenshtein_distance(s1, s2)
    assert d == levenshtein_distance(s2, s1)
    assert abs(len(s1) - len(s2)) <= d <= max(len(s1), len(s2), 0)
    sim = levenshtein_similarity(s1, s2)
    assert sim == levenshtein_similarity(s2, s1)
    assert 0.0 <= sim <= 1.0
    assert (sim == 1.0) == (s1 == s2)


@given(words, words, words)
def test_levenshtein_triangle_inequality(s1, s2, s3):
    assert (levenshtein_distance(s1, s3)
            <= levenshtein_distance(s1, s2) + levenshtein_distance(s2, s3))


# lanes of every shape: empty, non-ASCII, and on both sides of 64 characters
lane_strings = st.one_of(st.text(alphabet="ab é@", max_size=10),
                         st.text(alphabet="ab é@", min_size=55, max_size=80))


def _budget_cutoffs(longest):
    """0, 1/2, 1, every similarity 1 - d / n of up to ``longest``
    characters, and the floats just below and above each."""
    exact = {0.0, 0.5, 1.0} | {1.0 - d / n for n in range(1, longest + 1)
                               for d in range(n + 1)}
    return sorted(exact | {math.nextafter(tau, side) for tau in exact
                           for side in (-math.inf, math.inf)})


_lane_cutoffs = _budget_cutoffs(12)


@settings(max_examples=200, deadline=None)
@given(st.lists(lane_strings, max_size=7), lane_strings, st.data())
def test_levenshtein_rows_find_the_strings_within_budget_from_every_start(
        strings, text, data):
    # the packed budget test against the full table and the budget of the
    # pair's longer string, for a text of any length the rows take: up to
    # the longest string's, or one of the strings itself
    longest = max(map(len, strings), default=0)
    text = data.draw(st.sampled_from([text[:longest], *strings]))
    tau = data.draw(st.sampled_from(_lane_cutoffs))
    rows = LevenshteinRows(strings, tau)
    want = [k for k, s in enumerate(strings)
            if lev_distance_matrix(text, s)
            <= edit_budget(max(len(text), len(s)), tau)]
    for start in range(len(strings) + 1):
        assert rows.similar(text, start) == [k for k in want if k >= start]
    for start in (-1, len(strings) + 1):
        with pytest.raises(IndexError):
            rows.similar(text, start)
    with pytest.raises(ValueError):
        rows.similar("a" * (2 * longest + 2))


def test_edit_budget_is_the_similarity_test_exhaustively():
    cutoffs = _budget_cutoffs(40)
    for n in range(41):
        for tau in cutoffs:
            budget = edit_budget(n, tau)
            assert -1 <= budget <= n
            for d in range(n + 1):
                passes = (1.0 - d / n if n else 1.0) >= tau
                assert (d <= budget) == passes, (n, d, tau, budget)


def test_edit_budget_grows_with_the_length():
    # LevenshteinRows tests a distance against both strings' budgets in
    # place of the budget of the pair's longer string, which holds only so
    for tau in _budget_cutoffs(40):
        budgets = [edit_budget(n, tau) for n in range(80)]
        assert budgets == sorted(budgets), tau


@settings(max_examples=300)
@given(words, words, st.data())
def test_edit_budget_decides_the_levenshtein_cutoff(x, y, data):
    sim = levenshtein_similarity(x, y)
    tau = data.draw(st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([sim, math.nextafter(sim, -math.inf),
                         math.nextafter(sim, math.inf)])))
    budget = edit_budget(max(len(x), len(y)), tau)
    assert (sim >= tau) == (levenshtein_distance(x, y) <= budget)


def test_jaro_canonical_transposition_pair():
    b = jaro_breakdown("martha", "marhta")
    assert b == JaroBreakdown(common=6, transpositions=1, prefix_len=3,
                              jaro=pytest.approx(0.9444444444, abs=1e-9))
    assert jaro_winkler_similarity("martha", "marhta") == pytest.approx(
        0.9611111111, abs=1e-9)


def test_jaro_window_and_prefix():
    b = jaro_breakdown("dixon", "dicksonx")
    assert b.common == 4 and b.transpositions == 0 and b.prefix_len == 2
    assert b.jaro == pytest.approx(2.3 / 3, abs=1e-12)
    assert jaro_winkler_similarity("dixon", "dicksonx") == pytest.approx(
        0.8133333333, abs=1e-9)


def test_jaro_transpositions_floor_on_odd_count():
    # matched sequences abc / bca disagree at three positions -> 3 // 2 = 1
    b = jaro_breakdown("abcxxx", "bcaxxx")
    assert b.common == 6
    assert b.transpositions == 1
    assert b.jaro == pytest.approx((1 + 1 + 5 / 6) / 3, abs=1e-12)


def test_jaro_winkler_boost_is_unconditional():
    # low base similarity, shared 2-char prefix: the boost still applies
    b = jaro_breakdown("abcdefgh", "abzzzz")
    assert b.prefix_len == 2
    assert b.jaro < 0.7
    expected = b.jaro + 0.1 * 2 * (1.0 - b.jaro)
    assert jaro_winkler_similarity("abcdefgh", "abzzzz") == expected


# few letters force repeats and transpositions; the last alphabet mixes in
# characters outside ASCII
jaro_pairs = st.sampled_from(["ab", "abcd", "aé日b\U0001f600"]).flatmap(
    lambda alphabet: st.tuples(st.text(alphabet, max_size=40),
                               st.text(alphabet, max_size=40)))


@settings(max_examples=800, deadline=None)
@given(jaro_pairs)
@example(("martha", "marhta"))
@example(("dixon", "dicksonx"))
@example(("ab", "ba"))
@example(("a", ""))
@example(("b", "ab" * 20))
@example(("badcbadcbadcbadcbadcbadcbadcbadcbadcbadc", "dcab"))
def test_jaro_equals_the_window_double_loop(pair):
    # the linear-time kernel against the double loop it replaced: every
    # field and the Jaro-Winkler value equal, not merely close, in both
    # argument orders
    for s1, s2 in (pair, pair[::-1]):
        want = jaro_breakdown_reference(s1, s2)
        assert jaro_breakdown(s1, s2) == want
        assert jaro_breakdown(s1, s2).jaro == want.jaro
        assert jaro_winkler_similarity(s1, s2) == (
            want.jaro + 0.1 * want.prefix_len * (1.0 - want.jaro))


def test_jaro_edge_cases():
    assert jaro_winkler_similarity("", "") == 1.0
    assert jaro_winkler_similarity("a", "") == 0.0
    assert jaro_winkler_similarity("", "a") == 0.0
    assert jaro_winkler_similarity("a", "a") == 1.0  # window clamps to 0
    assert jaro_winkler_similarity("a", "b") == 0.0
    assert jaro_winkler_similarity("ab", "ba") == 0.0  # no in-window match


@given(words, words)
def test_jaro_winkler_symmetric_and_bounded(s1, s2):
    jw = jaro_winkler_similarity(s1, s2)
    assert jw == jaro_winkler_similarity(s2, s1)
    assert 0.0 <= jw <= 1.0
    assert jw >= jaro_breakdown(s1, s2).jaro


@given(words)
def test_identity_scores_one(s):
    assert levenshtein_similarity(s, s) == 1.0
    assert jaro_winkler_similarity(s, s) == 1.0


def test_measure_tokens():
    assert Measure.from_token("lev") is Measure.LEVENSHTEIN
    assert Measure.from_token("jw") is Measure.JARO_WINKLER
    with pytest.raises(ValueError):
        Measure.from_token("cosine")
    assert Measure.LEVENSHTEIN.function()("abc", "abc") == 1.0
    assert Measure.JARO_WINKLER.function()("martha", "marhta") == pytest.approx(
        0.9611111111, abs=1e-9)
