from itertools import combinations
from math import inf

import pytest
from hypothesis import example, given, settings, strategies as st

from dealias import RawAlias, disambiguate, pair_score, prepare_aliases
from dealias.baselines import bird_match
from dealias.rules import (MatcherConfig, is_match, needles, score_pair,
                           top_two_average)
from dealias.similarity import Measure
from oracles import containment_reference, graded_rules_reference
from synth import alias_lists, make_alias, random_alias
import random

CFG = MatcherConfig()  # threshold 0.95, levenshtein, min_len 3


def scores(a, b, cfg=CFG):
    return score_pair(a, b, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        MatcherConfig(threshold=1.5)
    with pytest.raises(ValueError):
        MatcherConfig(threshold=-0.1)
    with pytest.raises(ValueError):
        MatcherConfig(min_len=0)
    assert MatcherConfig(threshold=1.0).threshold == 1.0


def test_identical_names_fire_both_name_rules():
    a = make_alias("a", "john doe", "x@y com")
    b = make_alias("b", "john doe", "z@w org")
    s = scores(a, b)
    assert s[0] == 1.0 and s[1] == 1.0
    assert is_match(s, CFG)


def test_name_similarity_is_graded():
    a = make_alias("a", "jon doe", "")
    b = make_alias("b", "john doe", "")
    assert scores(a, b)[0] == pytest.approx(1 - 1 / 8)


def test_straight_token_rule_uses_penultimate():
    # "sara cohen phd" vs "sara cohen": last-vs-last fails but
    # last-vs-penultimate carries the rule
    a = make_alias("a", "sara cohen phd", "")
    b = make_alias("b", "sara cohen", "")
    s = scores(a, b)
    assert s[2] == 1.0


def test_swap_rules_on_inverted_name():
    a = make_alias("a", "john doe", "jdoe@work com")
    b = make_alias("b", "doe john", "dj@home org")
    s = scores(a, b)
    assert s[3] == 1.0 and s[4] == 1.0
    assert is_match(s, CFG)
    # the email-base needle "dj" is below min_len, so no email rule fires
    assert s[5] == s[6] == s[7] == s[8] == 0.0


def test_initial_plus_last_name_in_email_base():
    a = make_alias("a", "john doe", "nothing@common net")
    b = make_alias("b", "unrelated person", "jdoe@work com")
    assert scores(a, b)[5] == 1.0


def test_first_name_plus_initial_in_email_base():
    a = make_alias("a", "john doe", "")
    b = make_alias("b", "someone else", "johnd@work com")
    assert scores(a, b)[6] == 1.0


def test_both_names_in_email_base_weighs_two():
    a = make_alias("a", "kurt weller", "abc@def ghi")
    b = make_alias("b", "vvvv gggg", "weller kurt@other net")
    s = scores(a, b)
    assert s[7] == 2.0
    assert is_match(s, MatcherConfig(threshold=1.0))


def test_one_token_name_fires_rule_7_on_one_substring():
    # Known limitation, pinned so that changing it is a deliberate change:
    # a one-token name is its own first and last name, so one substring hit
    # in the other email base counts as both names (rule 7, weight 2)
    ann, joanne = prepare_aliases([RawAlias("x1", "Ann", "ann@foo.org"),
                                   RawAlias("x2", "Joanne Smith",
                                            "joanne@bar.com")])
    s = scores(ann, joanne)
    assert s == (0.25, 0.0, 0.5, 0.0, 0.5, 0.0, 0.0, 2.0, 0.0, 0.5)
    cfg = MatcherConfig(threshold=1.0)
    assert is_match(s, cfg)
    assert disambiguate([ann, joanne], cfg=cfg).author_count() == 1
    # bird's containment conditions are rules 5-7, so bird merges them too
    assert pair_score(ann, joanne, "bird", cfg) == inf


def test_identical_email_weighs_two():
    a = make_alias("a", "someone", "ghopper@navy mil")
    b = make_alias("b", "other entirely", "ghopper@navy mil")
    s = scores(a, b)
    assert s[8] == 2.0
    assert is_match(s, MatcherConfig(threshold=1.0))


def test_email_base_similarity_is_graded():
    a = make_alias("a", "", "jsmith@alpha com")
    b = make_alias("b", "", "jsmth@beta org")
    assert scores(a, b)[9] == pytest.approx(1 - 1 / 6)


def test_min_len_gates_short_strings():
    a = make_alias("a", "al", "al@red com")
    b = make_alias("b", "al", "al@red com")
    s = scores(a, b)
    # names and bases are 2 chars: every gated comparison scores 0 ...
    assert s[0] == s[1] == 0.0
    assert s[5] == s[6] == s[7] == 0.0
    assert s[9] == 0.0
    # ... but the full emails are long enough and identical
    assert s[8] == 2.0
    assert is_match(s, CFG)


def test_min_len_gate_is_configurable():
    a = make_alias("a", "al", "")
    b = make_alias("b", "al", "")
    assert score_pair(a, b, MatcherConfig(min_len=2))[1] == 1.0
    assert score_pair(a, b, MatcherConfig(min_len=3))[1] == 0.0


def test_needle_gate_uses_needle_length():
    # two-char first name still builds a 3-char needle: "al" + "x"[0] -> "alx"
    a = make_alias("a", "al x", "")
    b = make_alias("b", "someone", "alx@site com")
    s = scores(a, b)
    assert s[6] == 1.0  # first name + last initial
    # but the bare 2-char fragments stay gated
    assert s[2] == 0.0


def test_empty_name_never_matches_name_rules():
    a = make_alias("a", "", "x@y com")
    b = make_alias("b", "", "x@y com")
    s = scores(a, b)
    assert s[0] == s[1] == s[2] == s[3] == s[4] == 0.0
    assert s[8] == 2.0


def test_jaro_winkler_measure_is_used_when_configured():
    cfg = MatcherConfig(measure=Measure.JARO_WINKLER)
    a = make_alias("a", "martha", "")
    b = make_alias("b", "marhta", "")
    assert score_pair(a, b, cfg)[0] == pytest.approx(0.9611111111, abs=1e-9)
    assert score_pair(a, b, CFG)[0] == pytest.approx(1 - 2 / 6)


def test_top_two_average():
    assert top_two_average([0.0] * 10) == 0.0
    assert top_two_average([1.0, 0.5, 0.25]) == 0.75
    assert top_two_average([2.0, 0.0, 0.0]) == 1.0
    assert top_two_average([2.0, 2.0]) == 2.0


def test_decision_threshold_is_inclusive():
    a = make_alias("a", "abcde", "")
    b = make_alias("b", "abcde", "")
    s = score_pair(a, b, CFG)
    assert top_two_average(s) == 1.0
    assert is_match(s, MatcherConfig(threshold=1.0))


def test_single_weight_one_rule_cannot_match_alone_at_default():
    # exactly one rule at 1.0, everything else 0 -> average 0.5 < 0.95
    a = make_alias("a", "zzz qqq", "")
    b = make_alias("b", "wwwwvvvvv", "zzzq@site com")
    s = scores(a, b)
    assert s[6] == 1.0
    assert sorted(s)[-2:] == [0.0, 1.0]
    assert not is_match(s, CFG)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["lev", "jw"]),
       st.sampled_from([0.5, 0.75, 0.95, 1.0]))
def test_scores_symmetric_up_to_swap_rules(seed, measure_token, t):
    rng = random.Random(seed)
    a = random_alias(rng, "a")
    b = random_alias(rng, "b")
    cfg = MatcherConfig(threshold=t, measure=Measure.from_token(measure_token))
    ab = score_pair(a, b, cfg)
    ba = score_pair(b, a, cfg)
    # swapping the aliases swaps the two name-order rules and nothing else
    assert ba == (ab[0], ab[1], ab[2], ab[4], ab[3],
                  ab[5], ab[6], ab[7], ab[8], ab[9])
    assert is_match(ab, cfg) == is_match(ba, cfg)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_score_vector_shape_and_range(seed):
    rng = random.Random(seed)
    a = random_alias(rng, "a")
    b = random_alias(rng, "b")
    s = score_pair(a, b, CFG)
    assert len(s) == 10
    for k, v in enumerate(s):
        assert 0.0 <= v <= 2.0
        if k in (1, 5, 6):
            assert v in (0.0, 1.0)
        if k in (7, 8):
            assert v in (0.0, 2.0)


# names of zero to three short tokens and email bases over the same two
# letters, so that the needles of rules 5-7 often occur in the other base
_small_aliases = st.builds(
    lambda name, base: make_alias("x", name, base + "@x"),
    st.lists(st.text("ab", min_size=1, max_size=4), max_size=3).map(" ".join),
    st.text("ab", max_size=8))


@settings(max_examples=500, deadline=None)
@given(_small_aliases, _small_aliases, st.integers(1, 4))
@example(make_alias("a", "", "ab@x"), make_alias("b", "ab", "ab@x"), 1)
@example(make_alias("a", "ab", "b@x"), make_alias("b", "b a", "aab@x"), 2)
def test_containment_rules_equal_the_oracle(a, b, min_len):
    cfg = MatcherConfig(min_len=min_len)
    expected = containment_reference(a, b, min_len)
    for x, y in ((a, b), (b, a)):
        s = score_pair(x, y, cfg)
        assert {rule for rule in (5, 6, 7) if s[rule]} == expected
        # bird's containment conditions are the same three rules
        assert (pair_score(x, y, "bird", cfg) == inf) == bool(expected)
        if expected:
            assert bird_match(x, y, cfg)


# rules 0, 2, 3, 4 and 9: similarities
_GRADED = (0, 2, 3, 4, 9)


@settings(max_examples=300, deadline=None)
@given(alias_lists(max_size=6), st.sampled_from(list(Measure)),
       st.integers(1, 4))
# a shared four-letter prefix gives Jaro-Winkler its largest boost
@example([make_alias("a", "abcda abcdb", "abcdab@x"),
          make_alias("b", "abcdb abcda", "abcdba@x")],
         Measure.JARO_WINKLER, 1)
def test_graded_rules_score_at_most_one(aliases, measure, min_len):
    # the scan skips the graded rules once two exact rules reach 1, which
    # is exact only because no graded rule can outscore them
    cfg = MatcherConfig(measure=measure, min_len=min_len)
    for a, b in combinations(aliases, 2):
        s = score_pair(a, b, cfg)
        assert all(0.0 <= s[k] <= 1.0 for k in _GRADED), (a, b, s)


@settings(max_examples=300, deadline=None)
@given(alias_lists(max_size=6), st.sampled_from(list(Measure)),
       st.integers(1, 4))
# a three-token name against its rotation: the penultimate token is neither
# the first nor the last, and every name part recurs in another position
@example([make_alias("a", "anna bell lee", "abl@x"),
          make_alias("b", "bell lee anna", "bla@x")],
         Measure.LEVENSHTEIN, 1)
@example([make_alias("a", "anna bell lee", ""),
          make_alias("b", "lee anna bell", "")],
         Measure.JARO_WINKLER, 3)
# a one-token name is its own first, penultimate and last name
@example([make_alias("a", "anna", "anna@x"),
          make_alias("b", "anna lee", "alee@x")],
         Measure.LEVENSHTEIN, 3)
def test_graded_rules_equal_the_oracle(aliases, measure, min_len):
    cfg = MatcherConfig(measure=measure, min_len=min_len)
    for a, b in combinations(aliases, 2):
        for x, y in ((a, b), (b, a)):
            s = score_pair(x, y, cfg)
            assert tuple(s[k] for k in _GRADED) == graded_rules_reference(
                x, y, cfg), (x, y)


@settings(max_examples=300, deadline=None)
@given(alias_lists(max_size=10), st.integers(1, 4))
def test_needles_hold_no_whitespace(aliases, min_len):
    # the containment join looks needles up inside the words of a base
    for a in aliases:
        for pair in needles(a, min_len):
            if pair:
                assert not any(c.isspace() for c in pair[0]), (a, pair)
