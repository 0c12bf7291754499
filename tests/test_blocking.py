from itertools import combinations, combinations_with_replacement

from hypothesis import example, given, settings, strategies as st

from dealias.blocking import (_join_containment, _owners, _PairSet,
                              _similar_keys, candidate_partners)
from dealias.rules import MatcherConfig
from dealias.similarity import levenshtein_similarity
from oracles import containment_reference
from synth import make_alias

CFG = MatcherConfig()  # gambit tau = 0.9

# at tau = 0.9 keys of 27-29 letters are cut into four segments and probe
# their own length and the two below it; keys of two or three letters are
# filed whole
_WIDE = "abc" * 9 + "a"
_INDEXED = _WIDE[:-1]


def test_gambit_candidates_need_a_weight_two_rule_or_two_rules():
    # all the two share is a first name: rule 2 alone, below weight 2
    first_only = [make_alias("a", "john smith", "js@x"),
                  make_alias("b", "john doe", "jd@y")]
    assert candidate_partners(first_only, "gambit", CFG) == [[], []]
    # bird matches on any single condition, so one hit keeps the pair
    assert candidate_partners(first_only, "bird", CFG) == [[1], []]
    # an identical email (rule 8, weight 2) is enough on its own; its base
    # is below the length gate, so no other rule fires
    email_only = [make_alias("a", "kim lee", "ab@x"),
                  make_alias("b", "ann roe", "ab@x")]
    assert candidate_partners(email_only, "gambit", CFG) == [[1], []]


@settings(max_examples=300, deadline=None)
@given(st.sets(st.text(alphabet="abc", max_size=32), max_size=12),
       st.floats(0.5, 1.0, exclude_min=True))
# a wide key against an indexed one, a wide one and a short one
@example({_WIDE, _INDEXED, _WIDE + "c", "abc", "ab"}, 0.9)
# a pair at exactly tau: one edit in four
@example({"abca", "abcb"}, 0.75)
def test_similar_keys_equal_brute_force(keys, tau):
    got = [tuple(sorted(pair)) for pair in _similar_keys(keys, tau)]
    assert len(got) == len(set(got)), "a pair was yielded twice"
    assert set(got) == {
        (s, u) for s, u in combinations_with_replacement(sorted(keys), 2)
        if levenshtein_similarity(s, u) >= tau}


@st.composite
def _long_keys(draw):
    """Up to eight keys: one of 40-90 letters over ``ab`` or ``abc``, and
    others a few edits away from it, so that some pairs are similar."""
    alphabet = draw(st.sampled_from(["ab", "abc"]))
    first = draw(st.text(alphabet, min_size=40, max_size=90))
    keys = {first}
    # an edit replaces ``cut`` letters (0 or 1) at ``at`` with ``letter``
    edit = st.tuples(st.integers(0, 90), st.integers(0, 1),
                     st.sampled_from(["", *alphabet]))
    for edits in draw(st.lists(st.lists(edit, max_size=12), max_size=7)):
        key = first
        for at, cut, letter in edits:
            at %= len(key) + 1
            key = key[:at] + letter + key[at + cut:]
        keys.add(key)
    return keys


@settings(max_examples=300, deadline=None)
@given(_long_keys(), st.floats(0.5, 1.0, exclude_min=True))
# similarity exactly tau, where floor((1 - tau) * 10) is
# floor(0.9999999999999998) = 0 at tau = 0.9 and 1 at tau = 0.8: one edit in
# ten, a 9-letter key whose partner has a letter inserted in its middle,
# and a 10-letter key two deletions from an 8-letter one
@example({"abcdabcdab", "abcdabcdaa"}, 0.9)
@example({"abcabcabc", "abcaabcabc"}, 0.9)
@example({"abcdabcdab", "abcdcdab"}, 0.8)
def test_similar_long_keys_equal_brute_force(keys, tau):
    got = [tuple(sorted(pair)) for pair in _similar_keys(keys, tau)]
    assert len(got) == len(set(got)), "a pair was yielded twice"
    assert set(got) == {
        (s, u) for s, u in combinations_with_replacement(sorted(keys), 2)
        if levenshtein_similarity(s, u) >= tau}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
           st.lists(st.text("ab", min_size=1, max_size=4),
                    max_size=3).map(" ".join),
           st.text("ab", max_size=10)), max_size=10),
       st.integers(1, 4))
# "jdoe" occurs twice in one base
@example([("jo doe", "x"), ("x y", "jdoejdoe"), ("jo doe", "jdoe")], 3)
def test_containment_join_equals_brute_force(rows, min_len):
    aliases = [make_alias(str(k), name, base + "@x")
               for k, (name, base) in enumerate(rows)]
    found = _PairSet(len(aliases))
    _join_containment(found, aliases,
                      _owners([a.email_base for a in aliases], min_len),
                      min_len)
    for i, j in combinations(range(len(aliases)), 2):
        expected = sum(1 << rule for rule in containment_reference(
            aliases[i], aliases[j], min_len))
        assert found._later[i].get(j, 0) == expected, (i, j)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
           st.lists(st.text("ab", min_size=1, max_size=4),
                    max_size=3).map(" ".join),
           st.lists(st.text("ab", min_size=1, max_size=5),
                    max_size=3).map(" ".join)), max_size=10),
       st.integers(1, 4))
# rule 7 with the last name in one word of the base and the first in another
@example([("ab ba", "x"), ("x y", "bab aab")], 2)
def test_containment_join_finds_needles_in_every_base_word(rows, min_len):
    # the join looks needles up word by word; the rest may lie in any word
    aliases = [make_alias(str(k), name, base + "@x")
               for k, (name, base) in enumerate(rows)]
    found = _PairSet(len(aliases))
    _join_containment(found, aliases,
                      _owners([a.email_base for a in aliases], min_len),
                      min_len)
    for i, j in combinations(range(len(aliases)), 2):
        expected = sum(1 << rule for rule in containment_reference(
            aliases[i], aliases[j], min_len))
        assert found._later[i].get(j, 0) == expected, (i, j)
