from itertools import combinations, combinations_with_replacement

from hypothesis import example, given, settings, strategies as st

from dealias.blocking import (_join_containment, _neighbourhood, _owners,
                              _PairSet, _similar_keys, candidate_partners)
from dealias.rules import MatcherConfig
from dealias.similarity import levenshtein_similarity
from oracles import containment_reference
from synth import make_alias

CFG = MatcherConfig()  # gambit tau = 0.9

# at tau = 0.9 a key of 28 letters has too many deletion variants to index,
# and one of 27 letters does not
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


def test_example_keys_take_both_join_paths():
    assert _neighbourhood(_WIDE, 0.9) is None
    assert _neighbourhood(_INDEXED, 0.9) is not None


@settings(max_examples=300, deadline=None)
@given(st.sets(st.text(alphabet="abc", max_size=32), max_size=12),
       st.floats(0.5, 1.0, exclude_min=True))
# a wide key against an indexed one, a wide one and a short one
@example({_WIDE, _INDEXED, _WIDE + "c", "abc", "ab"}, 0.9)
def test_similar_keys_equal_brute_force(keys, tau):
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
