"""Reference matchers the rule-based matcher is compared against."""

from __future__ import annotations

from math import inf

from .normalize import Alias
from .rules import (DEFAULT_CONFIG, MatcherConfig, _contains_both_names,
                    _contains_first_initial, _contains_initial_last)


def simple_match(a: Alias, b: Alias, cfg: MatcherConfig = DEFAULT_CONFIG) -> bool:
    """Exact matcher: same cleaned name or same email base.

    Ignores threshold and measure; only ``cfg.min_len`` applies (strings
    shorter than that never match).
    """
    m = cfg.min_len
    if len(a.name) >= m and a.name == b.name:
        return True
    return len(a.email_base) >= m and a.email_base == b.email_base


def bird_match(a: Alias, b: Alias, cfg: MatcherConfig = DEFAULT_CONFIG) -> bool:
    """Disjunctive matcher: a pair matches when any one condition holds.

    Conditions: similar full names; similar first AND last names; both name
    parts contained in the other's email base; first-initial+last-name
    contained; first-name+last-initial contained; similar email bases.
    Containment is checked in both directions, similarities are compared
    against ``cfg.threshold``, and the ``cfg.min_len`` gate applies to every
    comparison.
    """
    sim = cfg.measure.function()
    m = cfg.min_len
    t = cfg.threshold

    def gs(x: str, y: str) -> float:
        if len(x) < m or len(y) < m:
            return 0.0
        return sim(x, y)

    if gs(a.name, b.name) >= t:
        return True
    if min(gs(a.first_name, b.first_name), gs(a.last_name, b.last_name)) >= t:
        return True
    if _contains_both_names(a, b, m) or _contains_both_names(b, a, m):
        return True
    if _contains_initial_last(a, b, m) or _contains_initial_last(b, a, m):
        return True
    if _contains_first_initial(a, b, m) or _contains_first_initial(b, a, m):
        return True
    return gs(a.email_base, b.email_base) >= t


def bird_score(a: Alias, b: Alias, cfg: MatcherConfig = DEFAULT_CONFIG) -> float:
    """The pair score of :func:`bird_match`: the pair matches at threshold
    t exactly when this is >= t.

    +inf when a containment condition holds, otherwise the largest of the
    full-name similarity, the smaller of the first-name and last-name
    similarities, and the email-base similarity. ``cfg.threshold`` is not
    used.
    """
    m = cfg.min_len
    if (_contains_both_names(a, b, m) or _contains_both_names(b, a, m)
            or _contains_initial_last(a, b, m) or _contains_initial_last(b, a, m)
            or _contains_first_initial(a, b, m)
            or _contains_first_initial(b, a, m)):
        return inf
    sim = cfg.measure.function()

    def gs(x: str, y: str) -> float:
        if len(x) < m or len(y) < m:
            return 0.0
        return sim(x, y)

    return max(gs(a.name, b.name),
               min(gs(a.first_name, b.first_name),
                   gs(a.last_name, b.last_name)),
               gs(a.email_base, b.email_base))
