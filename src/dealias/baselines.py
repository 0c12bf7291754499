"""Reference matchers the rule-based matcher is compared against."""

from __future__ import annotations

from math import inf
from typing import Callable

from .normalize import Alias
from .rules import DEFAULT_CONFIG, MatcherConfig, exact_rules, gated_similarity


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
    gs = gated_similarity(cfg)
    return bird_rule_score(a, b, cfg.min_len, gs, gs) >= cfg.threshold


def bird_rule_score(a: Alias, b: Alias, m: int,
                    sim: Callable[[str, str], float],
                    part_sim: Callable[[str, str], float]) -> float:
    """The pair score of :func:`bird_match`: the pair matches at threshold
    t exactly when this is >= t.

    +inf when a containment condition holds, otherwise the largest of the
    full-name similarity, the smaller of the first-name and last-name
    similarities, and the email-base similarity. As in
    :func:`rules.gambit_rule_score`, ``m`` is the ``min_len`` gate, ``sim``
    compares the full names and the email bases and ``part_sim`` the first
    and last names, both ``gated_similarity`` functions. The containment
    conditions are gambit's rules 5-7."""
    _, r5, r6, r7, _ = exact_rules(a, b, m)
    if r5 or r6 or r7:
        return inf
    return max(sim(a.name, b.name),
               min(part_sim(a.first_name, b.first_name),
                   part_sim(a.last_name, b.last_name)),
               sim(a.email_base, b.email_base))
