"""The ten-rule alias matcher.

Each rule compares a different combination of name parts and email parts
between two aliases and yields a score. A pair is considered the same
author when the average of the two largest rule scores reaches the
decision threshold. Two rules that constitute near-certain evidence on
their own (shared full email, both name parts embedded in the other's
email base) score 2 instead of 1, so either one alone can carry the
decision even at threshold 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .normalize import Alias
from .similarity import Measure


@dataclass(frozen=True)
class MatcherConfig:
    """Matching parameters.

    ``threshold`` is the decision cutoff on the top-two rule average,
    ``measure`` the string similarity used by the graded rules, and
    ``min_len`` the minimum string length: any comparison that involves a
    string shorter than this scores 0, which keeps initials and one-letter
    fragments from producing spurious matches.
    """

    threshold: float = 0.95
    measure: Measure = Measure.LEVENSHTEIN
    min_len: int = 3

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.min_len < 1:
            raise ValueError(f"min_len must be >= 1, got {self.min_len}")


DEFAULT_CONFIG = MatcherConfig()


def gated_similarity(cfg: MatcherConfig) -> Callable[[str, str], float]:
    """``cfg.measure``'s similarity, 0 when either string is shorter than
    ``cfg.min_len``. Unmemoised: a scan memoises the name parts itself."""
    sim = cfg.measure.function()
    m = cfg.min_len

    def gs(x: str, y: str) -> float:
        if len(x) < m or len(y) < m:
            return 0.0
        return sim(x, y)

    return gs


def needles(x: Alias, min_len: int) -> tuple[tuple[str, str] | None, ...]:
    """What rules 5, 6 and 7 look for in the other alias's email base: the
    first-name initial glued to the last name ("jdoe"), the first name glued
    to the last-name initial ("johnd"), and the last and the first name.

    One ``(needle, rest)`` pair per rule, in that order; the rule holds when
    both occur in the base. A pair is None when a string it looks for is
    shorter than ``min_len`` (so no base shorter than that can hold one).
    A needle holds no whitespace, since the first and last names are
    whitespace-separated tokens of the name; so it can only occur inside
    one word of a base.
    """
    first, last = x.first_name, x.last_name
    if not (first and last):
        return None, None, None
    initial_last, first_initial = first[0] + last, first + last[0]
    return ((initial_last, "") if len(initial_last) >= min_len else None,
            (first_initial, "") if len(first_initial) >= min_len else None,
            (last, first) if len(first) >= min_len and len(last) >= min_len
            else None)


def score_pair(a: Alias, b: Alias, cfg: MatcherConfig = DEFAULT_CONFIG) -> tuple[float, ...]:
    """Score an alias pair under all ten rules.

    Returns a 10-tuple:

    0. similarity of the full names
    1. 1 if the full names are identical
    2. first names similar and a's last name similar to b's last or
       penultimate name (or vice versa) -- the usual same-order case
    3. a's first name against b's last name (name order swapped in b)
    4. a's last name against b's first name (name order swapped in a)
    5. 1 if either alias's first-initial+last-name occurs in the other's
       email base
    6. 1 if either alias's first-name+last-initial occurs in the other's
       email base
    7. 2 if either alias's first and last name both occur in the other's
       email base
    8. 2 if the full emails are identical
    9. similarity of the email bases

    Every comparison is gated on ``cfg.min_len``: a rule in which any
    compared string (or constructed needle) is shorter scores 0. Rules 2-4
    take the minimum of the first-name leg and the best last-name leg, so
    both legs must hold. Containment rules check both directions.
    """
    gs = gated_similarity(cfg)
    r1, r5, r6, r7, r8 = exact_rules(a, b, cfg.min_len)
    r0, r2, r3, r4, r9 = _graded_rules(a, b, gs, gs)
    return r0, r1, r2, r3, r4, r5, r6, r7, r8, r9


def gambit_rule_score(a: Alias, b: Alias, m: int,
                      sim: Callable[[str, str], float],
                      part_sim: Callable[[str, str], float]) -> float:
    """``top_two_average(score_pair(a, b, cfg))``, computing the graded
    rules only when they can change the top two. ``sim`` compares the full
    names and the email bases, ``part_sim`` the first, last and penultimate
    names; both are ``gated_similarity`` functions of ``cfg``, and ``m``
    is its ``min_len``.

    Every graded rule scores at most 1, so once the second-largest exact
    rule reaches 1 the top two are found among the exact rules. On commit
    logs most merges are decided this way, by an identical email or by
    names found inside an email base.
    """
    exact = exact_rules(a, b, m)
    # each exact rule scores 0 or at least 1: two nonzero ones are the top two
    if exact.count(0.0) <= len(exact) - 2:
        return top_two_average(exact)
    return top_two_average(exact + _graded_rules(a, b, sim, part_sim))


def exact_rules(a: Alias, b: Alias, m: int) -> tuple[float, ...]:
    """Rules 1, 5, 6, 7 and 8 of :func:`score_pair`, in that order:
    equality and containment, each 0 or its weight, with ``m`` the
    ``min_len`` gate."""
    # equal strings have equal lengths, so one length gates each equality
    r_name_eq = 1.0 if a.name == b.name and len(a.name) >= m else 0.0
    r_email_eq = 2.0 if a.email == b.email and len(a.email) >= m else 0.0
    return (r_name_eq, *containment_rules(a, b, m), r_email_eq)


def containment_rules(a: Alias, b: Alias, m: int) -> tuple[float, ...]:
    """Rules 5, 6 and 7 of :func:`score_pair`, in that order, each 0 or its
    weight, with ``m`` the ``min_len`` gate. Bird's containment conditions
    are these three rules."""
    base_a, base_b = a.email_base, b.email_base
    a5, a6, a7 = needles(a, m)
    b5, b6, b7 = needles(b, m)
    return (1.0 if ((a5 and a5[0] in base_b and a5[1] in base_b)
                    or (b5 and b5[0] in base_a and b5[1] in base_a)) else 0.0,
            1.0 if ((a6 and a6[0] in base_b and a6[1] in base_b)
                    or (b6 and b6[0] in base_a and b6[1] in base_a)) else 0.0,
            2.0 if ((a7 and a7[0] in base_b and a7[1] in base_b)
                    or (b7 and b7[0] in base_a and b7[1] in base_a)) else 0.0)


def _graded_rules(a: Alias, b: Alias, sim: Callable[[str, str], float],
                  part_sim: Callable[[str, str], float]) -> tuple[float, ...]:
    """Rules 0, 2, 3, 4 and 9, in that order: similarities, each in
    [0, 1]. Each of the eight pairs of a's and b's first, penultimate and
    last names that the rules compare is compared once."""
    fa, pa, la = a.first_name, a.penultimate_name, a.last_name
    fb, pb, lb = b.first_name, b.penultimate_name, b.last_name
    fa_lb, la_fb = part_sim(fa, lb), part_sim(la, fb)
    la_pb, pa_lb = part_sim(la, pb), part_sim(pa, lb)
    r_straight = min(part_sim(fa, fb), max(part_sim(la, lb), la_pb, pa_lb))
    r_swap_b = min(fa_lb, max(part_sim(pa, fb), la_pb, la_fb))
    r_swap_a = min(la_fb, max(pa_lb, part_sim(fa, pb), fa_lb))
    return (sim(a.name, b.name), r_straight, r_swap_b, r_swap_a,
            sim(a.email_base, b.email_base))


def top_two_average(scores: Sequence[float]) -> float:
    """Mean of the two largest entries of a score vector."""
    first = second = float("-inf")
    for s in scores:
        if s > first:
            first, second = s, first
        elif s > second:
            second = s
    return (first + second) / 2.0


def is_match(scores: Sequence[float], cfg: MatcherConfig = DEFAULT_CONFIG) -> bool:
    """Decide a pair: does the top-two average reach the threshold?"""
    return top_two_average(scores) >= cfg.threshold
