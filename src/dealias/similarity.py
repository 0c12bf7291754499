"""String similarity measures used by the matchers.

Both measures return a value in [0, 1], are symmetric in their arguments,
and treat two empty strings as identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence


def _add_lane(peq: dict[str, int], s: str, offset: int) -> None:
    """Set bit ``offset + k`` of ``peq[c]`` wherever ``s[k] == c``."""
    bit = 1 << offset
    for c in s:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1


@lru_cache(maxsize=1 << 18)
def levenshtein_distance(s1: str, s2: str) -> int:
    """Minimum number of single-character insertions, deletions and
    substitutions that turn ``s1`` into ``s2``.

    Bit-parallel dynamic program (Myers, JACM 1999, in Hyyrö's 2001
    formulation for edit distance), with the shorter string as the
    pattern: a column of the DP table over the pattern is held as the bit
    vectors of its +1 and -1 vertical deltas ``vp`` and ``vn``, and each
    character of the longer string advances the whole column with a few
    operations on integers as wide as the pattern. ``peq[c]`` has bit k
    set where the pattern's character k is ``c``, and ``mask`` covers the
    pattern's bits. The distance is the last column's bottom entry: its
    top entry, ``len(s1)`` since the top row grows by one per column, plus
    its deltas, ``popcount(vp) - popcount(vn)``.

    The cache keys on the ordered pair, so the package's callers pass the
    smaller string first: a pair met in both orders is then one entry.
    """
    if s1 == s2:
        return 0
    if len(s1) < len(s2):
        s1, s2 = s2, s1
    if not s2:
        return len(s1)
    peq: dict[str, int] = {}
    _add_lane(peq, s2, 0)
    mask = (1 << len(s2)) - 1
    vp, vn = mask, 0
    for c in s1:
        eq = peq.get(c, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | (mask & ~(xh | vp))
        hn = vp & xh
        # the top row grows by one per column: shift a +1 into the pattern
        hp = (hp << 1) | 1
        hn <<= 1
        vp = mask & (hn | ~(xv | hp))
        vn = hp & xv
    return len(s1) + vp.bit_count() - vn.bit_count()


class LevenshteinRows:
    """Which of many strings lie within a Levenshtein similarity cutoff of
    one text, found for all of them at once.

    The strings are packed as lanes of the same integers (Hyyrö,
    Fredriksson & Navarro, JEA 2005) and advanced together by one pass of
    :func:`levenshtein_distance`'s column loop over the text. String k
    takes ``len(strings[k])`` bits plus one clear separator bit above
    them; an empty string is a lane of no bits. ``low`` has the lowest bit
    of each lane set, the +1 that each column shifts into every lane. The
    separator takes the carry out of the lane in ``(eq & vp) + vp`` and the
    lane's top bit when ``hp`` and ``hn`` shift, and ``mask``, which covers
    the lanes' bits, clears it before it can reach the next lane. The last
    string sits in the lowest bits, so the strings from any ``start`` on
    fill the low bits, and a row from ``start`` runs on integers only as
    wide as they.

    Each string also has a counter field of w bits in two more integers,
    starting at its lane's top bit. The bottom row of a lane's table starts
    at ``len(s)`` and moves by the top bit's horizontal delta in each
    column, so each column adds the top bits of ``hp`` (+1) to one counter
    and of ``hn`` (-1) to the other, and a lane's distance d is
    ``len(s) + plus - minus``. An empty lane's distance is ``len(text)``,
    added to its ``plus`` field. With G = 2**(w - 1) above every length,
    ``minus + G - len(s) + b - plus`` is G + b - d in every field at once,
    in [0, 2G), so no field borrows from the next, and the field's top bit
    is set exactly when d <= b. A pair's edit budget is that of its longer
    string, and budgets do not fall with the length, so it is the larger of
    the string's budget and the text's: two packed tests, one with each
    string's own budget and one with the text's, and their union holds the
    strings within the pair's budget. Fields never overlap: a short lane
    starts far enough above the one below it that its field begins above
    that one's field.
    """

    def __init__(self, strings: Sequence[str], tau: float):
        n = len(strings)
        self._tau = tau
        longest = max(map(len, strings), default=0)
        w = longest.bit_length() + 1
        g = 1 << (w - 1)
        budget = [edit_budget(length, tau) for length in range(longest + 1)]
        peq: dict[str, int] = {}
        mask = low = top = empty = ones = shift = own = guards = 0
        offset = free = 0   # lowest lane bit and lowest field bit not taken
        lane_at: dict[int, int] = {}   # a field's top bit -> its string
        ends = [(0, 0)] * (n + 1)   # ends[k]: bits taken by strings[k:]
        for k in range(n - 1, -1, -1):
            s = strings[k]
            if s:
                # the field starts at the lane's top bit, above the last one
                offset = max(offset, free - len(s) + 1)
                _add_lane(peq, s, offset)
                mask |= ((1 << len(s)) - 1) << offset
                low |= 1 << offset
                field = offset + len(s) - 1
                top |= 1 << field
                offset += len(s) + 1
            else:
                field = free
                empty |= 1 << field
            free = field + w
            ones |= 1 << field
            shift |= (g - len(s)) << field
            own |= (g - len(s) + budget[len(s)]) << field
            guards |= 1 << (free - 1)
            lane_at[free - 1] = k
            ends[k] = (offset, free)
        self._capacity = g - 1
        self._peq, self._mask, self._low, self._top = peq, mask, low, top
        self._empty, self._ones, self._shift, self._own = (empty, ones,
                                                           shift, own)
        self._guards, self._lane_at, self._ends = guards, lane_at, ends

    def similar(self, text: str, start: int = 0) -> list[int]:
        """The indices k >= ``start``, ascending, of the strings with
        ``levenshtein_similarity(text, strings[k]) >= tau``. Raises
        ``IndexError`` for a ``start`` outside [0, len(strings)], and
        ``ValueError`` for a text longer than the counters hold: every text
        up to the longest string's length fits."""
        if not 0 <= start < len(self._ends):
            raise IndexError(
                f"start {start} outside [0, {len(self._ends) - 1}]")
        m = len(text)
        if m > self._capacity:
            raise ValueError(f"text of {m} characters, over the "
                             f"{self._capacity} the counters hold")
        # cut the lanes and fields before start off: narrower integers
        lanes, fields = self._ends[start]
        lane_window = (1 << lanes) - 1
        field_window = (1 << fields) - 1
        peq = {c: self._peq[c] & lane_window for c in set(text)
               if c in self._peq}
        mask, low = self._mask & lane_window, self._low & lane_window
        top = self._top & lane_window
        vp, vn, plus, minus = mask, 0, 0, 0
        # levenshtein_distance's loop with the counters. One loop for both
        # would cost every levenshtein_distance call the counters' four
        # operations per column, about a quarter of its time; disambiguate
        # makes the most such calls
        for c in text:
            eq = peq.get(c, 0)
            xv = eq | vn
            xh = (((eq & vp) + vp) ^ vp) | eq
            hp = vn | (mask & ~(xh | vp))
            hn = vp & xh
            plus += hp & top
            minus += hn & top
            hp = (hp << 1) | low
            hn <<= 1
            vp = mask & (hn | ~(xv | hp))
            vn = hp & xv
        plus += m * (self._empty & field_window)
        diff = minus - plus   # len(s) - d in every field
        text_budget = (self._shift & field_window) + edit_budget(
            m, self._tau) * (self._ones & field_window)
        hits = (((diff + (self._own & field_window)) | (diff + text_budget))
                & self._guards & field_window)
        # the lowest index sits in the highest bits: the binary string,
        # highest bit first, lists the hits in ascending order
        bits = format(hits, "b")
        last = len(bits) - 1
        lane_at = self._lane_at
        found = []
        i = bits.find("1")
        while i >= 0:
            found.append(lane_at[last - i])
            i = bits.find("1", i + 1)
        return found


def levenshtein_similarity(s1: str, s2: str) -> float:
    """Edit distance rescaled to a similarity: 1 - d / max(len(s1), len(s2))."""
    longer = max(len(s1), len(s2))
    if longer == 0:
        return 1.0
    if s2 < s1:
        s1, s2 = s2, s1
    return 1.0 - levenshtein_distance(s1, s2) / longer


def edit_budget(longer: int, tau: float) -> int:
    """The most edits d <= ``longer`` that pass the float test of
    :func:`levenshtein_similarity` >= tau, ``1.0 - d / longer >= tau``
    (``1.0 >= tau`` for two empty strings), or -1 if none does. Unlike
    ``floor((1 - tau) * longer)``, 0 at tau = 0.9 and 10 characters, it
    never rounds an edit short."""
    if not longer:
        return 0 if 1.0 >= tau else -1
    # a start near the answer; the test is monotone in d, so walk to it
    d = int((1.0 - min(max(tau, 0.0), 1.0)) * longer)
    while d < longer and 1.0 - (d + 1) / longer >= tau:
        d += 1
    while d >= 0 and 1.0 - d / longer < tau:
        d -= 1
    return d


@dataclass(frozen=True)
class JaroBreakdown:
    """Intermediate quantities behind a Jaro similarity value.

    ``common`` is the number of characters matched within the search window,
    ``transpositions`` half the matched characters that are out of order,
    ``prefix_len`` the length of the shared prefix (capped at 4), and
    ``jaro`` the plain Jaro similarity before any prefix boost.
    """

    common: int
    transpositions: int
    prefix_len: int
    jaro: float


def _jaro(s1: str, s2: str) -> tuple[int, int, int, float]:
    """``(common, transpositions, prefix_len, jaro)`` of two strings, the
    fields of :class:`JaroBreakdown`.

    Each character of ``s1`` is matched to the first unmatched equal
    character of ``s2`` inside the search window. The window's start never
    moves back, so the positions of one character in ``s2`` are matched in
    order: every such position before the last one matched is taken or lies
    behind every later window. One cursor per character, just past its last
    match, therefore finds the first unmatched one with a single
    ``str.find``: one call per character of ``s1`` in place of a Python loop
    over the window.
    """
    len1, len2 = len(s1), len(s2)
    if len1 == 0 and len2 == 0:
        return 0, 0, 0, 1.0

    prefix_len = 0
    for a, b in zip(s1[:4], s2[:4]):
        if a != b:
            break
        prefix_len += 1

    window = max(len1, len2) // 2 - 1
    if window < 0:
        window = 0

    cursor: dict[str, int] = {}
    matched1: list[str] = []   # s1's matched characters, in s1's order
    positions: list[int] = []  # where in s2 they matched
    for i, ch in enumerate(s1):
        lo = i - window if i > window else 0
        start = cursor.get(ch, 0)
        j = s2.find(ch, start if start > lo else lo, i + window + 1)
        if j >= 0:
            cursor[ch] = j + 1
            matched1.append(ch)
            positions.append(j)

    common = len(positions)
    if common == 0:
        return 0, 0, prefix_len, 0.0

    # Count matched characters that appear in a different order in s2;
    # every two of them constitute one transposition.
    positions.sort()
    out_of_order = 0
    for ch, j in zip(matched1, positions):
        if ch != s2[j]:
            out_of_order += 1
    transpositions = out_of_order // 2

    jaro = (common / len1 + common / len2 + (common - transpositions) / common) / 3.0
    return common, transpositions, prefix_len, jaro


def jaro_breakdown(s1: str, s2: str) -> JaroBreakdown:
    """Compute the Jaro similarity of two strings along with its parts."""
    return JaroBreakdown(*_jaro(s1, s2))


def jaro_winkler_similarity(s1: str, s2: str) -> float:
    """Jaro similarity boosted towards 1 by a tenth per shared prefix
    character (at most four). The boost is applied unconditionally, not
    only above some base-similarity cutoff.
    """
    _, _, prefix_len, jaro = _jaro(s1, s2)
    return jaro + 0.1 * prefix_len * (1.0 - jaro)


class Measure(enum.Enum):
    """Selector for the string similarity used inside the rule set."""

    LEVENSHTEIN = "lev"
    JARO_WINKLER = "jw"

    @classmethod
    def from_token(cls, token: str) -> "Measure":
        for member in cls:
            if member.value == token:
                return member
        raise ValueError(f"unknown measure {token!r}; expected one of "
                         f"{[m.value for m in cls]}")

    def function(self) -> Callable[[str, str], float]:
        # by value: a member's hash runs in Python, once per pair score
        return _MEASURE_FUNCTIONS[self._value_]


_MEASURE_FUNCTIONS = {
    Measure.LEVENSHTEIN.value: levenshtein_similarity,
    Measure.JARO_WINKLER.value: jaro_winkler_similarity,
}
