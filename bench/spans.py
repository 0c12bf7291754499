"""Spans and counters recorded around calls into the program's layers.

A span has a name, a start, an end and the span it ran inside. Spans and
counters stay in memory until the run writes them out at its end. Calls
the program makes internally (``matched_pairs`` calling
``candidate_partners``, ``sweep`` calling ``disambiguate``) are reached by
swapping the module attribute the caller looks up for a wrapper, inside
:meth:`Tracer.patch` only.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), name,
                 self._stack[-1] if self._stack else None, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    @contextmanager
    def patch(self, module, attr: str, name: str, after=None):
        """Record a span around every call of ``module.attr``; ``after``
        sees each call's arguments and result, to keep counters."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s.end - s.start for s in self.spans[since:]
                   if s.name == name)

    def self_time(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name``, less the time
        their direct children cover."""
        spans = self.spans[since:]
        ids = {s.id for s in spans if s.name == name}
        covered = sum(s.end - s.start for s in spans if s.parent in ids)
        return self.total(name, since) - covered

    def nesting_errors(self, root: int) -> list[str]:
        """Every span after ``root`` lies inside its parent's interval and
        reaches ``root`` through its parents."""
        by_id = {s.id: s for s in self.spans}
        errors = []
        for s in self.spans[root + 1:]:
            parent = by_id.get(s.parent)
            if parent is None or not (parent.start <= s.start
                                      and s.end <= parent.end):
                errors.append(f"span {s.name} ({s.id}) is not inside "
                              f"its parent")
            k = s.parent
            while k is not None and k != root:
                k = by_id[k].parent
            if k != root:
                errors.append(f"span {s.name} ({s.id}) is not under the root")
        return errors[:10]
