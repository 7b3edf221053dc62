"""Outside-in spans: wrap the callables handed to the library and aggregate
their timings per span name.

Nothing is recorded per call.  Each span name keeps a call count, its
inclusive time and the inclusive time of the spans nested directly inside
it, so its self time is the difference.  The root span's inclusive time is
the sum of every span's self time, which the benchmark checks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Per-name span aggregates for one traced call."""

    def __init__(self):
        self._cells: dict[str, list] = {}
        self._stack = [0.0]

    def wrap(self, name: str, fn):
        """Return ``fn`` with every call recorded as one ``name`` span."""
        cell = self._cells.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[2] += stack.pop()
                stack[-1] += elapsed
                cell[0] += 1
                cell[1] += elapsed

        return traced

    def count(self, name: str) -> int:
        return self._cells.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self._cells.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        cell = self._cells.get(name, (0, 0.0, 0.0))
        return cell[1] - cell[2]

    def names(self) -> list[str]:
        return list(self._cells)


@contextmanager
def patched(replacements):
    """Temporarily rebind attributes.

    ``replacements`` holds ``(owner, attribute, make)`` triples; the
    attribute is set to ``make(original)`` and restored on exit.  A missing
    attribute raises, so a renamed library function fails the traced run
    instead of silently dropping its span.
    """
    saved = []
    try:
        for owner, attr, make in replacements:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class TracedProblem:
    """A problem whose ``value`` (the uncounted per-step trace evaluation)
    is a ``trace_value`` span; every other attribute is the problem's own."""

    def __init__(self, problem, tracer: Tracer):
        self._problem = problem
        self.value = tracer.wrap("trace_value", problem.value)

    def __getattr__(self, name):
        return getattr(self._problem, name)
