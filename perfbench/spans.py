"""In-memory spans recorded around calls into the program, from outside it.

A :class:`Tracer` replaces attributes of modules and classes with wrappers
that time each call with ``perf_counter_ns`` and remember which wrapped
call was running when it started (its parent). Spans stay in a list until
the benchmark ends; :meth:`Tracer.restore` puts every original attribute
back. Self time is a span's duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import math
from time import perf_counter_ns

# Span layout: [name, parent index or -1, start ns, end ns, info]
NAME, PARENT, START, END, INFO = range(5)

_MISSING = object()


class Tracer:
    """Wraps callables in place and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        ``observe(args, kwargs, result)`` runs after the call, outside the
        timed interval, and its return value is kept as the span's info.
        For a class, only an attribute defined on that class itself is
        replaced, so restoring never leaves a copy on a subclass.
        """
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} defines no attribute {attr!r}")
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                span[INFO] = observe(args, kwargs, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def children_of(spans) -> dict[int, list[int]]:
    """Direct children of each span index, in call order (-1 is the root)."""
    out: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        out.setdefault(span[PARENT], []).append(i)
    return out


def duration_ns(span) -> int:
    return span[END] - span[START]


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [duration_ns(s) for s in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= duration_ns(span)
    return out


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile ``q`` in [0, 100] (numpy's default
    rule); NaN for no values."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize_ms(samples_ns) -> tuple[int, float, float]:
    """(sample count, p50 ms, p90 ms) of nanosecond samples.

    p90 is the highest percentile reported: it is the highest with ten
    samples beyond it once there are 100 samples.
    """
    ms = [s / 1e6 for s in samples_ns]
    return len(ms), percentile(ms, 50.0), percentile(ms, 90.0)
