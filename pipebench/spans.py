"""In-memory span tracing by wrapping the names callers look up at call time.

A Tracer replaces a function attribute (a module global, or a method on a
class) with a wrapper that records one Span per call: name, start, end,
parent span and record id. Each thread keeps its own span stack, so calls
made by pool worker threads never nest under another thread's spans. Spans
stay in memory until the run ends; nothing is written while timing.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import astuple, dataclass, field, fields


@dataclass(slots=True)
class Span:
    """One timed call. `work` holds a count made at the boundary (bytes, positions)."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    record: str | None
    work: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for every wrapped callable until `unwrap_all`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()  # next() on a count is one C call, atomic under the GIL
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, record_of=None, work_of=None) -> None:
        """Replace owner.attr with a traced wrapper.

        record_of(args) names the record a span belongs to; without it a
        span inherits its parent's record. work_of(args, result) gives the
        span's work count. A name the program no longer has is skipped and
        listed in `missing`, so its layer reports zero calls.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        stack_of = self._stack
        ids = self._ids
        done = self.spans.append
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            if record_of is not None:
                record = record_of(args)
            else:
                record = parent.record if parent is not None else None
            span = Span(next(ids), name, 0.0, 0.0, parent.id if parent else None, record)
            stack.append(span)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                done(span)
            if work_of is not None:
                span.work = work_of(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write a header line naming the fields, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": [f.name for f in fields(Span)]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(astuple(span), separators=(",", ":")) + "\n")


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(s.start, s.end, children.get(s.id, ())) for s in spans
    }


@dataclass
class Layer:
    """Totals of every span that carries one name."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    work: float = 0.0
    durations: list[float] = field(default_factory=list)


def summarize(spans: list[Span]) -> dict[str, Layer]:
    """Aggregate spans by name: call count, total and self seconds, work, durations."""
    selfs = self_times(spans)
    layers: dict[str, Layer] = {}
    for s in spans:
        layer = layers.setdefault(s.name, Layer())
        layer.calls += 1
        layer.seconds += s.duration
        layer.self_seconds += selfs[s.id]
        layer.work += s.work
        layer.durations.append(s.duration)
    return layers
