"""Op clock and span tracer that wrap desklm's public functions from outside.

Nothing in the package changes.  A wrapper replaces a module attribute
(``desklm.model.attend``), an instance attribute (``model.encode``) or a
class the caller instantiates (``desklm.trainer.Tape``) for the length
of one pass and is removed afterwards.

The untraced pass installs only an op clock: one timestamp at the start
of every step, row or case.  The traced pass adds spans.  A span is
``(name, start, end, parent, op, count)``; ``parent`` is the index of the
enclosing span on the main thread and ``op`` the step, row or case it
belongs to.  Spans stay in a list until the pass ends.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class OpClock:
    """Start times of ops, taken at one call site per op.

    ``between(op)``, if given, runs just before op ``op`` starts; its
    time is kept out of the op before it.
    """

    def __init__(self, between=None) -> None:
        self.starts: list[float] = []
        self.excluded: list[float] = []  # seconds kept out of each op
        self._between = between

    def tick(self) -> int:
        if self._between is not None:
            t0 = perf_counter()
            self._between(len(self.starts) + 1)
            if self.excluded:
                self.excluded[-1] += perf_counter() - t0
        self.starts.append(perf_counter())
        self.excluded.append(0.0)
        return len(self.starts)

    def durations(self, end: float | None = None) -> list[float]:
        """Wall time of each op whose end is known: the next op's start,
        or ``end`` for the last one."""
        bounds = self.starts + ([] if end is None else [end])
        return [b - a - x
                for a, b, x in zip(bounds, bounds[1:], self.excluded)]


class Tracer:
    """In-memory spans for one pass."""

    def __init__(self) -> None:
        self.op = 0  # current step, row or case; 0 outside every op
        self.spans: list = []
        self.background: list = []  # spans from other threads
        self._stack: list[int] = []
        self._main = threading.get_ident()

    def call(self, name: str, fn, args, kwargs, count=None, op=None):
        """Run fn(*args, **kwargs) inside a span."""
        if threading.get_ident() != self._main:
            # The trainer's producer thread: overlapped work with no
            # parent; its op is the batch number, which is the step
            # that consumes the batch.  A list of its own, so that the
            # main thread's span indices stay put.
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.background.append(
                    (name, t0, perf_counter(), None, op, count))
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent,
                               self.op if op is None else op, count)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced


def traced_tape(tracer: Tracer, base: type, name: str) -> type:
    """Tape subclass whose backward is a span carrying the node count."""

    class TracedTape(base):
        def backward(self, loss, targets=None):
            return tracer.call(name, super().backward, (loss, targets), {},
                               count=len(self))

    return TracedTape


@contextmanager
def patched(*replacements):
    """Set (owner, attribute, value) triples; restore them on exit.

    An attribute the owner did not have before (a wrapper on a model
    instance) is deleted again, so the class method shows through.
    """
    missing = object()
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner).get(attr, missing)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def aggregate(spans: list, ops: set[int]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, summed counts.

    Only spans whose op is in ``ops`` count.  Self time is a span's
    duration minus the durations of its direct children; on one thread
    children never overlap, so that is the time they cover.
    """
    child = defaultdict(float)
    for s in spans:
        if s[3] is not None:
            child[s[3]] += s[2] - s[1]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
    for idx, (name, t0, t1, _parent, op, count) in enumerate(spans):
        if op not in ops:
            continue
        row = out[name]
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += t1 - t0 - child.get(idx, 0.0)
        if count is not None:
            row["count"] += count
    return out
