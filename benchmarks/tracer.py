"""In-memory span recorder for the traced benchmark run.

Spans are opened only in the benchmark's own files, around calls into the
library's public API; nothing inside ``liemult`` is instrumented.  Each span
is a list ``[name, start, end, parent_index, op_id]`` appended in open order,
so a parent always precedes its children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records nested spans; ``op`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def self_times(self, first: int = 0, ops=None) -> dict[str, float]:
        """Sum, per span name, of duration minus the time child spans cover,
        over spans from index ``first`` on, optionally only those of ``ops``.

        Children of one span never overlap (the replay is sequential), so the
        covered time is the sum of the children's durations.
        """
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None and parent >= first:
                child_time[parent - first] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _, op) in enumerate(spans):
            if ops is None or op in ops:
                out[name] = out.get(name, 0.0) + (end - start) - child_time[k]
        return out


class NullTracer:
    """Same interface, records nothing: the untraced replay uses it."""

    def span(self, name: str):
        return nullcontext()
