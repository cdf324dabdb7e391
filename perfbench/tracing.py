"""In-memory spans around the benchmark's calls into each layer.

A span records its name, start, end, parent span and operation id.
Spans are kept in a list and written out once, when the run ends.  A
layer's self time is its spans' durations minus the time their child
spans cover; whatever the layer spans leave uncovered inside a pass is
the harness's own time (``harness.other_s``).

With tracing off, :meth:`Tracer.call` is a direct call, so the
untimed-versus-traced difference is the tracing overhead.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans for one benchmark run (a no-op when disabled)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: finished spans: [id, name, start, end, parent id, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.op_id: int | None = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        rec = [sid, name, time.perf_counter(), 0.0, parent, self.op_id]
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span named ``name`` when
        tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self, t0: float, t1: float) -> dict[str, float]:
        """Seconds of self time per span name, over the spans that lie
        within ``[t0, t1]`` (one traced pass, say)."""
        inside = [s for s in self.spans if s[2] >= t0 and s[3] <= t1]
        child_time: dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _op in inside:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _parent, _op in inside:
            out[name] += (end - start) - child_time[sid]
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as JSON (one object per span)."""
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

