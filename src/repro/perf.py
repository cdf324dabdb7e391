"""Lightweight performance counters and wall-clock timers.

The performance engine (columnar trace fast path, trace/result caches,
parallel experiment fan-out) reports what it did through this module so
speedups are measurable in-repo rather than asserted::

    from repro import perf

    with perf.timer("sim.fast"):
        ...
    perf.add("trace_cache.hit")

    print(perf.report())

Counters are process-local and intentionally simple: a flat
``name -> float`` mapping guarded by a lock (the experiment fan-out uses
*processes*, not threads, so contention is negligible — the lock only
protects against harness threads).  ``snapshot()`` returns a plain dict
so tests and benchmarks can diff before/after.

This module is also the counter backend of :mod:`repro.obs`: spans
snapshot the counters on entry and exit and store ``delta()`` of the
two, which is how stage-scoped cache-hit/miss accounting reaches the
span tree, the Chrome trace export, and the run manifests.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

_lock = threading.Lock()
_counters: dict[str, float] = {}


def add(name: str, value: float = 1.0) -> None:
    """Increment counter ``name`` by ``value``."""
    with _lock:
        _counters[name] = _counters.get(name, 0.0) + value


def get(name: str) -> float:
    """Current value of ``name`` (0.0 if never touched)."""
    with _lock:
        return _counters.get(name, 0.0)


@contextmanager
def timer(name: str):
    """Context manager accumulating elapsed seconds into ``name`` and
    bumping ``<name>.calls``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dt = time.perf_counter() - t0
        with _lock:
            _counters[name] = _counters.get(name, 0.0) + dt
            _counters[name + ".calls"] = _counters.get(name + ".calls", 0.0) + 1


def snapshot() -> dict[str, float]:
    """A copy of all counters."""
    with _lock:
        return dict(_counters)


def reset() -> None:
    """Zero every counter (tests and benchmark setup)."""
    with _lock:
        _counters.clear()


def delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Counters that changed between two snapshots (new - old, only
    non-zero entries) — the span-scoped view :mod:`repro.obs` records."""
    out: dict[str, float] = {}
    for name, value in after.items():
        d = value - before.get(name, 0.0)
        if d:
            out[name] = d
    return out


def merge(other: dict[str, float]) -> None:
    """Fold a snapshot from another process into this one's counters
    (the parallel lab merges worker-side counters deterministically)."""
    with _lock:
        for name, value in sorted(other.items()):
            _counters[name] = _counters.get(name, 0.0) + value


def report() -> str:
    """Human-readable counter dump, sorted by name."""
    snap = snapshot()
    if not snap:
        return "(no perf counters recorded)"
    width = max(len(k) for k in snap)
    lines = []
    for name in sorted(snap):
        v = snap[name]
        shown = f"{v:.6f}".rstrip("0").rstrip(".") if v != int(v) else str(int(v))
        lines.append(f"{name:<{width}}  {shown}")
    return "\n".join(lines)
