"""Hierarchical span tracing over the pipeline.

A *span* is one timed region of the pipeline — ``obs.span("analyze.stage2")``
— with wall-clock duration, the :mod:`repro.perf` counter deltas that
accumulated inside it, free-form metadata, and parent/child nesting.
Completed root spans are collected per process and can be rendered as a
human-readable tree (:func:`render_tree`) or exported as Chrome
trace-event JSON (:mod:`repro.obs.chrome`).

Tracing is **off by default** and costs one attribute check per
``span()`` call when disabled (the acceptance bar: no measurable
regression on the warm-cache benchmark suite).  Enable it
programmatically with :func:`enable` or by exporting ``REPRO_PROFILE=1``
— the environment form is what propagates tracing into the
``REPRO_JOBS`` worker processes of :mod:`repro.harness.parallel`, whose
span snapshots the parent merges back *deterministically* (grid order,
see :func:`attach_worker_spans`).

Thread safety: the span stack is thread-local; the finished-span list is
guarded by a lock (the harness itself is process-parallel, not
thread-parallel, so contention is negligible).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro import perf

PROFILE_ENV = "REPRO_PROFILE"

_FALSY = {"", "0", "off", "no", "false"}


@dataclass(slots=True)
class Span:
    """One completed (or in-flight) timed region."""

    name: str
    #: seconds since the trace epoch at which the span began
    t0: float
    #: wall-clock duration in seconds (0.0 while in flight)
    dur: float = 0.0
    #: free-form metadata passed at the call site
    meta: dict = field(default_factory=dict)
    #: perf-counter deltas that accumulated inside the span
    counters: dict[str, float] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    #: worker label for spans merged from a parallel worker ("" = local)
    worker: str = ""

    def to_dict(self) -> dict:
        """Picklable/JSON-able form (used to ship spans across the
        process boundary and into run manifests)."""
        return {
            "name": self.name,
            "t0": self.t0,
            "dur": self.dur,
            "meta": dict(self.meta),
            "counters": dict(self.counters),
            "worker": self.worker,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            name=d["name"],
            t0=float(d["t0"]),
            dur=float(d["dur"]),
            meta=dict(d.get("meta", {})),
            counters=dict(d.get("counters", {})),
            worker=d.get("worker", ""),
            children=[cls.from_dict(c) for c in d.get("children", [])],
        )

    def walk(self):
        """Yield (depth, span) over the subtree, pre-order."""
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))


class _State(threading.local):
    def __init__(self):
        self.stack: list[tuple[Span, dict[str, float]]] = []


_local = _State()
_lock = threading.Lock()
_roots: list[Span] = []
_epoch = time.perf_counter()
_enabled = os.environ.get(PROFILE_ENV, "").strip().lower() not in _FALSY


def enabled() -> bool:
    """Whether span tracing is currently recording."""
    return _enabled


def enable() -> None:
    """Turn span tracing on (also exports ``REPRO_PROFILE=1`` so worker
    processes spawned afterwards trace too)."""
    global _enabled
    _enabled = True
    os.environ[PROFILE_ENV] = "1"


def disable() -> None:
    global _enabled
    _enabled = False
    os.environ.pop(PROFILE_ENV, None)


def reset() -> None:
    """Drop all recorded spans and restart the trace epoch."""
    global _epoch
    with _lock:
        _roots.clear()
    _local.stack.clear()
    _epoch = time.perf_counter()


class _SpanContext:
    """Context manager recording one span (only built when enabled)."""

    __slots__ = ("_name", "_meta", "_span")

    def __init__(self, name: str, meta: dict):
        self._name = name
        self._meta = meta
        self._span: Span | None = None

    def __enter__(self) -> Span:
        sp = Span(
            name=self._name,
            t0=time.perf_counter() - _epoch,
            meta=self._meta,
        )
        self._span = sp
        _local.stack.append((sp, perf.snapshot()))
        return sp

    def __exit__(self, exc_type, exc, tb) -> None:
        sp, before = _local.stack.pop()
        sp.dur = (time.perf_counter() - _epoch) - sp.t0
        sp.counters = perf.delta(before, perf.snapshot())
        if exc_type is not None:
            sp.meta.setdefault("error", exc_type.__name__)
        if _local.stack:
            _local.stack[-1][0].children.append(sp)
        else:
            with _lock:
                _roots.append(sp)


class _NullSpanContext:
    """Recording disabled: a reusable, stateless no-op."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL = _NullSpanContext()


def span(name: str, **meta):
    """Open a span named ``name``; use as a context manager.

    When tracing is disabled this returns a shared no-op context — the
    call costs a dict build for ``meta`` and one boolean check.
    """
    if not _enabled:
        return _NULL
    return _SpanContext(name, meta)


def roots() -> list[Span]:
    """The completed root spans recorded so far (shared list copies)."""
    with _lock:
        return list(_roots)


def span_snapshot() -> list[dict]:
    """All completed root spans as plain dicts (picklable) — what a
    parallel worker ships back to the parent."""
    return [sp.to_dict() for sp in roots()]


def attach_worker_spans(label: str, snapshot: list[dict]) -> None:
    """Fold a worker's span snapshot into this process's trace.

    Called by the parallel lab in **grid order**, so the merged trace is
    deterministic regardless of worker scheduling.  Each worker root is
    re-rooted under its worker label so the tree (and the Chrome trace's
    pid lanes) show where the work ran.
    """
    if not _enabled or not snapshot:
        return
    for d in snapshot:
        sp = Span.from_dict(d)
        _mark_worker(sp, label)
        with _lock:
            _roots.append(sp)


def _mark_worker(sp: Span, label: str) -> None:
    sp.worker = label
    for child in sp.children:
        _mark_worker(child, label)


# -- rendering ----------------------------------------------------------------

#: Counters worth surfacing inline in the tree view.
_TREE_COUNTER_LIMIT = 4


def _fmt_counters(counters: dict[str, float]) -> str:
    if not counters:
        return ""
    shown = sorted(counters.items())[:_TREE_COUNTER_LIMIT]
    parts = []
    for k, v in shown:
        parts.append(f"{k}={v:g}" if v != int(v) else f"{k}={int(v)}")
    more = len(counters) - len(shown)
    if more > 0:
        parts.append(f"+{more} more")
    return "  [" + " ".join(parts) + "]"


def render_tree(spans: list[Span] | None = None) -> str:
    """ASCII tree of the recorded spans with durations and counter
    deltas."""
    spans = roots() if spans is None else spans
    if not spans:
        return "(no spans recorded — is profiling enabled?)"
    lines: list[str] = []
    for root in spans:
        _render_span(root, "", True, lines, top=True)
    return "\n".join(lines)


def _render_span(
    sp: Span, prefix: str, last: bool, lines: list[str], *, top: bool = False
) -> None:
    if top:
        head, child_prefix = "", ""
    else:
        head = prefix + ("└─ " if last else "├─ ")
        child_prefix = prefix + ("   " if last else "│  ")
    label = sp.name
    if sp.worker and top:  # children inherit the lane; label roots only
        label = f"{sp.worker}:{label}"
    meta = ""
    if sp.meta:
        meta = " (" + ", ".join(f"{k}={v}" for k, v in sorted(sp.meta.items())) + ")"
    lines.append(
        f"{head}{label:<{max(1, 46 - len(head))}} {sp.dur * 1e3:9.2f} ms"
        f"{meta}{_fmt_counters(sp.counters)}"
    )
    for i, child in enumerate(sp.children):
        _render_span(child, child_prefix, i == len(sp.children) - 1, lines)


def total_seconds(spans: list[Span] | None = None) -> float:
    """Sum of root-span durations (a run's instrumented wall time)."""
    spans = roots() if spans is None else spans
    return sum(sp.dur for sp in spans)


def flat_timings(spans: list[Span] | None = None) -> dict[str, float]:
    """Aggregate seconds per span name across the whole tree (the form
    stored in run manifests)."""
    spans = roots() if spans is None else spans
    out: dict[str, float] = {}
    for root in spans:
        for _, sp in root.walk():
            out[sp.name] = out.get(sp.name, 0.0) + sp.dur
    return out
