"""Memoization of simulation results and event streams.

A block-size sweep (Figure 3, Table 2, the headline statistics) and the
timing model (Figure 4, Table 3, section-5 improvements) repeatedly
simulate the *same frozen trace* — across drivers, at overlapping
geometries.  This module keys both the precomputed
:class:`~repro.sim.events.EventStream` and the finished
:class:`~repro.sim.coherence.SimResult` by the trace's content
fingerprint, so each (trace, geometry) pair is simulated exactly once
per process, and each (trace, block size) pair is split/compacted
exactly once.

Results are treated as immutable by every consumer (nothing in the repo
mutates a ``SimResult`` after construction); the caches are bounded FIFO
so property tests churning thousands of tiny traces cannot grow memory
without bound.
"""

from __future__ import annotations

from collections import OrderedDict

from repro import perf
from repro.obs import spans as obs
from repro.runtime.trace import Trace
from repro.sim.cache import CacheConfig
from repro.sim.coherence import SimResult
from repro.sim.engine import (
    FAST,
    REFERENCE,
    resolve_kernel,
    simulate_trace_fast,
)
from repro.sim.events import EventStream, build_events

#: Bounds (entries) for the two memo tables.
MAX_RESULTS = 4096
MAX_EVENT_STREAMS = 256

_results: OrderedDict[tuple, SimResult] = OrderedDict()
_events: OrderedDict[tuple, EventStream] = OrderedDict()


def clear() -> None:
    """Drop every memoized result and event stream (tests)."""
    _results.clear()
    _events.clear()


def cached_events(
    trace: Trace, block_size: int, *, word_granularity: bool = False
) -> EventStream:
    """The (memoized) pre-split event stream for one (trace, block size)."""
    key = (trace.fingerprint, block_size, word_granularity)
    got = _events.get(key)
    if got is not None:
        perf.add("events_cache.hit")
        return got
    perf.add("events_cache.miss")
    got = build_events(trace, block_size, word_granularity=word_granularity)
    _events[key] = got
    while len(_events) > MAX_EVENT_STREAMS:
        _events.popitem(last=False)
    return got


def cached_simulate(
    trace: Trace,
    nprocs: int,
    config: CacheConfig,
    *,
    extra_refs: int = 0,
    word_invalidate: bool = False,
    engine: str | None = None,
    kernel: str | None = None,
) -> SimResult:
    """Simulate with the selected engine, memoizing per
    (trace fingerprint, geometry, engine, kernel).

    ``engine`` is ``"fast"`` (default: the event driver of
    :mod:`repro.sim.engine`) or ``"reference"`` (the per-reference
    :func:`~repro.sim.coherence.simulate_trace` oracle).  The
    *resolved* kernel variant (native vs python) is part of the memo
    key: two configurations that are merely asserted equivalent must
    never share a cache slot, or a bug in one could masquerade as the
    other's result (regression-tested in ``tests/test_kernel.py``).

    The returned ``SimResult`` is shared between callers — treat it as
    read-only.
    """
    from repro.sim.coherence import simulate_trace

    engine = engine or FAST
    if engine == REFERENCE:
        resolved_kernel = "python"
    else:
        resolved_kernel = resolve_kernel(
            word_invalidate=word_invalidate, kernel=kernel
        )
    key = (
        trace.fingerprint, nprocs, config.size, config.block_size,
        config.assoc, config.protocol, word_invalidate, extra_refs, engine,
        resolved_kernel,
    )
    got = _results.get(key)
    if got is not None:
        perf.add("sim_cache.hit")
        return got
    perf.add("sim_cache.miss")
    with obs.span(
        "sim.simulate",
        engine=engine,
        kernel=resolved_kernel,
        nprocs=nprocs,
        block_size=config.block_size,
        refs=len(trace),
    ):
        if engine == REFERENCE:
            with perf.timer("sim.reference"):
                got = simulate_trace(
                    trace, nprocs, config,
                    extra_refs=extra_refs, word_invalidate=word_invalidate,
                )
        else:
            events = cached_events(
                trace, config.block_size, word_granularity=word_invalidate
            )
            with perf.timer("sim.fast"):
                got = simulate_trace_fast(
                    trace, nprocs, config,
                    extra_refs=extra_refs, word_invalidate=word_invalidate,
                    events=events, kernel=resolved_kernel,
                )
    _results[key] = got
    while len(_results) > MAX_RESULTS:
        _results.popitem(last=False)
    return got
