"""Fast-path engine equivalence: the vectorized event pipeline plus
run-length compaction must reproduce the reference simulator's results
*exactly* — every miss count, per-processor split, and per-block
histogram — on real workload traces and on adversarial random traces.

Property tests draw small traces with odd sizes (block straddles),
tiny caches (forced replacements), and both invalidation granularities;
the workload tests cover every simulation benchmark at the paper's two
headline block sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.trace import Trace
from repro.sim import (
    CacheConfig,
    build_events,
    simulate_trace,
    simulate_trace_fast,
)
from repro.workloads.registry import SIMULATION_WORKLOADS


def assert_equivalent(fast, ref):
    assert fast.engine == "fast" and ref.engine == "reference"
    assert fast.misses == ref.misses
    assert dict(fast.per_proc) == dict(ref.per_proc)
    assert fast.invalidations == ref.invalidations
    assert fast.writebacks == ref.writebacks
    assert fast.upgrades == ref.upgrades
    assert fast.refs == ref.refs
    assert_same_columns(fast, ref)
    # Pair tags are a partition of the false-sharing misses.
    assert int(ref.pairs.count.sum()) == ref.misses.false_sharing


def assert_same_columns(got, ref):
    """The per-block and per-pair records agree column for column."""
    for rec in ("blocks", "pairs"):
        a, b = getattr(got, rec), getattr(ref, rec)
        for name, x, y in zip(a._fields, a, b):
            assert np.array_equal(x, y), f"{rec}.{name}"


def make_trace(events):
    proc, addr, size, w = zip(*events)
    return Trace(
        proc=np.array(proc, dtype=np.int32),
        addr=np.array(addr, dtype=np.int64),
        size=np.array(size, dtype=np.int32),
        is_write=np.array(w, dtype=bool),
    )


# ---------------------------------------------------------------------------
# property tests on random traces
# ---------------------------------------------------------------------------

events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=-1, max_value=3),          # proc (incl. main)
        st.integers(min_value=0, max_value=255),         # addr
        st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 16]),  # size (odd: straddles)
        st.booleans(),                                   # is_write
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(events=events_strategy, block=st.sampled_from([8, 16, 32]))
def test_fast_matches_reference_random(events, block):
    trace = make_trace(events)
    # Tiny direct-mapped-ish cache so replacements occur.
    cfg = CacheConfig(size=4 * block, block_size=block, assoc=1)
    ref = simulate_trace(trace, 4, cfg)
    fast = simulate_trace_fast(trace, 4, cfg)
    assert_equivalent(fast, ref)


@settings(max_examples=200, deadline=None)
@given(events=events_strategy, block=st.sampled_from([8, 16, 32]))
def test_fast_matches_reference_random_word_invalidate(events, block):
    trace = make_trace(events)
    cfg = CacheConfig(size=8 * block, block_size=block, assoc=2)
    ref = simulate_trace(trace, 4, cfg, word_invalidate=True)
    fast = simulate_trace_fast(trace, 4, cfg, word_invalidate=True)
    assert_equivalent(fast, ref)


@settings(max_examples=100, deadline=None)
@given(events=events_strategy)
def test_compaction_matches_uncompacted(events):
    """Run-length compaction itself must be a no-op on the results."""
    trace = make_trace(events)
    cfg = CacheConfig(size=64, block_size=16, assoc=1)
    plain = build_events(trace, 16, compact=False)
    packed = build_events(trace, 16, compact=True)
    # n_refs counts straddle-split events, so it can exceed len(trace).
    assert int(packed.repeat.sum()) == plain.n_refs >= len(trace)
    a = simulate_trace_fast(trace, 4, cfg, events=plain)
    b = simulate_trace_fast(trace, 4, cfg, events=packed)
    assert a.misses == b.misses and dict(a.per_proc) == dict(b.per_proc)
    assert a.refs == b.refs and a.invalidations == b.invalidations


# ---------------------------------------------------------------------------
# every simulation workload, both headline block sizes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "wl", SIMULATION_WORKLOADS, ids=[w.name for w in SIMULATION_WORKLOADS]
)
@pytest.mark.parametrize("block_size", [16, 128])
def test_workload_equivalence(wl, block_size, workload_run):
    run = workload_run(wl)
    cfg = CacheConfig(size=32 * 1024, block_size=block_size, assoc=4)
    extra = sum(run.private_refs.values())
    ref = simulate_trace(run.trace, run.nprocs, cfg, extra_refs=extra)
    fast = simulate_trace_fast(run.trace, run.nprocs, cfg, extra_refs=extra)
    assert_equivalent(fast, ref)


@pytest.mark.parametrize(
    "wl", SIMULATION_WORKLOADS[:3], ids=[w.name for w in SIMULATION_WORKLOADS[:3]]
)
def test_workload_equivalence_word_invalidate(wl, workload_run):
    run = workload_run(wl)
    cfg = CacheConfig(size=32 * 1024, block_size=128, assoc=4)
    ref = simulate_trace(run.trace, run.nprocs, cfg, word_invalidate=True)
    fast = simulate_trace_fast(
        run.trace, run.nprocs, cfg, word_invalidate=True
    )
    assert_equivalent(fast, ref)
