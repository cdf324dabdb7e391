"""Native protocol kernel: bit-identity with the Python reference core
(MSI and MESI), selection/fallback semantics, and the simcache keying
regression.

The native kernel is an *optimisation*, never a semantic fork: every
miss count, per-processor split, per-block histogram, and
false-sharing pair tag must match the pure-Python
:class:`~repro.sim.coherence.CoherenceSim` exactly.  The suite runs
meaningfully under both CI legs — with ``REPRO_SIM_KERNEL=python`` the
native-only tests skip and the selection tests assert the fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.runtime.trace import Trace
from repro.sim import CacheConfig, build_events, simulate_trace
from repro.sim import kernel as K
from repro.sim import simcache
from repro.sim.cache import Cache
from repro.sim.engine import (
    resolve_kernel,
    simulate_events,
    simulate_trace_fast,
)
from repro.workloads.registry import SIMULATION_WORKLOADS

from test_engine_equivalence import assert_same_columns, make_trace

HAVE_NATIVE = K.load_kernel() is not None

needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="native kernel unavailable (no C compiler "
    "or REPRO_SIM_KERNEL=python)"
)


def assert_same_result(got, ref):
    """Every observable field of two SimResults matches exactly."""
    assert got.misses == ref.misses
    assert dict(got.per_proc) == dict(ref.per_proc)
    assert got.invalidations == ref.invalidations
    assert got.writebacks == ref.writebacks
    assert got.upgrades == ref.upgrades
    assert got.refs == ref.refs
    assert_same_columns(got, ref)


events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=-1, max_value=3),          # proc (incl. main)
        st.integers(min_value=0, max_value=255),         # addr
        st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 16]),  # size (straddles)
        st.booleans(),                                   # is_write
    ),
    min_size=1,
    max_size=120,
)


# ---------------------------------------------------------------------------
# bit-identity: native vs reference
# ---------------------------------------------------------------------------


@needs_native
@settings(max_examples=150, deadline=None)
@given(events=events_strategy, block=st.sampled_from([8, 16, 32]))
def test_native_matches_reference_random(events, block):
    trace = make_trace(events)
    cfg = CacheConfig(size=4 * block, block_size=block, assoc=1)
    ref = simulate_trace(trace, 4, cfg)
    native = simulate_trace_fast(trace, 4, cfg, kernel="native")
    assert native.kernel == "native"
    assert_same_result(native, ref)


@needs_native
@settings(max_examples=150, deadline=None)
@given(events=events_strategy, block=st.sampled_from([8, 16, 32]))
def test_native_matches_reference_random_mesi(events, block):
    """MESI at assoc 2: a set holds two blocks, so the LRU bump of an
    E->S demotion can change the victim (assoc 1 cannot see it)."""
    trace = make_trace(events)
    cfg = CacheConfig(
        size=4 * block, block_size=block, assoc=2, protocol="mesi"
    )
    ref = simulate_trace(trace, 4, cfg)
    native = simulate_trace_fast(trace, 4, cfg, kernel="native")
    assert native.kernel == "native"
    assert_same_result(native, ref)


#: Three procs and six 16 B blocks in one two-way set, mostly reads: the
#: E->S demotion's LRU bump decides a victim often enough that a core
#: without it fails within a few hundred examples.
conflict_strategy = st.lists(
    st.tuples(
        st.integers(min_value=-1, max_value=2),
        st.integers(min_value=0, max_value=95),
        st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 16]),
        st.sampled_from([False, False, True]),
    ),
    min_size=1,
    max_size=120,
)


@needs_native
@settings(max_examples=300, deadline=None)
@given(events=conflict_strategy)
def test_native_matches_reference_set_conflicts_mesi(events):
    trace = make_trace(events)
    cfg = CacheConfig(size=32, block_size=16, assoc=2, protocol="mesi")
    ref = simulate_trace(trace, 4, cfg)
    assert_same_result(simulate_trace_fast(trace, 4, cfg, kernel="native"), ref)


#: (protocol, block size) cases; the MSI ids predate the MESI cases.
WORKLOAD_CASES = [
    pytest.param("msi", 16, id="16"),
    pytest.param("msi", 128, id="128"),
    pytest.param("mesi", 16, id="mesi-16"),
    pytest.param("mesi", 64, id="mesi-64"),
]


@needs_native
@pytest.mark.parametrize(
    "wl", SIMULATION_WORKLOADS, ids=[w.name for w in SIMULATION_WORKLOADS]
)
@pytest.mark.parametrize("protocol,block_size", WORKLOAD_CASES)
def test_native_workload_equivalence(wl, protocol, block_size, workload_run):
    run = workload_run(wl)
    cfg = CacheConfig(
        size=32 * 1024, block_size=block_size, assoc=4, protocol=protocol
    )
    extra = sum(run.private_refs.values())
    ref = simulate_trace(run.trace, run.nprocs, cfg, extra_refs=extra)
    native = simulate_trace_fast(
        run.trace, run.nprocs, cfg, extra_refs=extra, kernel="native"
    )
    assert native.kernel == "native"
    assert_same_result(native, ref)


def _chunked_equals_whole(protocol):
    """One NativeSim fed in pieces equals one fed whole."""
    rng = np.random.default_rng(7)
    n = 5000
    trace = Trace(
        proc=rng.integers(-1, 4, n).astype(np.int32),
        addr=(rng.integers(0, 512, n) * 4).astype(np.int64),
        size=np.full(n, 4, np.int32),
        is_write=(rng.random(n) < 0.4),
    )
    cfg = CacheConfig(size=1024, block_size=32, assoc=2, protocol=protocol)
    events = build_events(trace, 32)
    whole = K.NativeSim(4, cfg)
    whole.consume(events)
    a = whole.result()
    piecewise = K.NativeSim(4, cfg)
    for start in range(0, len(events), 13):
        piecewise.consume(events.slice(start, start + 13))
    b = piecewise.result()
    assert_same_result(a, b)
    whole.close()
    piecewise.close()
    return a


@needs_native
def test_native_state_carries_over_chunks():
    _chunked_equals_whole("msi")


@needs_native
def test_native_state_carries_over_chunks_mesi():
    res = _chunked_equals_whole("mesi")
    assert res.kernel == "native" and res.config.protocol == "mesi"


# ---------------------------------------------------------------------------
# MESI: the E->S demotion re-inserts the holder's copy as MRU
# ---------------------------------------------------------------------------

#: One set of two ways at 16 B (blocks 0, 1, 2 = A, B, C).  Proc 0 reads
#: A then B, both into E; proc 1's read of A demotes proc 0's A to S,
#: which re-inserts it as MRU, so proc 0's read of C evicts B and its
#: second read of A hits.  Without the re-insertion A is the LRU way:
#: C evicts it and the last read is a replacement miss.
DEMOTION_TRACE = [
    (0, 0, 4, False),   # A -> E
    (0, 16, 4, False),  # B -> E
    (1, 0, 4, False),   # A: proc 0's E copy demotes to S (MRU)
    (0, 32, 4, False),  # C: evicts B, the LRU way
    (0, 0, 4, False),   # A: hit
]
DEMOTION_CFG = CacheConfig(size=32, block_size=16, assoc=2, protocol="mesi")


def _demotion_result(kernel):
    return simulate_trace_fast(
        make_trace(DEMOTION_TRACE), 2, DEMOTION_CFG, kernel=kernel
    )


def test_mesi_demotion_reinserts_mru():
    res = _demotion_result("python")
    assert res.per_proc[0].as_tuple() == (3, 0, 0, 0)
    assert res.misses.replace == 0
    if HAVE_NATIVE:
        assert_same_result(_demotion_result("native"), res)
    # under MSI proc 0's A stays S and in place, so C evicts it
    msi = simulate_trace(
        make_trace(DEMOTION_TRACE), 2,
        CacheConfig(size=32, block_size=16, assoc=2, protocol="msi"),
    )
    assert msi.per_proc[0].as_tuple() == (3, 1, 0, 0)


def test_mesi_demotion_trace_sees_a_missing_reinsertion(monkeypatch):
    """A reference core whose ``set_state`` keeps the LRU position
    evicts A instead of B, so the trace above tells the two apart."""

    def set_state_in_place(self, block, state):
        self._set_of(block)[block] = state

    monkeypatch.setattr(Cache, "set_state", set_state_in_place)
    res = _demotion_result("python")
    assert res.per_proc[0].as_tuple() == (3, 1, 0, 0)


# ---------------------------------------------------------------------------
# selection, envelope, fallback
# ---------------------------------------------------------------------------


def test_kernel_mode_env(monkeypatch):
    monkeypatch.setenv(K.KERNEL_ENV, "python")
    assert K.kernel_mode() == "python"
    monkeypatch.setenv(K.KERNEL_ENV, "NATIVE")
    assert K.kernel_mode() == "native"
    monkeypatch.delenv(K.KERNEL_ENV)
    assert K.kernel_mode() == "auto"
    monkeypatch.setenv(K.KERNEL_ENV, "turbo")
    with pytest.raises(SimulationError):
        K.kernel_mode()


def test_python_mode_never_loads(monkeypatch):
    monkeypatch.setenv(K.KERNEL_ENV, "python")
    K.reset_for_tests()
    try:
        assert K.load_kernel() is None
        assert K.active_kernel() == "python"
    finally:
        K.reset_for_tests()


def test_forced_native_errors_when_unavailable(monkeypatch):
    """REPRO_SIM_KERNEL=native must fail loudly, not silently fall back."""
    monkeypatch.setenv(K.KERNEL_ENV, "native")
    monkeypatch.setattr(K, "_lib", None)
    monkeypatch.setattr(K, "_load_attempted", True)
    with pytest.raises(SimulationError, match="native"):
        K.active_kernel()


def test_word_invalidate_always_python():
    assert resolve_kernel(word_invalidate=True) == "python"


def test_envelope_fallback(monkeypatch):
    """A stream outside the envelope falls back in auto mode and raises
    under forced native."""
    trace = Trace(
        proc=np.array([0, 1], np.int32),
        addr=np.array([0, 1 << 57], np.int64),  # block >= 2**50 at bs=32
        size=np.array([4, 4], np.int32),
        is_write=np.array([True, True]),
    )
    events = build_events(trace, 32)
    assert not K.chunk_fits(events.proc, events.block)
    monkeypatch.setenv(K.KERNEL_ENV, "auto")
    assert resolve_kernel(events=events) == "python"
    cfg = CacheConfig(size=1024, block_size=32, assoc=2)
    res = simulate_events(events, 2, cfg)  # must not crash
    assert res.kernel == "python"
    assert_same_result(res, simulate_trace(trace, 2, cfg))
    monkeypatch.setenv(K.KERNEL_ENV, "native")
    if HAVE_NATIVE:
        with pytest.raises(SimulationError, match="envelope"):
            resolve_kernel(events=events)


@needs_native
def test_native_sim_rejects_out_of_envelope_chunk():
    cfg = CacheConfig(size=1024, block_size=32, assoc=2)
    sim = K.NativeSim(2, cfg)
    trace = Trace(
        proc=np.array([63], np.int32),  # > MAX_PROC
        addr=np.array([0], np.int64),
        size=np.array([4], np.int32),
        is_write=np.array([True]),
    )
    with pytest.raises(SimulationError, match="envelope"):
        sim.consume(build_events(trace, 32))
    sim.close()


def test_result_reports_kernel():
    trace = make_trace([(0, 0, 4, True), (1, 4, 4, True)])
    cfg = CacheConfig(size=256, block_size=16, assoc=1)
    py = simulate_trace_fast(trace, 2, cfg, kernel="python")
    assert py.kernel == "python"
    if HAVE_NATIVE:
        nat = simulate_trace_fast(trace, 2, cfg, kernel="native")
        assert nat.kernel == "native"


# ---------------------------------------------------------------------------
# simcache keying regression (kernel variant, engine)
# ---------------------------------------------------------------------------


def _memo_trace():
    rng = np.random.default_rng(11)
    n = 400
    return Trace(
        proc=rng.integers(-1, 4, n).astype(np.int32),
        addr=(rng.integers(0, 128, n) * 4).astype(np.int64),
        size=np.full(n, 4, np.int32),
        is_write=(rng.random(n) < 0.5),
    )


@needs_native
def test_simcache_keys_on_kernel_variant():
    simcache.clear()
    trace = _memo_trace()
    cfg = CacheConfig(size=512, block_size=32, assoc=2)
    py = simcache.cached_simulate(trace, 4, cfg, kernel="python")
    nat = simcache.cached_simulate(trace, 4, cfg, kernel="native")
    assert py is not nat
    assert py.kernel == "python" and nat.kernel == "native"
    assert_same_result(nat, py)
    assert simcache.cached_simulate(trace, 4, cfg, kernel="python") is py
    assert simcache.cached_simulate(trace, 4, cfg, kernel="native") is nat


def test_simcache_reference_engine_keys_python():
    """The reference engine always records the python kernel — it can
    never collide with a fast-engine entry."""
    simcache.clear()
    trace = _memo_trace()
    cfg = CacheConfig(size=512, block_size=32, assoc=2)
    ref = simcache.cached_simulate(trace, 4, cfg, engine="reference")
    fast = simcache.cached_simulate(trace, 4, cfg, engine="fast")
    assert ref is not fast
    assert ref.engine == "reference" and fast.engine == "fast"
    assert_same_result(fast, ref)
