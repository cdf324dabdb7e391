"""Fast-path simulation engine.

Drives the coherence protocol with the pre-split, run-length-compacted
event streams of :mod:`repro.sim.events` instead of re-deriving block
splits and word indices per reference in Python.  Output is
bit-identical to :func:`repro.sim.coherence.simulate_trace` (enforced by
``tests/test_engine_equivalence.py``, ``tests/test_kernel.py`` and the
hypothesis property suites).

There is one driver: :func:`build_events` → :func:`simulate_events`,
running on a protocol core made by :func:`_make_core`.  A core keeps its
cache/directory state across ``consume`` calls, which is how
:func:`repro.dynamic.mitigate` feeds one simulation phase by phase.

Protocol core (kernel) — ``REPRO_SIM_KERNEL``
    * ``auto`` (default): the compiled C kernel of
      :mod:`repro.sim.kernel` when available, Python otherwise;
    * ``native``: require the compiled kernel;
    * ``python``: always the :class:`~repro.sim.coherence.CoherenceSim`
      reference core.

The kernel runs every block-invalidate simulation, MSI and MESI alike;
``word_invalidate=True`` always runs the Python core.
The per-reference :func:`repro.sim.coherence.simulate_trace` loop stays
as the oracle the fast path is checked against
(``cached_simulate(engine="reference")``).

Everything above this module (``simulate_run``, the KSR2 timing model,
the experiment drivers) goes through :func:`repro.sim.simcache.cached_simulate`,
which memoizes results per (trace fingerprint, geometry, engine,
kernel) on top of this.
"""

from __future__ import annotations

import time as _time

from repro import perf
from repro.errors import SimulationError
from repro.runtime.trace import Trace
from repro.sim.cache import CacheConfig
from repro.sim.coherence import CoherenceSim, SimResult, canonical_rows
from repro.sim.kernel import (
    NATIVE,
    PYTHON,
    NativeSim,
    active_kernel,
    chunk_fits,
    kernel_mode,
)
from repro.sim.events import EventStream, build_events

FAST = "fast"
REFERENCE = "reference"


# ---------------------------------------------------------------------------
# protocol cores
# ---------------------------------------------------------------------------


class _PythonCore:
    """The reference protocol core behind the event-consumer interface."""

    __slots__ = ("sim",)

    def __init__(self, nprocs: int, config: CacheConfig,
                 word_invalidate: bool):
        self.sim = CoherenceSim(nprocs, config, word_invalidate=word_invalidate)

    def consume(self, events: EventStream) -> None:
        step = self.sim._access_block
        for ev in zip(
            events.proc.tolist(),
            events.block.tolist(),
            events.w_lo.tolist(),
            events.w_hi.tolist(),
            events.is_write.tolist(),
            events.repeat.tolist(),
        ):
            step(*ev)

    def fs_snapshot(self) -> list:
        """The ``(block, false-sharing misses)`` columns so far."""
        fs = self.sim.block_fs
        return canonical_rows((list(fs), list(fs.values())), 1)

    def result(self, *, extra_refs: int, sim_seconds: float,
               engine: str) -> SimResult:
        res = self.sim.result(
            extra_refs=extra_refs, sim_seconds=sim_seconds, engine=engine
        )
        res.kernel = PYTHON
        return res


def resolve_kernel(
    *,
    word_invalidate: bool = False,
    events: EventStream | None = None,
    kernel: str | None = None,
) -> str:
    """Pick the protocol core for one simulation.

    ``word_invalidate`` always runs on the Python core (the per-word
    state machine is a cold comparison path, out of the C kernel's
    scope); every block-invalidate simulation, MSI or MESI, can run
    natively.  With the full event stream in hand the kernel envelope
    is pre-checked; an ineligible stream falls back to Python in
    ``auto`` mode and raises under ``native``.
    """
    if word_invalidate:
        return PYTHON
    resolved = kernel or active_kernel()
    if resolved == NATIVE and events is not None and not chunk_fits(
        events.proc, events.block
    ):
        if kernel is None and kernel_mode() == NATIVE:
            raise SimulationError(
                "trace exceeds the native kernel envelope "
                "(procs in [-1, 62], blocks < 2**50) and "
                "REPRO_SIM_KERNEL=native forbids the Python fallback"
            )
        perf.add("kernel.envelope_fallback")
        return PYTHON
    return resolved


def _make_core(kernel: str, nprocs: int, config: CacheConfig,
               word_invalidate: bool):
    if kernel == NATIVE:
        return NativeSim(nprocs, config)
    return _PythonCore(nprocs, config, word_invalidate)


def _export_core_counters(res: SimResult) -> None:
    """Surface one simulation's protocol counters through
    :mod:`repro.perf`, tagged by the core that ran it.

    This is what makes native-kernel runs visible to spans and run
    manifests: the C kernel accumulates its statistics internally, so
    without this export a native run leaves no counter trail at all.
    """
    k = res.kernel
    perf.add(f"sim.{k}.runs")
    perf.add(f"sim.{k}.refs", res.refs)
    perf.add(f"sim.{k}.invalidations", res.invalidations)
    perf.add(f"sim.{k}.writebacks", res.writebacks)
    perf.add(f"sim.{k}.upgrades", res.upgrades)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def simulate_events(
    events: EventStream,
    nprocs: int,
    config: CacheConfig,
    *,
    word_invalidate: bool = False,
    extra_refs: int = 0,
    kernel: str | None = None,
) -> SimResult:
    """Run the coherence protocol over a precomputed event stream."""
    if word_invalidate and not events.word_granularity:
        raise ValueError(
            "word_invalidate simulation needs an event stream built with "
            "word_granularity=True (write compaction is unsafe there)"
        )
    t0 = _time.perf_counter()
    resolved = resolve_kernel(
        word_invalidate=word_invalidate, events=events, kernel=kernel,
    )
    with perf.timer(f"sim.kernel.{resolved}"):
        core = _make_core(resolved, nprocs, config, word_invalidate)
        core.consume(events)
        res = core.result(
            extra_refs=extra_refs,
            sim_seconds=_time.perf_counter() - t0,
            engine=FAST,
        )
    _export_core_counters(res)
    return res


def simulate_trace_fast(
    trace: Trace,
    nprocs: int,
    config: CacheConfig,
    *,
    extra_refs: int = 0,
    word_invalidate: bool = False,
    events: EventStream | None = None,
    kernel: str | None = None,
) -> SimResult:
    """Fast-path equivalent of :func:`repro.sim.coherence.simulate_trace`.

    ``events`` lets block-size sweeps reuse a precomputed stream (see
    :mod:`repro.sim.simcache`); when omitted it is built here.
    """
    if events is None:
        events = build_events(
            trace, config.block_size, word_granularity=word_invalidate
        )
    return simulate_events(
        events, nprocs, config,
        word_invalidate=word_invalidate, extra_refs=extra_refs,
        kernel=kernel,
    )
