"""Online false-sharing mitigation at phase boundaries.

The paper fixes layouts at compile time; this engine models the
*runtime* alternative sketched in its future-work discussion: watch the
coherence traffic as the program runs, and when a phase boundary (a
barrier release) arrives, re-lay-out the structure that false-shared
worst during the phase that just ended.

The machinery rides entirely on existing pieces:

* the **signal** is the simulator's per-block false-sharing count: the
  core's ``(block, false-sharing misses)`` column snapshot at each phase
  boundary, differenced against the previous one and folded through
  the layout's region map into per-structure phase deltas;
* the **boundaries** are the interpreter's ``RunResult.phase_marks``
  (trace indices at which a barrier released);
* the **repairs** come from the static tuner's action space
  (:func:`repro.tune.space._actions_for`) — pad & align (whole or per
  element) and group & transpose — applied through the
  :class:`~repro.dynamic.overlay.AddressOverlay` rather than a
  recompiled layout, so mitigation happens *mid-run* without replaying
  the phases already simulated;
* the **proof** is the verify oracle: every repair also accumulates its
  static plan fragments, and the final plan is checked for semantic
  equivalence by the caller (``repro experiments --figure dynamic``
  runs :func:`repro.verify.oracle.observe` on it).

Indirection is deliberately *not* in the dynamic action space: moving a
heap field into per-process arenas changes the pointer structure of the
program, which a runtime copy at a barrier cannot do.  The three
repairs used here are all realizable by copy + address patch.

One simulation carries the whole run: the cache/protocol state persists
across a repair, the relocated placement starts cold (its compulsory
refills are the modelled cost of the copy), and the abandoned placement
simply ages out of the LRU sets.  That simulation is the shared batch
driver of :mod:`repro.sim.engine` — a protocol core from
``_make_core`` fed one phase at a time with
:func:`~repro.sim.events.build_events` — so every machine, MSI or
MESI, runs on the native kernel.  A run with zero repairs is
**bit-identical** to the plain simulation of the same trace (event
compaction never changes a simulated result, so compacting each phase
on its own is exact), which keeps the static-vs-dynamic comparison
honest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro import perf
from repro.analysis import analyze_program
from repro.analysis.summary import ProgramAnalysis
from repro.dynamic.overlay import DYN_BASE, AddressOverlay
from repro.layout.datalayout import DataLayout
from repro.layout.regions import build_region_map
from repro.machine.models import resolve_machine
from repro.rsd.ops import owner_table
from repro.runtime.trace import RunResult, Trace
from repro.sim.coherence import SimResult
from repro.sim.engine import _export_core_counters, _make_core, resolve_kernel
from repro.sim.events import build_events
from repro.transform.plan import Decision, TransformPlan
from repro.tune.space import PlanAction, _actions_for

#: A structure must false-share at least this many misses in one phase
#: before the engine moves it (re-layout has a cost; don't chase noise).
MIN_PHASE_FS = 16

#: Most repairs one run will perform (each is a one-way door: a repaired
#: structure is never repaired again).
MAX_REPAIRS = 8


@dataclass(slots=True)
class Repair:
    """One mitigation the engine performed at a phase boundary."""

    #: phase whose traffic triggered the repair (repair happens at its
    #: closing barrier, so phase ``phase + 1`` runs on the new placement)
    phase: int
    structure: str
    #: overlay relocation shape ("pad_align" | "split" | "group_transpose")
    kind: str
    #: the originating static action's rationale
    why: str
    #: false-sharing misses the structure took in the triggering phase
    phase_fs: int


@dataclass(slots=True)
class PhaseStat:
    """Per-phase traffic summary (one row of the engine's decision log)."""

    index: int
    start: int  # trace index range [start, stop)
    stop: int
    fs_misses: int
    hottest: str | None = None
    hottest_fs: int = 0
    repaired: str | None = None


@dataclass(slots=True)
class DynamicRun:
    """Outcome of one dynamically mitigated simulation."""

    result: SimResult
    phases: list[PhaseStat]
    repairs: list[Repair]
    #: the equivalent static plan: base-plan fragments plus every applied
    #: repair's fragments, canonicalized — what the verify oracle checks
    plan: TransformPlan
    overlay: AddressOverlay

    def counters(self) -> dict:
        """Manifest form (the schema-3 ``dynamic`` record)."""
        return {
            "phases": len(self.phases),
            "repairs": len(self.repairs),
            "repaired": sorted(r.structure for r in self.repairs),
            "bytes_moved": self.overlay.bytes_moved,
            "fs_at_repair": sum(r.phase_fs for r in self.repairs),
        }


def _candidate_actions(
    pa: ProgramAnalysis, layout: DataLayout, block_size: int
) -> dict[str, list[PlanAction]]:
    """Legal repair actions per base global, drawn from the tuner's
    action space.  Heap targets are excluded (indirection is the only
    action there, and it is not realizable by a runtime copy); so are
    structures the base plan already grouped (their elements no longer
    live at a contiguous base the overlay could relocate)."""
    by_base: dict[str, list[PlanAction]] = {}
    for target, pat in sorted(pa.patterns.items(), key=lambda kv: str(kv[0])):
        if pat.is_lock or target.is_heap:
            continue
        if target.base not in layout.globals:
            continue
        if target.base in layout.members:
            continue
        acts = [
            a
            for a in _actions_for(pa, target, pat, block_size)
            if a.kind in ("pad_align", "group_transpose")
        ]
        if acts:
            by_base.setdefault(target.base, []).extend(acts)
    return by_base


def _pick_action(actions: list[PlanAction]) -> PlanAction:
    """Strongest repair first: per-element padding isolates every
    element, group & transpose needs an owner structure, whole-object
    padding only fixes cross-structure sharing."""

    def rank(a: PlanAction) -> int:
        if a.kind == "pad_align" and any(p.per_element for p in a.pads):
            return 0
        if a.kind == "group_transpose":
            return 1
        return 2

    return min(actions, key=lambda a: (rank(a), str(a)))


def _apply(
    overlay: AddressOverlay,
    layout: DataLayout,
    name: str,
    action: PlanAction,
    nprocs: int,
) -> str:
    """Realize one static action as an overlay relocation; returns the
    relocation kind actually used."""
    ginfo = layout.globals[name]
    if not ginfo.strides:
        # scalars: grouping and padding both come down to "move it off
        # everyone else's line"
        overlay.pad_whole(name, ginfo.base, ginfo.size)
        return "pad_align"
    nelems, stride = ginfo.type.nelems, ginfo.strides[-1]
    if action.kind == "pad_align" and any(p.per_element for p in action.pads):
        overlay.pad_elements(name, ginfo.base, nelems, stride)
        return "split"
    if action.kind == "group_transpose" and action.group:
        m = action.group[0]
        if m.partition is not None:
            owners = owner_table(m.partition, ginfo.type.dims, nprocs)
        else:
            owners = [m.owner] * nelems
        overlay.group_by_owner(
            name, ginfo.base, nelems, stride, owners, nprocs
        )
        return "group_transpose"
    overlay.pad_whole(name, ginfo.base, ginfo.size)
    return "pad_align"


def _phase_bounds(run: RunResult) -> list[int]:
    """Trace-index boundaries of the run's phases: start, every interior
    barrier release, end."""
    n = len(run.trace)
    marks = sorted({m for m in run.phase_marks if 0 < m < n})
    return [0, *marks, n]


def _extent(trace: Trace, block_size: int) -> SimpleNamespace:
    """The run's processor ids and its lowest and highest block: the
    columns the native kernel's envelope check reads.  Relocations land
    at :data:`DYN_BASE`, far inside that envelope, so the untranslated
    trace bounds every phase."""
    if len(trace) == 0:
        return SimpleNamespace(proc=trace.proc, block=trace.addr)
    addr = trace.addr.astype(np.int64, copy=False)
    size = np.maximum(trace.size.astype(np.int64, copy=False), 1)
    return SimpleNamespace(
        proc=trace.proc,
        block=np.array(
            [addr.min() // block_size, (addr + size - 1).max() // block_size]
        ),
    )


def mitigate(
    checked,
    layout: DataLayout,
    run: RunResult,
    *,
    nprocs: int,
    block_size: int,
    machine=None,
    base_plan: TransformPlan | None = None,
    analysis: ProgramAnalysis | None = None,
    min_phase_fs: int = MIN_PHASE_FS,
    max_repairs: int = MAX_REPAIRS,
) -> DynamicRun:
    """Simulate ``run`` with online re-layout at phase boundaries.

    ``layout`` must be the layout the run was interpreted under (the
    overlay relocates *that* placement); ``base_plan`` is the static
    plan behind it (None for the natural layout) and seeds the
    accumulated equivalence plan — pass both to model the *hybrid*
    static + dynamic arm.  ``analysis`` reuses a precomputed
    :func:`analyze_program` result across calls.
    """
    model = resolve_machine(machine)
    config = model.cache_config(block_size)
    pa = analysis if analysis is not None else analyze_program(checked, nprocs)
    actions = _candidate_actions(pa, layout, block_size)
    regions = build_region_map(layout, run.heap_segments)

    overlay = AddressOverlay(block_size=block_size)
    trace = run.trace
    bounds = _phase_bounds(run)
    dyn_block_lo = DYN_BASE // block_size
    kernel = resolve_kernel(events=_extent(trace, block_size))
    t0 = time.perf_counter()
    core = _make_core(kernel, nprocs, config, False)
    fs_before = [np.zeros(0, dtype=np.int64)] * 2

    phases: list[PhaseStat] = []
    repairs: list[Repair] = []
    applied: list[PlanAction] = []

    for k in range(len(bounds) - 1):
        lo, hi = bounds[k], bounds[k + 1]
        with perf.timer(f"sim.kernel.{kernel}"):
            core.consume(build_events(
                Trace(
                    proc=trace.proc[lo:hi],
                    addr=overlay.translate(trace.addr[lo:hi]),
                    size=trace.size[lo:hi],
                    is_write=trace.is_write[lo:hi],
                ),
                block_size,
            ))
            fs_after = core.fs_snapshot()

        # per-block FS delta of this phase: counts only grow, so every
        # block of the previous snapshot is a row of this one
        blocks, delta = fs_after[0], fs_after[1].copy()
        delta[np.searchsorted(blocks, fs_before[0])] -= fs_before[1]
        fs_before = fs_after
        stat = PhaseStat(
            index=k, start=lo, stop=hi, fs_misses=int(delta.sum())
        )
        # per-structure delta (relocated placements are outside the
        # region map — and outside the candidate set anyway)
        base = (delta > 0) & (blocks < dyn_block_lo)
        if base.any():
            names, row = np.unique(
                regions.names_of_many(blocks[base] * block_size),
                return_inverse=True,
            )
            sums = np.bincount(row, weights=delta[base])
            per_struct = {
                nm: int(n) for nm, n in zip(names.tolist(), sums.tolist())
            }
            candidates = [
                (fs, nm)
                for nm, fs in per_struct.items()
                if nm in actions and not overlay.repaired(nm)
            ]
            top = max(per_struct.items(), key=lambda kv: (kv[1], kv[0]))
            stat.hottest, stat.hottest_fs = top
            if (
                candidates
                and k < len(bounds) - 2  # a repair after the last phase
                and len(repairs) < max_repairs  # would mitigate nothing
            ):
                fs, name = max(candidates)
                if fs >= min_phase_fs:
                    action = _pick_action(actions[name])
                    kind = _apply(overlay, layout, name, action, nprocs)
                    repairs.append(
                        Repair(
                            phase=k, structure=name, kind=kind,
                            why=action.why, phase_fs=fs,
                        )
                    )
                    applied.append(action)
                    stat.repaired = name
        phases.append(stat)

    base = (base_plan or TransformPlan(nprocs=nprocs)).canonical()
    plan = TransformPlan(
        nprocs=max(nprocs, base.nprocs),
        group=list(base.group),
        indirections=list(base.indirections),
        pads=list(base.pads),
        lock_pads=list(base.lock_pads),
        record_pads=list(base.record_pads),
        decisions=list(base.decisions),
    )
    for r, act in zip(repairs, applied):
        plan.group.extend(act.group)
        plan.pads.extend(act.pads)
        plan.decisions.append(
            Decision(
                act.target,
                act.kind,
                f"dynamic: phase {r.phase} saw {r.phase_fs} FS misses "
                f"on {r.structure}; {act.why}",
            )
        )
    with perf.timer(f"sim.kernel.{kernel}"):
        result = core.result(
            extra_refs=sum(run.private_refs.values()),
            sim_seconds=time.perf_counter() - t0,
            engine="dynamic",
        )
    _export_core_counters(result)
    return DynamicRun(
        result=result,
        phases=phases,
        repairs=repairs,
        plan=plan.canonical(),
        overlay=overlay,
    )
