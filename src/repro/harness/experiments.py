"""Experiment drivers: one function per table/figure of the paper.

=============  ===========================================================
``table1``     benchmark inventory
``figure3``    miss rates split into FS/other, N vs C, 16 B and 128 B
``table2``     FS reduction per program, attributed per transformation
``figure4``    speedup curves (N/C/P) for representative programs
``table3``     maximum speedup and where it occurs, all programs/versions
``headline``   the section-5 aggregate statistics
``rws``        false sharing under randomized work stealing vs the
               Cole–Ramachandran O(steal-count) bound
=============  ===========================================================

Every driver returns plain dataclasses; the rendering lives in
:mod:`repro.harness.reporting`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

from repro.harness import parallel
from repro.harness.parallel import Point, resolve_plan
from repro.obs import spans as obs
from repro.harness.pipeline import Pipeline, VersionRun
from repro.machine import SpeedupCurve, build_curve, resolve_machine
from repro.runtime.stealing import RR, SchedConfig, fs_bound
from repro.transform import ALL_KINDS, TransformPlan
from repro.workloads.base import Workload
from repro.workloads.registry import (
    ALL_WORKLOADS,
    SIMULATION_WORKLOADS,
    by_name,
    table1_rows,
)

#: Table 2 averages over these block sizes ("averages over 8-256 byte
#: cache blocks").
TABLE2_BLOCK_SIZES = (8, 16, 32, 64, 128, 256)

#: Figure 3 shows 16- and 128-byte blocks.
FIGURE3_BLOCK_SIZES = (16, 128)

#: Default processor sweep for the execution-time experiments.
DEFAULT_SWEEP = (1, 2, 4, 8, 12, 16, 24, 32, 48)


def _spanned(fn):
    """Run an experiment driver under an ``experiments.<name>`` span so
    a profiled suite shows where each artifact's time went."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(f"experiments.{fn.__name__}"):
            return fn(*args, **kwargs)

    return wrapper


class WorkloadLab:
    """Caches pipelines and runs across experiments.

    ``jobs`` bounds the worker processes used by :meth:`prefetch`
    (default: the ``REPRO_JOBS`` environment knob, falling back to the
    CPU count).  Version labels are ``N``/``C``/``P`` plus the Table 2
    attribution form ``C[<kind>]``.
    """

    def __init__(self, block_size: int = 128, jobs: Optional[int] = None):
        self.block_size = block_size
        self.jobs = jobs
        self._pipes: dict[str, Pipeline] = {}
        self._runs: dict[Point, VersionRun] = {}

    def pipeline(self, wl: Workload) -> Pipeline:
        pipe = self._pipes.get(wl.name)
        if pipe is None:
            pipe = self._pipes[wl.name] = wl.pipeline(self.block_size)
        return pipe

    def run(self, wl: Workload, version: str, nprocs: int) -> VersionRun:
        key = (wl.name, version, nprocs)
        got = self._runs.get(key)
        if got is None:
            pipe = self.pipeline(wl)
            plan = resolve_plan(pipe, wl, version, nprocs)
            got = self._runs[key] = pipe.execute(nprocs, plan, version)
        return got

    def prefetch(self, points: Sequence[Point]) -> None:
        """Interpret not-yet-cached grid points, in parallel when the
        machine has spare cores.

        Workers ship back only the :class:`RunResult`; each
        ``VersionRun`` is rebuilt here from the lab's own pipelines, so
        the merged state is identical to a serial run.  Any point the
        pool failed to produce is simply interpreted serially on first
        :meth:`run`.
        """
        todo: list[Point] = []
        for p in dict.fromkeys(points):  # dedup, keep grid order
            if p not in self._runs:
                todo.append(p)
        if len(todo) <= 1:
            return
        with obs.span("lab.prefetch", points=len(todo)):
            produced = parallel.run_points(todo, self.block_size, self.jobs)
            for (name, version, nprocs), run in produced.items():
                wl = by_name(name)
                pipe = self.pipeline(wl)
                plan = resolve_plan(pipe, wl, version, nprocs)
                self._runs[(name, version, nprocs)] = pipe.execute(
                    nprocs, plan, version, run=run
                )


# --------------------------------------------------------------------------
# Table 1
# --------------------------------------------------------------------------


def table1() -> list[dict]:
    """The benchmark inventory (program, description, LoC, versions)."""
    return table1_rows()


# --------------------------------------------------------------------------
# Figure 3
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Figure3Cell:
    miss_rate: float
    fs_rate: float


@dataclass(slots=True)
class Figure3Row:
    program: str
    nprocs: int
    #: (block_size, version) -> cell; version is "N" or "C"
    cells: dict[tuple[int, str], Figure3Cell] = field(default_factory=dict)


@dataclass(slots=True)
class Figure3Result:
    rows: list[Figure3Row] = field(default_factory=list)

    def row(self, program: str) -> Figure3Row:
        for r in self.rows:
            if r.program == program:
                return r
        raise KeyError(program)


@_spanned
def figure3(
    workloads: Sequence[Workload] = SIMULATION_WORKLOADS,
    block_sizes: Sequence[int] = FIGURE3_BLOCK_SIZES,
    lab: Optional[WorkloadLab] = None,
) -> Figure3Result:
    """Total and false-sharing miss rates for unoptimized vs
    compiler-transformed versions.  Each program runs on 12 processors
    (Topopt on 9), as in the paper."""
    lab = lab or WorkloadLab()
    lab.prefetch(
        [
            (wl.name, v, wl.fig3_procs)
            for wl in workloads
            for v in ("N", "C")
        ]
    )
    result = Figure3Result()
    for wl in workloads:
        nprocs = wl.fig3_procs
        row = Figure3Row(program=wl.name, nprocs=nprocs)
        for version in ("N", "C"):
            vr = lab.run(wl, version, nprocs)
            for bs in block_sizes:
                sim = vr.simulate(bs)
                row.cells[(bs, version)] = Figure3Cell(
                    miss_rate=sim.miss_rate, fs_rate=sim.fs_miss_rate
                )
                _record_point(wl, version, vr, sim)
        result.rows.append(row)
    return result


def _record_point(wl: Workload, version: str, vr: VersionRun, sim) -> None:
    """Append one grid point to the ``REPRO_RUN_LOG`` manifest.

    This is the experiment drivers' ingest feed for the run-record
    store (:mod:`repro.obs.store`): each simulated (workload, version,
    block size) cell becomes one queryable record.  No-op — and no
    attribution cost — when the log is not configured.
    """
    from repro.obs import attribution, manifest

    if manifest.log_path() is None:
        return
    manifest.record(
        manifest.sim_record(
            kind="experiment",
            workload=f"{wl.name}/{version}",
            source=wl.source,
            plan_desc="natural" if vr.plan is None else vr.plan.describe(),
            nprocs=vr.nprocs,
            block_size=sim.config.block_size,
            sim=sim,
            fs_by_structure=attribution.fs_table(
                sim, vr.regions()
            ).fs_by_structure,
        )
    )


# --------------------------------------------------------------------------
# Table 2
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Table2Row:
    program: str
    total_reduction: float  # percent
    #: transformation kind -> percentage points of the reduction
    by_transform: dict[str, float] = field(default_factory=dict)
    paper_total: Optional[float] = None


@dataclass(slots=True)
class Table2Result:
    rows: list[Table2Row] = field(default_factory=list)

    def row(self, program: str) -> Table2Row:
        for r in self.rows:
            if r.program == program:
                return r
        raise KeyError(program)


def _fs_misses(vr: VersionRun, block_sizes: Iterable[int]) -> dict[int, int]:
    return {bs: vr.simulate(bs).misses.false_sharing for bs in block_sizes}


@_spanned
def table2(
    workloads: Sequence[Workload] = SIMULATION_WORKLOADS,
    block_sizes: Sequence[int] = TABLE2_BLOCK_SIZES,
    lab: Optional[WorkloadLab] = None,
) -> Table2Result:
    """False-sharing reduction per program, attributed per
    transformation.

    Attribution runs the compiler plan *restricted to each
    transformation kind alone*; each kind's contribution is its solo
    reduction, normalized so the contributions sum to the full plan's
    reduction (transformations interact only weakly, so this matches the
    paper's accounting)."""
    lab = lab or WorkloadLab()
    points: list[Point] = []
    for wl in workloads:
        nprocs = wl.fig3_procs
        plan = lab.pipeline(wl).compiler_plan(nprocs)
        points += [(wl.name, "N", nprocs), (wl.name, "C", nprocs)]
        points += [
            (wl.name, f"C[{kind}]", nprocs)
            for kind in sorted(ALL_KINDS)
            if not plan.restricted_to({kind}).is_empty
        ]
    lab.prefetch(points)
    result = Table2Result()
    for wl in workloads:
        nprocs = wl.fig3_procs
        pipe = lab.pipeline(wl)
        plan = pipe.compiler_plan(nprocs)
        base = lab.run(wl, "N", nprocs)
        full = lab.run(wl, "C", nprocs)
        fs_n = _fs_misses(base, block_sizes)
        fs_c = _fs_misses(full, block_sizes)
        total_red = _mean(
            [
                1.0 - fs_c[bs] / fs_n[bs] if fs_n[bs] else 0.0
                for bs in block_sizes
            ]
        )
        solo_red: dict[str, float] = {}
        for kind in sorted(ALL_KINDS):
            sub = plan.restricted_to({kind})
            if sub.is_empty:
                continue
            vr = lab.run(wl, f"C[{kind}]", nprocs)
            fs_k = _fs_misses(vr, block_sizes)
            solo_red[kind] = _mean(
                [
                    max(1.0 - fs_k[bs] / fs_n[bs], 0.0) if fs_n[bs] else 0.0
                    for bs in block_sizes
                ]
            )
        denom = sum(solo_red.values())
        by_transform = {
            kind: (red / denom) * total_red * 100.0 if denom else 0.0
            for kind, red in solo_red.items()
        }
        result.rows.append(
            Table2Row(
                program=wl.name,
                total_reduction=total_red * 100.0,
                by_transform=by_transform,
                paper_total=wl.paper_fs_reduction,
            )
        )
    return result


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


# --------------------------------------------------------------------------
# Figure 4 / Table 3
# --------------------------------------------------------------------------

#: Figure 4's representative programs.
FIGURE4_PROGRAMS = ("Raytrace", "Fmm", "Pverify")


def sweep_points(
    workloads: Sequence[Workload], proc_counts: Sequence[int]
) -> list[Point]:
    """The (workload, version, nprocs) grid of a speedup sweep.

    The N curve always runs (it is the normalization baseline), plus
    every version the paper reports for the program."""
    return [
        (wl.name, v, P)
        for wl in workloads
        for v in ("N", "C", "P")
        if v == "N" or v in wl.versions
        for P in proc_counts
    ]


@dataclass(slots=True)
class ScalabilityResult:
    program: str
    curves: dict[str, SpeedupCurve] = field(default_factory=dict)
    baseline_cycles: float = 0.0


@_spanned
def scalability(
    wl: Workload,
    proc_counts: Sequence[int] = DEFAULT_SWEEP,
    lab: Optional[WorkloadLab] = None,
    machine=None,
) -> ScalabilityResult:
    """Speedup curves for every available version of one workload,
    normalized to the uniprocessor run of the natural (unoptimized)
    layout — the paper's normalization.  Timed on ``machine`` (None:
    the active machine) calibrated with the workload's ``cpi``."""
    lab = lab or WorkloadLab()
    model = replace(resolve_machine(machine), cpi=wl.cpi)
    lab.prefetch(sweep_points([wl], proc_counts))
    result = ScalabilityResult(program=wl.name)
    base_curve, base = build_curve(
        "N",
        lambda P: lab.run(wl, "N", P).run,
        proc_counts,
        machine=model,
    )
    result.baseline_cycles = base
    if "N" in wl.versions:
        result.curves["N"] = base_curve
    for version in ("C", "P"):
        if version not in wl.versions:
            continue
        curve, _ = build_curve(
            version,
            lambda P: lab.run(wl, version, P).run,
            proc_counts,
            baseline_cycles=base,
            machine=model,
        )
        result.curves[version] = curve
    return result


@_spanned
def figure4(
    programs: Sequence[str] = FIGURE4_PROGRAMS,
    proc_counts: Sequence[int] = DEFAULT_SWEEP,
    lab: Optional[WorkloadLab] = None,
) -> list[ScalabilityResult]:
    lab = lab or WorkloadLab()
    workloads = [by_name(p) for p in programs]
    lab.prefetch(sweep_points(workloads, proc_counts))
    return [scalability(wl, proc_counts, lab) for wl in workloads]


@dataclass(slots=True)
class Table3Row:
    program: str
    #: version -> (max speedup, processor count at the max)
    results: dict[str, tuple[float, int]] = field(default_factory=dict)
    paper: dict[str, tuple[float, int]] = field(default_factory=dict)


@_spanned
def table3(
    workloads: Sequence[Workload] = ALL_WORKLOADS,
    proc_counts: Sequence[int] = DEFAULT_SWEEP,
    lab: Optional[WorkloadLab] = None,
) -> list[Table3Row]:
    lab = lab or WorkloadLab()
    lab.prefetch(sweep_points(workloads, proc_counts))
    rows: list[Table3Row] = []
    for wl in workloads:
        sc = scalability(wl, proc_counts, lab)
        row = Table3Row(program=wl.name, paper=dict(wl.paper_max_speedup))
        for version, curve in sc.curves.items():
            row.results[version] = (curve.max_speedup, curve.max_at)
        rows.append(row)
    return rows


@dataclass(slots=True)
class ImprovementRow:
    """Section 5's execution-time claim: over the range where the
    unoptimized version still scales, the compiler version's
    improvement "progressively increased", peaking between 2% and 58%
    depending on the program."""

    program: str
    #: processor count -> fractional time improvement of C over N
    by_procs: dict[int, float]

    @property
    def max_improvement(self) -> float:
        return max(self.by_procs.values()) if self.by_procs else 0.0


@_spanned
def improvements(
    workloads: Optional[Sequence[Workload]] = None,
    proc_counts: Sequence[int] = DEFAULT_SWEEP,
    lab: Optional[WorkloadLab] = None,
) -> list[ImprovementRow]:
    """C-over-N execution-time improvement across N's scaling range,
    for the workloads that have an unoptimized version."""
    from repro.machine import improvement_while_scaling
    from repro.workloads.registry import SIMULATION_WORKLOADS

    lab = lab or WorkloadLab()
    workloads = workloads or SIMULATION_WORKLOADS
    lab.prefetch(sweep_points(workloads, proc_counts))
    rows: list[ImprovementRow] = []
    for wl in workloads:
        sc = scalability(wl, proc_counts, lab)
        if "N" not in sc.curves or "C" not in sc.curves:
            continue
        rows.append(
            ImprovementRow(
                program=wl.name,
                by_procs=improvement_while_scaling(
                    sc.curves["N"], sc.curves["C"]
                ),
            )
        )
    return rows


# --------------------------------------------------------------------------
# Randomized work stealing (arXiv:1103.4142 shape)
# --------------------------------------------------------------------------

#: The rws sweep reuses the golden conformance trio — between them they
#: exercise every transformation family, and their rr FS counts are
#: already pinned by the golden snapshots.
RWS_WORKLOADS = ("Maxflow", "Pverify", "Radiosity")
RWS_BLOCK_SIZES = (4, 64, 128)
RWS_PROC_COUNTS = (4, 8)
RWS_SEEDS = (1, 2, 3)


@dataclass(slots=True)
class RwsPoint:
    """One (workload, nprocs, seed, block size) cell of the rws sweep."""

    workload: str
    nprocs: int
    seed: int
    block_size: int
    #: false-sharing misses under deterministic round-robin
    fs_rr: int
    #: false-sharing misses under the seeded steal schedule
    fs_steal: int
    #: steals / task migrations the schedule performed
    steals: int
    migrations: int
    #: the Cole–Ramachandran prediction: rr FS plus O(steals × words)
    bound: int

    @property
    def overhead(self) -> int:
        """Extra FS misses the stochastic schedule paid (can be
        negative: a migration can also *break up* a pathological
        rr interleaving)."""
        return self.fs_steal - self.fs_rr

    @property
    def within_bound(self) -> bool:
        return self.fs_steal <= self.bound

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "nprocs": self.nprocs,
            "seed": self.seed,
            "block_size": self.block_size,
            "fs_rr": self.fs_rr,
            "fs_steal": self.fs_steal,
            "steals": self.steals,
            "migrations": self.migrations,
            "bound": self.bound,
            "overhead": self.overhead,
            "within_bound": self.within_bound,
        }


@dataclass(slots=True)
class RwsResult:
    """The full sweep; ``points`` covers the cross product."""

    workloads: tuple[str, ...]
    block_sizes: tuple[int, ...]
    proc_counts: tuple[int, ...]
    seeds: tuple[int, ...]
    points: list[RwsPoint] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.within_bound for p in self.points)

    def violations(self) -> list[RwsPoint]:
        return [p for p in self.points if not p.within_bound]

    def to_dict(self) -> dict:
        """The JSON form written to ``benchmarks/results/BENCH_rws.json``."""
        return {
            "experiment": "rws",
            "workloads": list(self.workloads),
            "block_sizes": list(self.block_sizes),
            "proc_counts": list(self.proc_counts),
            "seeds": list(self.seeds),
            "ok": self.ok,
            "points": [p.to_dict() for p in self.points],
        }


def _record_rws_point(wl: Workload, vr: VersionRun, point: RwsPoint) -> None:
    """One manifest record per steal-schedule cell (no-op when
    ``REPRO_RUN_LOG`` is unset), carrying the rws comparison fields
    under ``extra`` and the steal counters from the run itself."""
    from repro.obs import manifest

    if manifest.log_path() is None:
        return
    sim = vr.simulate(point.block_size)
    manifest.record(
        manifest.sim_record(
            kind="rws",
            workload=f"{wl.name}/N",
            source=wl.source,
            plan_desc="natural",
            nprocs=point.nprocs,
            block_size=point.block_size,
            sim=sim,
            extra={
                "sched": vr.run.sched,
                "rws": point.to_dict(),
            },
        )
    )


@_spanned
def rws(
    workloads: Sequence[str] = RWS_WORKLOADS,
    block_sizes: Sequence[int] = RWS_BLOCK_SIZES,
    proc_counts: Sequence[int] = RWS_PROC_COUNTS,
    seeds: Sequence[int] = RWS_SEEDS,
) -> RwsResult:
    """Measure false sharing under randomized work stealing against the
    Cole–Ramachandran prediction.

    For every workload and processor count the natural version runs
    once under round-robin (the static-schedule baseline) and once per
    seed under the steal scheduler; each (block size, seed) cell pairs
    the measured steal-schedule FS misses with the bound
    :func:`repro.runtime.stealing.fs_bound` computes from the rr FS
    count and the run's actual steal count.  The bypassed
    :class:`WorkloadLab` is deliberate: lab runs are keyed by (name,
    version, nprocs) with no scheduler axis, and every pipeline here
    carries its own explicit :class:`SchedConfig`.
    """
    result = RwsResult(
        workloads=tuple(workloads),
        block_sizes=tuple(block_sizes),
        proc_counts=tuple(proc_counts),
        seeds=tuple(seeds),
    )
    for name in workloads:
        wl = by_name(name)
        for nprocs in proc_counts:
            rr_vr = Pipeline(wl.source, sched=RR).run_unoptimized(nprocs)
            fs_rr = {
                bs: rr_vr.simulate(bs).misses.false_sharing
                for bs in block_sizes
            }
            for seed in seeds:
                pipe = Pipeline(
                    wl.source, sched=SchedConfig("steal", seed=seed)
                )
                vr = pipe.run_unoptimized(nprocs)
                stats = vr.run.sched
                assert stats is not None  # steal runs always carry stats
                for bs in block_sizes:
                    point = RwsPoint(
                        workload=wl.name,
                        nprocs=nprocs,
                        seed=seed,
                        block_size=bs,
                        fs_rr=fs_rr[bs],
                        fs_steal=vr.simulate(bs).misses.false_sharing,
                        steals=stats["steals"],
                        migrations=stats["migrations"],
                        bound=fs_bound(
                            fs_rr[bs], stats["steals"], bs, nprocs
                        ),
                    )
                    _record_rws_point(wl, vr, point)
                    result.points.append(point)
    return result


# --------------------------------------------------------------------------
# Dynamic mitigation (static vs runtime re-layout at phase boundaries)
# --------------------------------------------------------------------------

#: Same golden trio as the rws sweep: Maxflow and Pverify are barrier
#: driven (the dynamic engine gets phase boundaries to act on), while
#: Radiosity's task-queue kernel has none — its dynamic arm degenerates
#: to the natural layout, the honest control case.
DYNAMIC_WORKLOADS = ("Maxflow", "Pverify", "Radiosity")
DYNAMIC_BLOCK_SIZES = (4, 64, 128)
DYNAMIC_MACHINES = ("ksr2", "modern64", "numa2")
DYNAMIC_NPROCS = 8


@dataclass(slots=True)
class DynamicPoint:
    """One (workload, machine, block size) cell: false-sharing misses of
    the four arms plus what the dynamic engine did."""

    workload: str
    machine: str
    block_size: int
    nprocs: int
    #: FS misses: natural layout, static compiler plan, natural +
    #: runtime repairs, compiler plan + runtime repairs
    fs_natural: int
    fs_static: int
    fs_dynamic: int
    fs_hybrid: int
    #: repairs each mitigated arm performed
    dynamic_repairs: int
    hybrid_repairs: int
    repaired: list[str] = field(default_factory=list)
    #: both arms' final accumulated plans passed the verify oracle
    verified: bool = False

    @property
    def dynamic_helps(self) -> bool:
        """Runtime mitigation never made the natural layout worse."""
        return self.fs_dynamic <= self.fs_natural

    @property
    def hybrid_best(self) -> bool:
        return self.fs_hybrid <= min(self.fs_static, self.fs_dynamic)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "machine": self.machine,
            "block_size": self.block_size,
            "nprocs": self.nprocs,
            "fs_natural": self.fs_natural,
            "fs_static": self.fs_static,
            "fs_dynamic": self.fs_dynamic,
            "fs_hybrid": self.fs_hybrid,
            "dynamic_repairs": self.dynamic_repairs,
            "hybrid_repairs": self.hybrid_repairs,
            "repaired": list(self.repaired),
            "verified": self.verified,
            "dynamic_helps": self.dynamic_helps,
            "hybrid_best": self.hybrid_best,
        }


@dataclass(slots=True)
class DynamicResult:
    """The full static-vs-dynamic-vs-hybrid sweep."""

    workloads: tuple[str, ...]
    machines: tuple[str, ...]
    block_sizes: tuple[int, ...]
    nprocs: int
    points: list[DynamicPoint] = field(default_factory=list)

    @property
    def verified_ok(self) -> bool:
        return all(p.verified for p in self.points)

    def hybrid_wins(self) -> dict[str, bool]:
        """Per workload: did the hybrid arm beat (or match) both pure
        arms on every machine/block-size cell?"""
        wins: dict[str, bool] = {}
        for p in self.points:
            wins[p.workload] = wins.get(p.workload, True) and p.hybrid_best
        return wins

    @property
    def ok(self) -> bool:
        """The headline claim: every final plan verified, dynamic never
        hurt, and hybrid ≤ min(static, dynamic) on at least two of the
        three workloads."""
        wins = sum(1 for won in self.hybrid_wins().values() if won)
        return (
            self.verified_ok
            and all(p.dynamic_helps for p in self.points)
            and wins >= 2
        )

    def to_dict(self) -> dict:
        """The JSON written to ``benchmarks/results/BENCH_dynamic.json``."""
        return {
            "experiment": "dynamic",
            "workloads": list(self.workloads),
            "machines": list(self.machines),
            "block_sizes": list(self.block_sizes),
            "nprocs": self.nprocs,
            "ok": self.ok,
            "verified_ok": self.verified_ok,
            "hybrid_wins": self.hybrid_wins(),
            "points": [p.to_dict() for p in self.points],
        }


def _plan_verified(checked, plan, nprocs: int, cache: dict) -> bool:
    """Oracle-check one accumulated plan (memoized per fingerprint —
    the same final plan recurs across machines and block sizes)."""
    from repro.verify.oracle import diff_states, observe

    if plan.is_empty:
        return True
    fp = plan.fingerprint
    got = cache.get(fp)
    if got is None:
        base = cache.get("__base__")
        if base is None:
            base = cache["__base__"] = observe(checked, None, nprocs)[0]
        got = cache[fp] = not diff_states(
            base, observe(checked, plan, nprocs)[0]
        )
    return got


def _record_dynamic_point(
    wl: Workload, vr: VersionRun, arm: str, model, dyn, verified: bool
) -> None:
    """One schema-3 manifest record per mitigated arm (no-op when
    ``REPRO_RUN_LOG`` is unset): machine identity from the model, the
    engine's counters under ``dynamic``."""
    from repro.obs import manifest

    if manifest.log_path() is None:
        return
    manifest.record(
        manifest.sim_record(
            kind="dynamic",
            workload=f"{wl.name}/{arm}",
            source=wl.source,
            plan_desc=dyn.plan.describe(),
            nprocs=vr.nprocs,
            block_size=dyn.result.config.block_size,
            sim=dyn.result,
            dynamic=dyn.counters(),
            machine_name=model.name,
            extra={"arm": arm, "verified": verified},
        )
    )


@_spanned
def dynamic(
    workloads: Sequence[str] = DYNAMIC_WORKLOADS,
    machines: Sequence[str] = DYNAMIC_MACHINES,
    block_sizes: Sequence[int] = DYNAMIC_BLOCK_SIZES,
    nprocs: int = DYNAMIC_NPROCS,
) -> "DynamicResult":
    """Static vs dynamic vs hybrid false-sharing mitigation across
    machine geometries.

    Four arms per (workload, machine, block size) cell, all over the
    same two interpreted runs:

    * **natural** — the unoptimized layout, simulated as-is;
    * **static** — the compiler plan's layout, simulated as-is;
    * **dynamic** — the natural run fed through
      :func:`repro.dynamic.mitigate`, which re-lays-out the worst
      false-sharing structure at each barrier release;
    * **hybrid** — the compiler-plan run with the same online engine
      repairing whatever the static heuristics left behind.

    Every mitigated arm's accumulated plan is checked by the verify
    oracle; a cell only counts as verified when both pass.
    """
    from repro.dynamic import mitigate
    from repro.machine import get_machine

    result = DynamicResult(
        workloads=tuple(workloads),
        machines=tuple(machines),
        block_sizes=tuple(block_sizes),
        nprocs=nprocs,
    )
    for name in workloads:
        wl = by_name(name)
        pipe = Pipeline(wl.source, sched=RR)
        nat = pipe.run_unoptimized(nprocs)
        stat = pipe.run_compiler(nprocs)
        pa = pipe.analysis(nprocs)
        plan_c = pipe.compiler_plan(nprocs)
        oracle_cache: dict = {}
        for mname in machines:
            model = get_machine(mname)
            for bs in block_sizes:
                sn = nat.simulate(bs, machine=model)
                ss = stat.simulate(bs, machine=model)
                dyn = mitigate(
                    pipe.checked, nat.layout, nat.run,
                    nprocs=nprocs, block_size=bs, machine=model,
                    analysis=pa,
                )
                hyb = mitigate(
                    pipe.checked, stat.layout, stat.run,
                    nprocs=nprocs, block_size=bs, machine=model,
                    base_plan=plan_c, analysis=pa,
                )
                verified = _plan_verified(
                    pipe.checked, dyn.plan, nprocs, oracle_cache
                ) and _plan_verified(
                    pipe.checked, hyb.plan, nprocs, oracle_cache
                )
                _record_dynamic_point(wl, nat, "D", model, dyn, verified)
                _record_dynamic_point(wl, stat, "H", model, hyb, verified)
                result.points.append(
                    DynamicPoint(
                        workload=wl.name,
                        machine=model.name,
                        block_size=bs,
                        nprocs=nprocs,
                        fs_natural=sn.misses.false_sharing,
                        fs_static=ss.misses.false_sharing,
                        fs_dynamic=dyn.result.misses.false_sharing,
                        fs_hybrid=hyb.result.misses.false_sharing,
                        dynamic_repairs=len(dyn.repairs),
                        hybrid_repairs=len(hyb.repairs),
                        repaired=sorted(
                            {r.structure for r in dyn.repairs}
                            | {r.structure for r in hyb.repairs}
                        ),
                        verified=verified,
                    )
                )
    return result


# --------------------------------------------------------------------------
# Headline statistics (section 5 text)
# --------------------------------------------------------------------------


@dataclass(slots=True)
class HeadlineStats:
    """The aggregate claims of section 5 at 128-byte blocks plus the
    64-byte total-miss-rate reduction quoted against [TLH94]."""

    fs_fraction_of_misses: float       # paper: ~0.70 at 128 B
    fs_eliminated: float               # paper: ~0.80
    other_miss_increase: float         # paper: ~0.19
    total_miss_reduction_128: float    # paper: ~0.5 ("total ... by half")
    total_miss_reduction_64: float     # paper: 0.49 average at 64 B


@_spanned
def headline(
    workloads: Sequence[Workload] = SIMULATION_WORKLOADS,
    lab: Optional[WorkloadLab] = None,
) -> HeadlineStats:
    lab = lab or WorkloadLab()
    lab.prefetch(
        [
            (wl.name, v, wl.fig3_procs)
            for wl in workloads
            for v in ("N", "C")
        ]
    )
    fs_n = other_n = fs_c = other_c = 0
    tot_n64 = tot_c64 = 0
    for wl in workloads:
        nprocs = wl.fig3_procs
        sn = lab.run(wl, "N", nprocs).simulate(128)
        sc = lab.run(wl, "C", nprocs).simulate(128)
        fs_n += sn.misses.false_sharing
        other_n += sn.total_misses - sn.misses.false_sharing
        fs_c += sc.misses.false_sharing
        other_c += sc.total_misses - sc.misses.false_sharing
        tot_n64 += lab.run(wl, "N", nprocs).simulate(64).total_misses
        tot_c64 += lab.run(wl, "C", nprocs).simulate(64).total_misses
    total_n = fs_n + other_n
    total_c = fs_c + other_c
    return HeadlineStats(
        fs_fraction_of_misses=fs_n / total_n if total_n else 0.0,
        fs_eliminated=1.0 - fs_c / fs_n if fs_n else 0.0,
        other_miss_increase=other_c / other_n - 1.0 if other_n else 0.0,
        total_miss_reduction_128=1.0 - total_c / total_n if total_n else 0.0,
        total_miss_reduction_64=1.0 - tot_c64 / tot_n64 if tot_n64 else 0.0,
    )
