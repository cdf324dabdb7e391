"""End-to-end pipeline: source → analysis → plan → layout → trace →
simulation → timing.

Program versions follow the paper's methodology (section 4):

* **N** (unoptimized): the natural layout of the source;
* **C** (compiler): the plan produced by the static analyses and the
  section-3.3 heuristics;
* **P** (programmer): a hand-written plan modelling the documented
  programmer efforts — including what the programmers *missed* (unpadded
  locks, skipped group&transpose chances, an over-eager pad), which is
  what the compiler-vs-programmer comparison measures.

Execution goes through the persistent trace cache
(:mod:`repro.runtime.trace_cache`): a run is keyed by its full input
hash, so a cache hit skips interpretation — the dominant cost — and
repeat experiment suites replay frozen traces only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.obs import spans as obs
from repro.analysis import ProgramAnalysis, analyze_program
from repro.lang import CheckedProgram, compile_source
from repro.layout import DataLayout
from repro.layout.regions import RegionMap, build_region_map
from repro.machine import TimingResult, time_run
from repro.runtime import RunResult, SchedConfig, resolve_sched, run_program
from repro.runtime import trace_cache
from repro.sim import SimResult, simulate_run
from repro.transform import TransformPlan, decide_transformations


@dataclass(slots=True)
class VersionRun:
    """One program version executed at one process count."""

    version: str  # "N" | "C" | "P" (or an attribution label)
    nprocs: int
    checked: CheckedProgram
    plan: Optional[TransformPlan]
    layout: DataLayout
    run: RunResult
    #: wall-clock seconds spent in ``run_program`` — interpreting, or
    #: translating from an earlier run (0.0 on a cache hit)
    interp_seconds: float = 0.0
    #: True when the run was replayed from the persistent trace cache
    from_cache: bool = False
    #: lazily built by :meth:`regions` — layout and heap segments are
    #: fixed once the run exists, so one map serves every block size
    _region_map: Optional[RegionMap] = None

    def simulate(self, block_size: int, **kw) -> SimResult:
        return simulate_run(self.run, block_size, **kw)

    def regions(self) -> RegionMap:
        if self._region_map is None:
            self._region_map = build_region_map(
                self.layout, self.run.heap_segments
            )
        return self._region_map

    def timing(self, machine=None) -> TimingResult:
        return time_run(self.run, machine)


class Pipeline:
    """Compiles a source once and executes versions of it on demand.

    Analysis results and transformation plans are cached per process
    count; runs are cached per (version label, plan identity, nprocs)
    by :class:`~repro.harness.experiments.WorkloadLab`, and persistently
    by the trace cache.
    """

    def __init__(self, source: str, *, block_size: int = 128,
                 max_steps: int = 200_000_000,
                 sched: Optional[SchedConfig] = None):
        self.source = source
        self.block_size = block_size
        self.max_steps = max_steps
        #: scheduling policy for every run of this pipeline — explicit
        #: config wins, else the REPRO_SCHED* environment decides
        self.sched = sched if sched is not None else resolve_sched()
        with obs.span("pipeline.compile"):
            self.checked = compile_source(source)
        self._analyses: dict[int, ProgramAnalysis] = {}
        self._plans: dict[int, TransformPlan] = {}

    # -- analysis ---------------------------------------------------------------

    def analysis(self, nprocs: int) -> ProgramAnalysis:
        pa = self._analyses.get(nprocs)
        if pa is None:
            with obs.span("pipeline.analysis", nprocs=nprocs):
                pa = analyze_program(self.checked, nprocs)
            self._analyses[nprocs] = pa
        return pa

    def compiler_plan(self, nprocs: int) -> TransformPlan:
        plan = self._plans.get(nprocs)
        if plan is None:
            with obs.span("pipeline.plan", nprocs=nprocs):
                plan = decide_transformations(
                    self.analysis(nprocs), block_size=self.block_size
                )
            self._plans[nprocs] = plan
        return plan

    # -- execution ----------------------------------------------------------------

    def _run_key(self, plan: Optional[TransformPlan], nprocs: int) -> str:
        plan_desc = "natural" if plan is None else plan.describe()
        return trace_cache.run_key(
            self.source, plan_desc, nprocs, self.block_size,
            quantum=4, max_steps=self.max_steps,
            sched=self.sched.describe(),
        )

    def execute(
        self,
        nprocs: int,
        plan: Optional[TransformPlan] = None,
        version: str = "N",
        run: Optional[RunResult] = None,
    ) -> VersionRun:
        """Execute (or replay) one version at one process count.

        ``run`` lets callers attach a precomputed
        :class:`~repro.runtime.trace.RunResult` — the parallel
        experiment lab interprets in worker processes and rebuilds the
        ``VersionRun`` here without re-interpreting.
        """
        layout = DataLayout(
            self.checked, plan, block_size=self.block_size, nprocs=nprocs
        )
        interp_seconds = 0.0
        from_cache = False
        if run is None:
            with obs.span(
                "pipeline.execute", version=version, nprocs=nprocs
            ) as sp:
                key = self._run_key(plan, nprocs)
                run = trace_cache.load_run(key)
                if run is None:
                    t0 = time.perf_counter()
                    run = run_program(
                        self.checked, layout, nprocs,
                        max_steps=self.max_steps, sched=self.sched,
                    )
                    interp_seconds = time.perf_counter() - t0
                    trace_cache.store_run(key, run)
                else:
                    from_cache = True
                if sp is not None:
                    sp.meta["from_cache"] = from_cache
        return VersionRun(
            version=version,
            nprocs=nprocs,
            checked=self.checked,
            plan=plan,
            layout=layout,
            run=run,
            interp_seconds=interp_seconds,
            from_cache=from_cache,
        )

    def run_unoptimized(self, nprocs: int) -> VersionRun:
        return self.execute(nprocs, None, "N")

    def run_compiler(self, nprocs: int) -> VersionRun:
        return self.execute(nprocs, self.compiler_plan(nprocs), "C")

    def run_with_plan(
        self, nprocs: int, plan: TransformPlan, version: str
    ) -> VersionRun:
        return self.execute(nprocs, plan, version)
