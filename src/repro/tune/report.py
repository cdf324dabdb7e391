"""The tuning driver: search the plan space of one workload with the
simulator in the loop, verify the winners, and report.

One :func:`tune_source` call is the whole story:

1. compile + analyze the program, score the heuristic plan (the
   baseline the paper's compiler would ship);
2. enumerate the action space over the hottest structures;
3. run one search strategy through a budgeted, deduplicating
   :class:`~repro.tune.search.Evaluator` whose candidate evaluations fan
   out over :func:`repro.harness.parallel.map_tasks` worker processes;
4. push every evaluated plan through the Pareto front, then run each
   front member through the :mod:`repro.verify.oracle` semantic
   equivalence check — a plan that changes program meaning is a layout
   bug, and it never reaches the report;
5. emit spans (``tune.*``), a ``kind="tune"`` manifest record, and an
   optional ``BENCH_tune.json`` trajectory point.

Every interpreter execution goes through the persistent trace cache and
every simulation through :mod:`repro.sim.simcache`, so re-tuning a
workload (or comparing strategies on one) replays frozen traces.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro import perf
from repro.obs import manifest
from repro.obs import spans as obs
from repro.harness.parallel import map_tasks
from repro.harness.pipeline import Pipeline
from repro.layout.datalayout import DataLayout
from repro.machine.models import MachineModel, resolve_machine
from repro.transform.plan import TransformPlan
from repro.tune.objective import Objective, PlanScore, layout_bytes, score_version
from repro.tune.search import Evaluation, Evaluator, SearchOutcome, run_search
from repro.tune.space import PlanSpace, enumerate_space
from repro.verify.oracle import check_program

#: Front members carried into the report (and through the oracle).
MAX_FRONT = 8


@dataclass(slots=True)
class FrontMember:
    """One Pareto-front plan, verified."""

    fingerprint: str
    plan: TransformPlan
    score: PlanScore
    verified: bool
    verdict: str  # "ok" or the oracle's mismatch/error text


@dataclass(slots=True)
class TuneReport:
    """Everything one tuning run learned."""

    workload: str
    nprocs: int
    block_size: int
    #: the machine every plan was scored on (calibrated ``cpi``)
    machine: MachineModel
    strategy: str
    objective: Objective
    space: PlanSpace
    heuristic: Evaluation
    outcome: SearchOutcome
    best: Evaluation
    front: list[FrontMember] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def improved(self) -> bool:
        """Tuned best strictly better than the heuristic pick."""
        return self.objective.better(self.best.score, self.heuristic.score)

    @property
    def matched(self) -> bool:
        """Tuned best at least as good as the heuristic pick."""
        return not self.objective.better(
            self.heuristic.score, self.best.score
        )

    @property
    def all_verified(self) -> bool:
        return all(m.verified for m in self.front)


# ---------------------------------------------------------------------------
# Plan evaluation (parent + worker sides)
# ---------------------------------------------------------------------------

#: Per-worker pipeline cache: (source hash, block size) -> Pipeline.
_worker_pipes: dict = {}


def _eval_plan_task(
    source: str,
    plan: TransformPlan,
    nprocs: int,
    block_size: int,
    natural_bytes: int,
    machine: MachineModel,
) -> PlanScore:
    """Score one plan in a worker process (picklable entry point)."""
    key = (hash(source), block_size)
    pipe = _worker_pipes.get(key)
    if pipe is None:
        pipe = _worker_pipes[key] = Pipeline(source, block_size=block_size)
    vr = pipe.execute(nprocs, plan, version="T")
    return score_version(vr, natural_bytes=natural_bytes, machine=machine)


def _make_score_many(
    pipe: Pipeline,
    source: str,
    nprocs: int,
    block_size: int,
    natural_bytes: int,
    machine: MachineModel,
    jobs: int,
):
    """Batch scorer: serial through the parent's pipeline (sharing its
    caches), parallel through ``map_tasks`` workers."""

    def score_many(plans: list[TransformPlan]) -> list[Optional[PlanScore]]:
        if jobs <= 1 or len(plans) <= 1:
            out: list[Optional[PlanScore]] = []
            for plan in plans:
                try:
                    out.append(
                        _eval_local(
                            pipe, plan, nprocs, natural_bytes, machine
                        )
                    )
                except Exception:
                    perf.add("tune.eval_error")
                    out.append(None)
            return out
        failures: dict[int, str] = {}
        results = map_tasks(
            _eval_plan_task,
            [
                (source, plan, nprocs, block_size, natural_bytes, machine)
                for plan in plans
            ],
            jobs=jobs,
            failures=failures,
        )
        return [results.get(i) for i in range(len(plans))]

    return score_many


def _eval_local(
    pipe: Pipeline,
    plan: TransformPlan,
    nprocs: int,
    natural_bytes: int,
    machine: MachineModel,
) -> PlanScore:
    vr = pipe.execute(nprocs, plan, version="T")
    return score_version(vr, natural_bytes=natural_bytes, machine=machine)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def tune_source(
    source: str,
    label: str,
    *,
    nprocs: int = 8,
    block_size: int = 128,
    strategy: str = "greedy",
    objective: Optional[Objective] = None,
    budget: Optional[int] = 64,
    top: int = 6,
    beam_width: int = 3,
    jobs: int = 1,
    cpi: float = 4.0,
    machine=None,
    verify_front: bool = True,
) -> TuneReport:
    """Tune one program's transform plan; see the module docstring.
    Plans are scored on ``machine`` (None: the active machine)
    calibrated with ``cpi``."""
    objective = objective or Objective()
    model = replace(resolve_machine(machine), cpi=cpi)
    t0 = time.perf_counter()
    with obs.span("tune", workload=label, strategy=strategy, nprocs=nprocs):
        pipe = Pipeline(source, block_size=block_size)
        with obs.span("tune.analyze"):
            pa = pipe.analysis(nprocs)
            heuristic_plan = pipe.compiler_plan(nprocs).canonical()
            natural_bytes = layout_bytes(
                DataLayout(
                    pipe.checked, None, block_size=block_size, nprocs=nprocs
                )
            )
        with obs.span("tune.space"):
            space = enumerate_space(
                pa,
                block_size=block_size,
                max_structures=top,
                heuristic_plan=heuristic_plan,
            )
        ev = Evaluator(
            space=space,
            score_many=_make_score_many(
                pipe, source, nprocs, block_size, natural_bytes, model, jobs
            ),
            objective=objective,
            budget=budget,
        )
        # The heuristic vector is evaluated first: it is the baseline
        # row of the report, and seeding the memo with it guarantees
        # the search result can never be worse.
        heuristic_vec = space.match_plan(heuristic_plan)
        heuristic_ev = ev.evaluate(heuristic_vec)
        if heuristic_ev is None:
            raise RuntimeError(
                f"heuristic plan evaluation failed for {label}"
            )
        outcome = run_search(
            ev, strategy, start=heuristic_vec, beam_width=beam_width
        )
        best = outcome.best or heuristic_ev

        front: list[FrontMember] = []
        members = ev.front.sorted_by(objective)[:MAX_FRONT]
        if verify_front and members:
            with obs.span("tune.verify", members=len(members)):
                plans = [
                    (e.fingerprint[:12], e.payload.plan) for e in members
                ]
                verdicts, _base = check_program(
                    pipe.checked, nprocs, block_size=block_size, plans=plans
                )
                for entry, verdict in zip(members, verdicts):
                    front.append(
                        FrontMember(
                            fingerprint=entry.fingerprint,
                            plan=entry.payload.plan,
                            score=entry.score,
                            verified=verdict.ok,
                            verdict=(
                                "ok"
                                if verdict.ok
                                else str(verdict).replace("\n", " ")
                            ),
                        )
                    )
        else:
            front = [
                FrontMember(
                    e.fingerprint, e.payload.plan, e.score, False, "unverified"
                )
                for e in members
            ]

    report = TuneReport(
        workload=label,
        nprocs=nprocs,
        block_size=block_size,
        machine=model,
        strategy=strategy,
        objective=objective,
        space=space,
        heuristic=heuristic_ev,
        outcome=outcome,
        best=best,
        front=front,
        seconds=time.perf_counter() - t0,
    )
    _record_manifest(report, source)
    return report


def tune_workload(wl, **kw) -> TuneReport:
    """Tune a registered workload, using its calibrated cycles-per-op."""
    kw.setdefault("cpi", wl.cpi)
    return tune_source(wl.source, wl.name, **kw)


def _record_manifest(report: TuneReport, source: str) -> None:
    rec = manifest.build_record(
        kind="tune",
        workload=report.workload,
        source=source,
        plan_desc=report.best.plan.describe(),
        nprocs=report.nprocs,
        block_size=report.block_size,
        machine=report.machine.to_dict(),
        misses={
            "false": report.best.score.fs_misses,
            "total": report.best.score.total_misses,
        },
        perf_snapshot=perf.snapshot(),
        span_timings=obs.flat_timings() if obs.enabled() else {},
        extra={
            "strategy": report.strategy,
            "objective": str(report.objective),
            "space_size": report.space.size,
            "evaluations": report.outcome.evaluations,
            "dedup_hits": report.outcome.dedup_hits,
            "heuristic": {
                "fs": report.heuristic.score.fs_misses,
                "cycles": report.heuristic.score.cycles,
            },
            "best": {
                "fs": report.best.score.fs_misses,
                "cycles": report.best.score.cycles,
            },
            "front": len(report.front),
            "all_verified": report.all_verified,
            "seconds": round(report.seconds, 3),
        },
    )
    manifest.record(rec)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_tune_report(report: TuneReport, *, verbose: bool = False) -> str:
    """The per-workload heuristic-vs-tuned comparison table."""
    h, b = report.heuristic.score, report.best.score
    cycles = f"{report.machine.name.upper()} cycles"
    cw = max(14, len(cycles))
    lines = [
        f"tune {report.workload}: {report.nprocs} procs, "
        f"{report.block_size} B blocks, strategy={report.strategy}, "
        f"objective={report.objective}",
        f"  space: {len(report.space.structures)} tunable structures, "
        f"{report.space.size} plans"
        + (
            f" ({len(report.space.frozen)} frozen to heuristic)"
            if report.space.frozen
            else ""
        ),
        f"  search: {report.outcome.evaluations} evaluated, "
        f"{report.outcome.dedup_hits} deduped, "
        f"{report.seconds:.2f}s"
        + (" [budget exhausted]" if report.outcome.budget_exhausted else ""),
        "",
        f"  {'plan':<12} {'FS misses':>10} {'misses':>10} "
        f"{cycles:>{cw}} {'mem overhead':>13}",
        f"  {'heuristic':<12} {h.fs_misses:>10d} {h.total_misses:>10d} "
        f"{h.cycles:>{cw}.0f} {h.mem_overhead:>12d}B",
        f"  {'tuned best':<12} {b.fs_misses:>10d} {b.total_misses:>10d} "
        f"{b.cycles:>{cw}.0f} {b.mem_overhead:>12d}B",
    ]
    if report.improved:
        dfs = h.fs_misses - b.fs_misses
        dcy = h.cycles - b.cycles
        lines.append(
            f"  -> tuned plan wins: -{dfs} FS misses, "
            f"{100 * dcy / h.cycles if h.cycles else 0:.1f}% predicted time"
        )
    elif report.matched:
        lines.append("  -> heuristic pick is already optimal in this space")
    lines.append("")
    lines.append(f"  Pareto front ({len(report.front)} plans):")
    for m in report.front:
        mark = "ok " if m.verified else "FAIL"
        lines.append(
            f"    [{mark}] {m.fingerprint[:12]}  {m.score}"
        )
        if verbose:
            for text in m.plan.describe().splitlines()[1:]:
                lines.append(f"        {text}")
        if not m.verified:
            lines.append(f"        oracle: {m.verdict}")
    if verbose:
        lines.append("")
        lines.append("  tuned best plan:")
        lines.extend(
            f"    {t}" for t in report.best.plan.describe().splitlines()
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Benchmark trajectory
# ---------------------------------------------------------------------------


def bench_point(report: TuneReport) -> dict:
    """One ``BENCH_tune.json`` trajectory record."""
    return {
        "workload": report.workload,
        "nprocs": report.nprocs,
        "block_size": report.block_size,
        "machine": report.machine.name,
        "strategy": report.strategy,
        "objective": str(report.objective),
        "space_size": report.space.size,
        "evaluations": report.outcome.evaluations,
        "dedup_hits": report.outcome.dedup_hits,
        "search_seconds": round(report.outcome.seconds, 3),
        "total_seconds": round(report.seconds, 3),
        "heuristic_fs": report.heuristic.score.fs_misses,
        "heuristic_cycles": round(report.heuristic.score.cycles, 1),
        "tuned_fs": report.best.score.fs_misses,
        "tuned_cycles": round(report.best.score.cycles, 1),
        "tuned_mem_overhead": report.best.score.mem_overhead,
        "improved": report.improved,
        "matched": report.matched,
        "front": len(report.front),
        "all_verified": report.all_verified,
    }


def write_bench_point(report: TuneReport, path: str) -> str:
    """Append one trajectory point to a ``BENCH_tune.json`` file (a JSON
    list; created when absent)."""
    points: list[dict] = []
    if os.path.exists(path):
        try:
            with open(path) as fh:
                loaded = json.load(fh)
            if isinstance(loaded, list):
                points = loaded
        except (OSError, ValueError):
            points = []
    points.append(bench_point(report))
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(points, fh, indent=2)
        fh.write("\n")
    return path
