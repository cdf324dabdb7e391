"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``analyze FILE``
    Run the compile-time analyses and print the per-structure sharing
    patterns and the transformation decisions.
``transform FILE``
    Print the source-to-source transformed program.
``transforms FILE``
    Print the transformation plan; ``--explain`` adds the full
    per-structure gate evidence (which gate fired, partition /
    single-writer facts, why each alternative was rejected).
``tune FILE``
    Search the per-structure transform-plan space with the simulator in
    the loop (exhaustive / greedy / beam), verify every Pareto-front
    plan through the equivalence oracle, and print the
    heuristic-vs-tuned comparison.
``run FILE``
    Execute the program under the unoptimized (or ``--optimized``)
    layout and print its output.
``simulate FILE``
    Trace and simulate both versions, printing the miss comparison.
``profile FILE``
    Run the whole pipeline under span tracing and miss attribution:
    prints the span tree, the per-structure false-sharing tables, the
    cache-line heatmap and the analysis-vs-simulation diff; exports a
    Chrome trace (``--trace-out``) and a run manifest (``REPRO_RUN_LOG``).
``experiments NAME``
    Regenerate one of the paper's artifacts: ``table1 figure3 table2
    figure4 table3 headline``.
``workloads``
    List the benchmark suite (``--stats`` adds trace/structure/timing
    statistics from the static analysis and the run-manifest log).
``history``
    Ingest run-manifest logs into the sharded record store and query
    it: filters, time windows, group-by aggregates (table/JSON/CSV),
    and the regression sentinel (``--sentinel``).
``report``
    Render the static-HTML run-history dashboard from the store.
``artifacts``
    Inspect and maintain the trace cache's content-addressed store:
    stats, prune, fsck.

``FILE`` arguments accept either a path to a parallel-C source file or
the name of a registered workload (``Maxflow``, ``Water``, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import obs, perf
from repro.analysis import analyze_program, rsd_prediction_diff
from repro.errors import ReproError
from repro.harness import (
    Pipeline,
    WorkloadLab,
    dynamic,
    figure3,
    figure4,
    headline,
    render_dynamic,
    render_figure3,
    render_headline,
    render_rws,
    render_scalability,
    render_table1,
    render_table2,
    render_table3,
    render_workload_stats,
    rws,
    table1,
    table2,
    table3,
)
from repro.lang import compile_source
from repro.layout import DataLayout
from repro.layout.regions import build_region_map
from repro.obs import chrome, manifest
from repro.runtime import run_program
from repro.sim import simulate_run, top_fs_structures
from repro.transform import decide_transformations, render_transformed_source


def _resolve_source(spec: str) -> tuple[str, str]:
    """``(label, source)`` for a file path or a registered workload name."""
    p = Path(spec)
    if p.exists():
        return p.stem, p.read_text()
    from repro.workloads.registry import by_name

    try:
        wl = by_name(spec)
    except KeyError:
        raise SystemExit(
            f"repro: {spec!r} is neither a file nor a known workload"
        ) from None
    return wl.name, wl.source


def _load(path: str):
    label, source = _resolve_source(path)
    return compile_source(source, filename=label)


def cmd_analyze(args) -> int:
    checked = _load(args.file)
    pa = analyze_program(checked, args.nprocs)
    print(f"workers: {pa.pdvinfo.workers}")
    print(f"phases:  {pa.phase_info.worker_phases}")
    print(f"invariant globals: {pa.pdvinfo.invariant_globals}")
    print()
    print(f"{'structure':<24} {'Wpp':>8} {'Wsh':>8} {'Rpp':>8} "
          f"{'Rloc':>8} {'Rnon':>8}  flags")
    for target, pat in sorted(pa.patterns.items(), key=lambda kv: str(kv[0])):
        flags = []
        if pat.is_lock:
            flags.append("lock")
        if pat.writes_pdv_disjoint:
            flags.append("pdv-disjoint")
        if pat.pattern_shifts:
            flags.append("shifts")
        print(
            f"{str(target):<24} {pat.write_pp:>8.0f} {pat.write_sh:>8.0f} "
            f"{pat.read_pp:>8.0f} {pat.read_sh_local:>8.0f} "
            f"{pat.read_sh_nonlocal:>8.0f}  {' '.join(flags)}"
        )
    print()
    plan = decide_transformations(pa, block_size=args.block_size)
    print(plan.describe())
    if args.verbose:
        print()
        for d in plan.decisions:
            print(f"  {d}")
    return 0


def cmd_transform(args) -> int:
    checked = _load(args.file)
    plan = decide_transformations(
        analyze_program(checked, args.nprocs), block_size=args.block_size
    )
    print(render_transformed_source(
        checked, plan, block_size=args.block_size, nprocs=args.nprocs
    ))
    return 0


def cmd_transforms(args) -> int:
    from repro.transform import explain_decisions, render_explanations

    checked = _load(args.file)
    pa = analyze_program(checked, args.nprocs)
    plan = decide_transformations(pa, block_size=args.block_size)
    print(plan.describe())
    print()
    if args.explain:
        rationales = explain_decisions(
            pa, block_size=args.block_size, plan=plan
        )
        print(
            render_explanations(
                rationales, only_transformed=not args.verbose
            )
        )
        if not args.verbose:
            skipped = sum(1 for r in rationales if r.chosen == "none")
            if skipped:
                print()
                print(
                    f"({skipped} untransformed structures hidden; "
                    "-v shows their rationale too)"
                )
    else:
        for d in plan.decisions:
            print(f"  {d}")
    return 0


def cmd_tune(args) -> int:
    from repro.tune import (
        Objective,
        render_tune_report,
        tune_source,
        write_bench_point,
    )
    from repro.workloads.registry import by_name

    profiling = _begin_profiling(args)
    label, source = _resolve_source(args.file)
    try:
        cpi = by_name(label).cpi
    except KeyError:
        cpi = 4.0
    try:
        objective = Objective.parse(args.objective)
    except ValueError as e:
        raise SystemExit(f"repro: {e}") from None
    report = tune_source(
        source,
        label,
        nprocs=args.nprocs,
        block_size=args.block_size,
        strategy=args.strategy,
        objective=objective,
        budget=args.budget or None,
        top=args.top,
        beam_width=args.beam_width,
        jobs=args.jobs,
        cpi=cpi,
        verify_front=not args.no_verify,
    )
    print(render_tune_report(report, verbose=args.verbose))
    if args.bench_out:
        path = write_bench_point(report, args.bench_out)
        print(f"[bench point -> {path}]", file=sys.stderr)
    _finish_profiling(args, profiling)
    if not args.no_verify and not report.all_verified:
        print(
            "repro: a Pareto-front plan failed the equivalence oracle",
            file=sys.stderr,
        )
        return 1
    if not report.matched:
        print(
            "repro: tuned plan is worse than the heuristic plan "
            "(this should be impossible: the heuristic is in the space)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_run(args) -> int:
    checked = _load(args.file)
    plan = None
    if args.optimized:
        plan = decide_transformations(
            analyze_program(checked, args.nprocs), block_size=args.block_size
        )
    layout = DataLayout(
        checked, plan, nprocs=args.nprocs, block_size=args.block_size
    )
    result = run_program(checked, layout, args.nprocs)
    for line in result.output:
        print(line)
    print(
        f"[{args.nprocs} procs, {len(result.trace)} shared refs, "
        f"exit {result.exit_value}]",
        file=sys.stderr,
    )
    return int(result.exit_value or 0)


def _begin_profiling(args) -> bool:
    """Enable span tracing when ``--profile`` (or a trace output) was
    requested; returns whether profiling is on."""
    profiling = bool(
        getattr(args, "profile", False) or getattr(args, "trace_out", None)
    )
    if profiling:
        obs.enable()
        obs.reset()
    return profiling


def _finish_profiling(args, profiling: bool) -> None:
    """Print the span tree and export the Chrome trace, if asked to."""
    if not profiling:
        return
    print()
    print("span tree:")
    print(obs.render_tree())
    out = getattr(args, "trace_out", None) or chrome.default_trace_out()
    if out:
        n = chrome.write_trace(out)
        print(f"[chrome trace: {n} events -> {out}]", file=sys.stderr)


def _record_manifest(
    *, kind: str, label: str, source: str, plan, nprocs: int,
    block_size: int, sim=None, fs_by_structure=None,
) -> None:
    """Append one run record to the ``REPRO_RUN_LOG`` manifest (no-op
    when the log is not configured)."""
    rec = manifest.sim_record(
        kind=kind,
        workload=label,
        source=source,
        plan_desc="natural" if plan is None else plan.describe(),
        nprocs=nprocs,
        block_size=block_size,
        sim=sim,
        fs_by_structure=fs_by_structure,
        span_timings=obs.flat_timings() if obs.enabled() else {},
        extra=(
            {"wall_seconds": round(obs.total_seconds(), 6)}
            if obs.enabled()
            else None
        ),
    )
    path = manifest.record(rec)
    if path is not None:
        print(f"[manifest record -> {path}]", file=sys.stderr)


def cmd_simulate(args) -> int:
    profiling = _begin_profiling(args)
    label, source = _resolve_source(args.file)
    checked = compile_source(source, filename=label)
    pa = analyze_program(checked, args.nprocs)
    plan = decide_transformations(pa, block_size=args.block_size)
    base_layout = DataLayout(
        checked, nprocs=args.nprocs, block_size=args.block_size
    )
    opt_layout = DataLayout(
        checked, plan, nprocs=args.nprocs, block_size=args.block_size
    )
    with obs.span("simulate.run", version="N"):
        base = run_program(checked, base_layout, args.nprocs)
    with obs.span("simulate.run", version="C"):
        opt = run_program(checked, opt_layout, args.nprocs)
    print(plan.describe())
    print()
    for vlabel, vplan, run, layout in (
        ("unoptimized", None, base, base_layout),
        ("transformed", plan, opt, opt_layout),
    ):
        sim = simulate_run(run, args.block_size)
        print(
            f"{vlabel:>12}: miss rate {100 * sim.miss_rate:6.2f}%  "
            f"misses {sim.total_misses:6d}  "
            f"false sharing {sim.misses.false_sharing:6d}"
        )
        regions = build_region_map(layout, run.heap_segments)
        if profiling:
            print()
            print(obs.render_fs_table(sim, regions))
            print()
            _record_manifest(
                kind="simulate", label=f"{label}/{vlabel}", source=source,
                plan=vplan, nprocs=args.nprocs, block_size=args.block_size,
                sim=sim,
                fs_by_structure=obs.fs_table(sim, regions).fs_by_structure,
            )
        elif args.verbose:
            for s in top_fs_structures(sim, regions, 5):
                if s.false_sharing:
                    print(f"{'':>14}{s.name}: {s.false_sharing} FS misses")
    _finish_profiling(args, profiling)
    return 0


def cmd_profile(args) -> int:
    args.profile = True
    profiling = _begin_profiling(args)
    label, source = _resolve_source(args.file)
    with obs.span("profile", target=label, nprocs=args.nprocs):
        pipe = Pipeline(source, block_size=args.block_size)
        pa = pipe.analysis(args.nprocs)
        plan = pipe.compiler_plan(args.nprocs)
        base = pipe.run_unoptimized(args.nprocs)
        opt = pipe.run_compiler(args.nprocs)
        with obs.span("profile.simulate"):
            sim_n = base.simulate(args.block_size)
            sim_c = opt.simulate(args.block_size)
    regions_n = base.regions()
    regions_c = opt.regions()

    print(f"profile of {label} ({args.nprocs} procs, "
          f"{args.block_size}-byte blocks)")
    print()
    print(plan.describe())
    print()
    for vlabel, sim in (("unoptimized", sim_n), ("transformed", sim_c)):
        print(
            f"{vlabel:>12}: miss rate {100 * sim.miss_rate:6.2f}%  "
            f"misses {sim.total_misses:6d}  "
            f"false sharing {sim.misses.false_sharing:6d}"
        )
    print()
    print("— unoptimized version —")
    print(obs.render_fs_table(sim_n, regions_n))
    print()
    print(obs.render_pair_breakdown(sim_n, regions_n))
    print()
    print(obs.render_heatmap(sim_n, regions_n))
    print()
    print(rsd_prediction_diff(pa, plan, obs.fs_table(sim_n, regions_n)))
    if args.verbose:
        print()
        print("— transformed version —")
        print(obs.render_fs_table(sim_c, regions_c))
        print()
        print(obs.render_heatmap(sim_c, regions_c))
    for vlabel, vplan, sim, regions in (
        ("N", None, sim_n, regions_n),
        ("C", plan, sim_c, regions_c),
    ):
        _record_manifest(
            kind="profile", label=f"{label}/{vlabel}", source=source,
            plan=vplan, nprocs=args.nprocs, block_size=args.block_size,
            sim=sim,
            fs_by_structure=obs.fs_table(sim, regions).fs_by_structure,
        )
    _finish_profiling(args, profiling)
    return 0


def _default_bench_path(filename: str) -> str:
    """``benchmarks/results/<filename>`` at the repo root (best effort:
    walk up from this file looking for ROADMAP.md, else the cwd)."""
    import os

    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "ROADMAP.md").exists():
            return str(parent / "benchmarks" / "results" / filename)
    return str(Path("benchmarks") / "results" / filename)


def cmd_experiments(args) -> int:
    profiling = _begin_profiling(args)
    lab = WorkloadLab()
    name = args.name or args.figure
    if name is None:
        print(
            "repro experiments: name an artifact (positional or --figure)",
            file=sys.stderr,
        )
        return 2
    if name == "table1":
        print(render_table1(table1()))
    elif name == "figure3":
        print(render_figure3(figure3(lab=lab)))
    elif name == "table2":
        print(render_table2(table2(lab=lab)))
    elif name == "figure4":
        for sc in figure4(lab=lab):
            print(render_scalability(sc))
            print()
    elif name == "table3":
        print(render_table3(table3(lab=lab)))
    elif name == "headline":
        print(render_headline(headline(lab=lab)))
    elif name == "rws":
        import json
        import os

        result = rws()
        print(render_rws(result))
        out = args.bench_out or _default_bench_path("BENCH_rws.json")
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[rws record -> {out}]", file=sys.stderr)
        if not result.ok:
            return 1
    elif name == "dynamic":
        import json
        import os

        result = dynamic()
        print(render_dynamic(result))
        out = args.bench_out or _default_bench_path("BENCH_dynamic.json")
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[dynamic record -> {out}]", file=sys.stderr)
        if not result.ok:
            return 1
    else:  # pragma: no cover - argparse restricts choices
        print(f"unknown experiment {name!r}", file=sys.stderr)
        return 2
    rec = manifest.build_record(
        kind="experiment",
        workload=name,
        source="",
        plan_desc="-",
        nprocs=0,
        block_size=0,
        perf_snapshot=perf.snapshot(),
        span_timings=obs.flat_timings() if obs.enabled() else {},
    )
    path = manifest.record(rec)
    if path is not None:
        print(f"[manifest record -> {path}]", file=sys.stderr)
    _finish_profiling(args, profiling)
    return 0


def _parse_budget(raw: str) -> float:
    """Seconds from ``60``, ``60s``, or ``2m``."""
    s = raw.strip().lower()
    mult = 1.0
    if s.endswith("m"):
        mult, s = 60.0, s[:-1]
    elif s.endswith("s"):
        s = s[:-1]
    try:
        return float(s) * mult
    except ValueError:
        raise SystemExit(f"repro: bad --budget {raw!r} (try 60s or 2m)") from None


def cmd_verify(args) -> int:
    from repro.runtime import trace_cache
    from repro.verify import invariants, save_failures
    from repro.verify.fuzz import fuzz as run_fuzz
    from repro.verify.oracle import check_program

    if args.trace:
        # invariant-check a stored trace entry named explicitly
        run = trace_cache.load_file(args.trace)
        violations = invariants.check_trace(run.trace, run.nprocs)
        print(
            f"trace {args.trace}: {len(run.trace)} refs, "
            f"{run.nprocs} procs"
        )
        for v in violations:
            print(f"  {v}")
        print("invariants: " + ("FAILED" if violations else "ok"))
        return 1 if violations else 0

    if args.file:
        # oracle + invariants over one explicit program, once per
        # scheduler leg (--sched both runs rr then steal)
        from repro.runtime.stealing import RR, SchedConfig

        label, source = _resolve_source(args.file)
        checked = compile_source(source, filename=label)
        legs = {
            "rr": [("rr", RR)],
            "steal": [("steal", SchedConfig("steal", seed=args.seed))],
            "both": [
                ("rr", RR),
                ("steal", SchedConfig("steal", seed=args.seed)),
            ],
        }[args.sched]
        failed = False
        for leg, cfg in legs:
            verdicts, base_run = check_program(
                checked, args.nprocs, sched=cfg
            )
            for v in verdicts:
                print(f"[{leg}] {v}")
            violations = invariants.check_trace(base_run.trace, args.nprocs)
            for v in violations:
                print(f"invariant[{leg}]: {v}")
            if violations or [v for v in verdicts if not v.ok]:
                failed = True
        print(f"{label}: " + ("FAILED" if failed else "all versions agree"))
        return 1 if failed else 0

    budget = _parse_budget(args.budget)

    def progress(rep):
        if args.verbose:
            print(
                f"  {rep.programs} programs, {rep.plans} plan-checks...",
                file=sys.stderr,
            )

    report = run_fuzz(
        seed=args.seed,
        budget=budget,
        nprocs=args.nprocs,
        count=args.count,
        jobs=args.jobs,
        plan_source="space" if args.plan_space else "fixed",
        sched=args.sched,
        progress=progress,
    )
    print(report.summary())
    for f in report.failures:
        print()
        print(f.describe())
    if report.failures and args.out:
        for path in save_failures(report, args.out):
            print(f"[counterexample -> {path}]", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_workloads(args) -> int:
    print(render_table1(table1()))
    if not getattr(args, "stats", False):
        return 0
    from repro.workloads.registry import ALL_WORKLOADS

    rows = []
    for wl in ALL_WORKLOADS:
        checked = compile_source(wl.source, filename=wl.name)
        pa = analyze_program(checked, wl.fig3_procs)
        last = manifest.last_for(wl.name)
        rows.append(
            {
                "program": wl.name,
                "versions": " ".join(wl.versions),
                "structures": len(pa.patterns),
                "trace_len": (last or {}).get("trace_len"),
                "wall_seconds": (last or {}).get("wall_seconds"),
                "last_ts": (last or {}).get("ts"),
            }
        )
    print()
    print(render_workload_stats(rows))
    return 0


def _open_store(args):
    from repro.obs.store import RunStore, default_store_root

    return RunStore(args.store or default_store_root())


def cmd_history(args) -> int:
    from repro.obs.query import Query, QueryError, run_query
    from repro.obs.sentinel import SentinelConfig, check_store

    store = _open_store(args)
    for log in args.ingest or ():
        rep = store.ingest(log)
        print(f"[{log}: {rep.describe()}]", file=sys.stderr)
    if args.compact:
        stats = store.compact()
        print(
            f"[compacted: {stats['records']} records kept, "
            f"{stats['dropped']} lines dropped]",
            file=sys.stderr,
        )
    try:
        query = Query.build(
            where=args.where or (),
            since=args.since,
            until=args.until,
            group_by=args.group_by,
            aggregates=args.agg or (),
            fields=args.fields,
            sort=args.sort,
            limit=args.limit,
        )
    except QueryError as e:
        print(f"repro: {e}", file=sys.stderr)
        return 2

    if args.sentinel:
        cfg = SentinelConfig()
        if args.metric:
            cfg.metrics = tuple(args.metric)
        report = check_store(store, cfg, query)
        print(report.describe())
        return 1 if report.alerts else 0

    result = run_query(store, query)
    if args.format == "json":
        print(result.to_json())
    elif args.format == "csv":
        print(result.to_csv(), end="")
    else:
        print(result.to_table())
        print(
            f"[{result.matched}/{result.scanned} records, "
            f"{result.seconds * 1000:.0f} ms]",
            file=sys.stderr,
        )
    return 0


def cmd_report(args) -> int:
    from repro.obs.dashboard import write_dashboard

    store = _open_store(args)
    for log in args.ingest or ():
        rep = store.ingest(log)
        print(f"[{log}: {rep.describe()}]", file=sys.stderr)
    out = write_dashboard(store, args.dashboard, title=args.title)
    print(f"[dashboard -> {out}]", file=sys.stderr)
    return 0


def cmd_artifacts(args) -> int:
    from repro.runtime import trace_cache

    if args.root:
        if not Path(args.root).is_dir():
            raise ReproError(f"--root {args.root}: no such directory")
        store = trace_cache.TraceStore(args.root)
    else:
        store = trace_cache.store()
        if store is None:
            raise ReproError(
                "the trace cache is off (REPRO_TRACE_CACHE); "
                "name a store with --root"
            )
    did_something = False
    if args.prune:
        dropped = store.prune()
        print(f"[pruned {dropped} entries]", file=sys.stderr)
        did_something = True
    if args.fsck:
        report = store.fsck()
        for name in report["dropped"]:
            print(f"dropped {name}")
        print(
            f"[fsck: {report['checked']} checked, "
            f"{len(report['dropped'])} dropped]",
            file=sys.stderr,
        )
        if report["dropped"]:
            return 1
        did_something = True
    if args.stats or not did_something:
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(f"root: {stats['root']}")
            print(f"entries: {stats['entries']}  "
                  f"bytes: {stats['bytes']}  "
                  f"budget: {stats['budget_bytes'] or 'unbounded'}")
            if stats["orphans"]:
                print(f"orphan payloads: {stats['orphans']} "
                      "(repro artifacts --fsck removes them)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compile-time data transformations against false "
        "sharing (Jeremiassen & Eggers, PPoPP 1995).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "file", help="parallel-C source file or workload name"
        )
        p.add_argument("-p", "--nprocs", type=int, default=8)
        p.add_argument("-b", "--block-size", type=int, default=128)
        p.add_argument("-v", "--verbose", action="store_true")
        p.add_argument(
            "--sim-kernel", choices=["auto", "native", "python"],
            default=None, metavar="KERNEL",
            help="protocol core: auto (default), native (compiled, "
            "error if unavailable), python (reference); also "
            "$REPRO_SIM_KERNEL — see docs/PERFORMANCE.md",
        )
        sched_opts(p)
        machine_opts(p)

    def machine_opts(p):
        from repro.machine import MACHINES

        p.add_argument(
            "--machine", choices=sorted(MACHINES), default=None,
            help="machine to simulate and time (protocol, line size, "
            "cache shape, latencies; default ksr2); also "
            "$REPRO_MACHINE — see docs/MACHINES.md",
        )

    def sched_opts(p):
        p.add_argument(
            "--sched", choices=["rr", "steal"], default=None,
            help="execution schedule: rr (deterministic round-robin, "
            "default) or steal (seeded randomized work stealing); "
            "also $REPRO_SCHED — see docs/SCHEDULING.md",
        )
        p.add_argument(
            "--sched-seed", type=int, default=None, metavar="N",
            help="RNG seed for --sched steal (default 0; also "
            "$REPRO_SCHED_SEED)",
        )
        p.add_argument(
            "--grain", type=int, default=None, metavar="N",
            help="statement yields per steal-mode task chunk "
            "(default 16; also $REPRO_SCHED_GRAIN)",
        )

    def profiled(p):
        p.add_argument(
            "--profile", action="store_true",
            help="record spans and per-structure miss attribution",
        )
        p.add_argument(
            "--trace-out", metavar="PATH",
            help="write a Chrome trace-event JSON file "
            "(default: $REPRO_TRACE_OUT; implies --profile)",
        )

    p = sub.add_parser("analyze", help="print sharing patterns and the plan")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform", help="print the transformed source")
    common(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser(
        "transforms",
        help="print the plan with per-structure heuristic rationale",
    )
    common(p)
    p.add_argument(
        "--explain", action="store_true",
        help="show gate evidence and why alternatives were rejected",
    )
    p.set_defaults(func=cmd_transforms)

    p = sub.add_parser(
        "tune",
        help="search the transform-plan space with the simulator "
        "in the loop",
    )
    common(p)
    profiled(p)
    p.add_argument(
        "--strategy", choices=["exhaustive", "greedy", "beam"],
        default="greedy",
        help="search strategy (default greedy coordinate descent)",
    )
    p.add_argument(
        "--budget", type=int, default=64,
        help="maximum unique plan evaluations (default 64; 0 = unlimited)",
    )
    p.add_argument(
        "--top", type=int, default=6,
        help="tunable structures, hottest first (default 6; the rest "
        "are frozen to the heuristic choice)",
    )
    p.add_argument(
        "--beam-width", type=int, default=3,
        help="beam width for --strategy beam (default 3)",
    )
    p.add_argument(
        "--objective", default="fs,cycles",
        help="comma-separated metric order: fs, cycles, total, mem "
        "(default fs,cycles)",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="evaluate candidate plans in parallel worker processes",
    )
    p.add_argument(
        "--no-verify", action="store_true",
        help="skip the equivalence-oracle check of front plans",
    )
    p.add_argument(
        "--bench-out", metavar="PATH", default=None,
        help="append a trajectory point to a BENCH_tune.json file",
    )
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("run", help="execute a program")
    common(p)
    p.add_argument("-O", "--optimized", action="store_true",
                   help="run under the compiler-transformed layout")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("simulate", help="compare miss rates N vs C")
    common(p)
    profiled(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "profile",
        help="trace the pipeline and attribute misses to structures",
    )
    common(p)
    profiled(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("experiments", help="regenerate a paper artifact")
    _EXPERIMENTS = [
        "table1", "figure3", "table2", "figure4", "table3", "headline",
        "rws", "dynamic",
    ]
    p.add_argument("name", nargs="?", choices=_EXPERIMENTS, default=None)
    p.add_argument(
        "--figure", choices=_EXPERIMENTS, default=None, dest="figure",
        help="alias for the positional artifact name",
    )
    p.add_argument(
        "--bench-out", metavar="PATH", default=None,
        help="where rws/dynamic write their BENCH_<name>.json record "
        "(default benchmarks/results/BENCH_<name>.json)",
    )
    sched_opts(p)
    machine_opts(p)
    profiled(p)
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser(
        "verify",
        help="differential validation: fuzz the transform/simulator stack",
    )
    p.add_argument(
        "file", nargs="?", default=None,
        help="verify one source file / workload instead of fuzzing",
    )
    p.add_argument("-p", "--nprocs", type=int, default=4)
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument(
        "--seed", type=int, default=0,
        help="base seed for generated programs (default 0)",
    )
    p.add_argument(
        "--budget", default="60s",
        help="fuzzing time budget, e.g. 30s or 2m (default 60s)",
    )
    p.add_argument(
        "--count", type=int, default=None,
        help="check exactly this many programs (overrides --budget)",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="fuzz seeds in parallel worker processes",
    )
    p.add_argument(
        "--out", metavar="DIR", default=None,
        help="write minimized counterexamples under DIR on failure",
    )
    p.add_argument(
        "--trace", metavar="FILE.npz", default=None,
        help="invariant-check one stored trace-cache entry",
    )
    p.add_argument(
        "--plan-space", action="store_true",
        help="draw candidate plans from the tuner's action space "
        "instead of the fixed five-plan list",
    )
    p.add_argument(
        "--sched", choices=["rr", "steal", "both"], default="rr",
        help="scheduler axis: fuzz under round-robin, under seeded "
        "work stealing, or under both plus the cross-scheduler "
        "metamorphics (default rr)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("workloads", help="list the benchmark suite")
    p.add_argument(
        "--stats", action="store_true",
        help="add structure counts and last-run statistics "
        "(from the $REPRO_RUN_LOG manifest)",
    )
    p.set_defaults(func=cmd_workloads)

    def store_opts(p):
        p.add_argument(
            "--store", metavar="DIR", default=None,
            help="run-record store root (default: .repro/store)",
        )
        p.add_argument(
            "--ingest", metavar="LOG", action="append", default=None,
            help="ingest a JSONL run-manifest log first (repeatable; "
            "idempotent: re-ingesting is a no-op)",
        )

    p = sub.add_parser(
        "history",
        help="query the run-record store (ingest, filter, aggregate, "
        "regression sentinel)",
    )
    store_opts(p)
    p.add_argument(
        "--where", metavar="FIELD<OP>VALUE", action="append", default=None,
        help="filter records, e.g. workload=Maxflow/N block_size>=64 "
        "plan~pad (repeatable; ops = != > >= < <= ~)",
    )
    p.add_argument(
        "--since", metavar="WHEN", default=None,
        help="only records at or after WHEN (ISO prefix or age: 7d, 24h)",
    )
    p.add_argument(
        "--until", metavar="WHEN", default=None,
        help="only records at or before WHEN",
    )
    p.add_argument(
        "--group-by", metavar="FIELDS", default=None,
        help="comma-separated grouping fields, e.g. workload,block_size",
    )
    p.add_argument(
        "--agg", metavar="FUNC[:FIELD]", action="append", default=None,
        help="aggregate per group, e.g. count mean:fs p95:wall_seconds "
        "(repeatable; funcs = count sum mean min max std p50 p95)",
    )
    p.add_argument(
        "--fields", metavar="FIELDS", default=None,
        help="columns of an ungrouped listing (comma-separated paths)",
    )
    p.add_argument("--sort", metavar="COL", default=None,
                   help="sort output by COL (-COL for descending)")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument(
        "--format", choices=["table", "json", "csv"], default="table",
    )
    p.add_argument(
        "--compact", action="store_true",
        help="rewrite shards: dedup, drop corrupt lines, sort by ts",
    )
    p.add_argument(
        "--sentinel", action="store_true",
        help="run the regression sentinel over the selected records "
        "(exit 1 when a regression is flagged)",
    )
    p.add_argument(
        "--metric", metavar="FIELD", action="append", default=None,
        help="sentinel metrics (default: misses.false cycles "
        "wall_seconds)",
    )
    p.set_defaults(func=cmd_history)

    p = sub.add_parser(
        "report",
        help="render the static-HTML run-history dashboard",
    )
    store_opts(p)
    p.add_argument(
        "--dashboard", metavar="OUT.html", required=True,
        help="write the dashboard HTML here",
    )
    p.add_argument("--title", default="repro run history")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "artifacts",
        help="inspect/maintain the trace cache's store",
    )
    p.add_argument("--root", metavar="DIR", default=None,
                   help="store root (default: the trace cache, "
                   "$REPRO_TRACE_CACHE or ~/.cache/repro/traces)")
    p.add_argument("--stats", action="store_true",
                   help="entry and byte counts (the default action)")
    p.add_argument("--prune", action="store_true",
                   help="delete every entry")
    p.add_argument("--fsck", action="store_true",
                   help="re-hash every payload; drop and report "
                   "corruption (exit 1 if any)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_artifacts)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "sim_kernel", None):
        import os

        from repro.sim.kernel import KERNEL_ENV

        os.environ[KERNEL_ENV] = args.sim_kernel
    # Thread the scheduler selection through the environment so every
    # entry point (including tune/lab worker processes, which inherit
    # the environment) resolves the same SchedConfig.  Verify's --sched
    # is a fuzz *axis* ("both" is not a schedule) handled explicitly in
    # cmd_verify, so only concrete kinds are exported.
    if getattr(args, "sched", None) in ("rr", "steal") and args.command != "verify":
        import os

        from repro.runtime import stealing

        os.environ[stealing.ENV_SCHED] = args.sched
        if getattr(args, "sched_seed", None) is not None:
            os.environ[stealing.ENV_SEED] = str(args.sched_seed)
        if getattr(args, "grain", None) is not None:
            os.environ[stealing.ENV_GRAIN] = str(args.grain)
    # Same for the machine model: one environment knob, read wherever a
    # simulation resolves its geometry (CLI commands, lab workers).
    if getattr(args, "machine", None):
        import os

        from repro.machine.models import MACHINE_ENV

        os.environ[MACHINE_ENV] = args.machine
    try:
        return args.func(args)
    except ReproError as e:
        # Every pipeline stage raises a ReproError subclass; a bad input
        # earns a one-line diagnostic, never a traceback.
        print(f"repro: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
