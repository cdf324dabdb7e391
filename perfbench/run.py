"""The repository benchmark: the paper grid cold and warm, the dynamic
mitigation arms and the work-stealing sweep, with a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload grid-warm --seed 1 --seconds 10 --trace 0

One process, no worker pool, one client in a closed loop: operations
run back to back, in an order the seed permutes, in whole passes over
the workload's point set until ``--seconds`` of passes have elapsed.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the
traced ones.  The last line of standard output is the JSON result.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("grid-cold", "grid-warm", "dynamic", "steal-cold")
#: set-up is repeated this many times per run; ``setup_s`` is the median
SETUP_REPEATS = 3

#: per-layer time metric -> the span name its self time is summed over
LAYER_SPANS = {
    "lang.compile_s": "lang.compile",
    "analysis.analyze_s": "analysis.analyze",
    "transform.plan_s": "transform.plan",
    "layout.build_s": "layout.build",
    "runtime.interp_s": "runtime.interp",
    "runtime.trace_cache.store_s": "runtime.trace_cache.store",
    "runtime.trace_cache.load_s": "runtime.trace_cache.load",
    "sim.events_s": "sim.events",
    "sim.core_s": "sim.core",
    "obs.attribution_s": "obs.attribution",
    "machine.timing_s": "machine.timing",
    "dynamic.mitigate_s": "dynamic.mitigate",
    "verify.oracle_s": "verify.oracle",
}
HARNESS_SPANS = ("harness.pass", "harness.op")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="one program (and fewer machines / seeds) per "
                         "workload, for the benchmark's own tests")
    return ap.parse_args(argv)


def source_digest(src: Path) -> str:
    """Content hash of the program under test (``src/``)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def isolate_env(build: Path) -> None:
    """Drop every ``REPRO_*`` setting of the caller (a user's store or
    sim memo must not turn a cold run warm) and pin the ones the
    benchmark needs: no worker pool, and the kernel cache and the C
    compiler's temporary files inside the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_JOBS"] = "1"
    os.environ["REPRO_KERNEL_CACHE"] = str(build / "kernel")
    (build / "tmp").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(build / "tmp")


def point_store(store: Path) -> None:
    os.environ["REPRO_TRACE_CACHE"] = str(store / "traces")
    os.environ["REPRO_ARTIFACTS"] = str(store / "artifacts")


def prefill(wl, build: Path, digest: str) -> tuple[Path, float]:
    """The filled store a warm workload copies at set-up, built once per
    checkout and program version (like the kernel); returns its path and
    the seconds spent building it (0.0 when it already existed)."""
    import ops
    import tracing

    tag = "short" if wl.short else "full"
    path = build / f"prefill-{wl.name}-{tag}-{digest[:16]}"
    if path.exists():
        return path, 0.0
    t0 = time.perf_counter()
    tmp = build / f"prefill-tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    point_store(tmp)
    p = ops.Pass(tracing.Tracer(False))
    for name, version, nprocs in wl.prefill_points():
        p.execute(ops.by_name(name), version, nprocs)
    try:
        tmp.rename(path)
    except OSError:  # another run built it first
        shutil.rmtree(tmp, ignore_errors=True)
    return path, time.perf_counter() - t0


def fresh_store(store: Path, filled: Path | None) -> None:
    from repro.sim import simcache

    shutil.rmtree(store, ignore_errors=True)
    if filled is not None:
        shutil.copytree(filled, store)
    else:
        store.mkdir(parents=True)
    point_store(store)
    simcache.clear()


def set_up(store: Path, filled: Path | None) -> float:
    """One set-up: load the simulation kernel and make the run's own
    store (a copy of the filled one for warm workloads)."""
    from repro.sim import kernel

    t0 = time.perf_counter()
    kernel.reset_for_tests()
    kernel.active_kernel()
    fresh_store(store, filled)
    return time.perf_counter() - t0


def tail_share(n: int) -> float:
    """The highest quantile of ``n`` samples that has at least ten of
    them beyond it; 1.0 (the maximum) when there are ten or fewer."""
    return (n - 10) / n if n > 10 else 1.0


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: the mean of the
    order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density
    over each one's share of [0, 1] (integrated by the midpoint rule).
    A single order statistic moves with the jitter of whichever
    operation lands on it; the weights spread over its neighbours."""
    xs = sorted(values)
    n = len(xs)
    if q >= 1.0:
        return xs[-1]
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    steps = 64
    ts = [(j + 0.5) / (n * steps) for j in range(n * steps)]
    logs = [(a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t) for t in ts]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    w = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def run_passes(wl, args, tracer, store: Path):
    """Closed loop of whole passes; returns the pass records."""
    import ops

    rng = random.Random(args.seed)
    passes = []
    measured = 0.0
    op_id = 0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if wl.cold and passes:
            fresh_store(store, None)
        else:
            from repro.sim import simcache

            simcache.clear()
        tracer.enabled = traced
        points = []
        groups = wl.groups()
        rng.shuffle(groups)
        for head, *rest in groups:
            rng.shuffle(rest)
            points += [head] + rest
        p = ops.Pass(tracer)
        results, ops_done = {}, []
        t0 = time.perf_counter()
        with tracer.span("harness.pass"):
            for point in points:
                tracer.op_id = op_id
                op_id += 1
                s = time.perf_counter()
                try:
                    with tracer.span("harness.op"):
                        out = wl.run_op(p, point)
                    ok = True
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    out, ok = None, False
                # A preparing step is not an operation: its time is in
                # the pass, and if it fails, the program's operations
                # fail with it.
                if point[0] == ops.PREPARE:
                    continue
                if out is not None:
                    results[point] = out
                ops_done.append([point, time.perf_counter() - s, ok])
        t1 = time.perf_counter()
        wall = t1 - t0
        tracer.enabled = False
        try:
            bad = wl.check_pass(results)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            bad = set(results)
        for rec in ops_done:
            rec[2] = rec[2] and rec[0] not in bad
        passes.append({
            "wall": wall, "ops": ops_done, "counts": p.c, "traced": traced,
            "window": (t0, t1), "results": results,
        })
        measured += wall
        if measured >= args.seconds and (not args.trace or len(passes) >= 2):
            return passes


def end_to_end(wl, passes, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    walls = [p["wall"] for p in passes]
    # Both latency statistics are taken within each pass, then their
    # median over the passes.  Pooled samples would tie the tail's
    # percentile to the number of passes, so a pass ending just before
    # or after --seconds would move it (p72 of one dynamic pass, p86 of
    # two).  Within a pass, the work operations share (an oracle check
    # memoized per plan) falls on as many operations whatever the
    # order; an operation's median over passes would mix the passes in
    # which it carried that work with those in which it did not.
    lats = [[lat * 1000.0 for _, lat, _ in p["ops"]] for p in passes]
    tail_q = tail_share(len(lats[0]))
    p50 = statistics.median(quantile(x, 0.5) for x in lats)
    tail_ms = statistics.median(quantile(x, tail_q) for x in lats)
    attempted = sum(len(x) for x in lats)
    failed = sum(1 for p in passes for _, _, ok in p["ops"] if not ok)
    refs = sum(p["counts"]["sim_refs"] for p in passes)
    try:
        fs_red, cycles = wl.summary(passes[-1]["results"])
    except (KeyError, StopIteration, ZeroDivisionError):
        # some operation produced no result; it is already counted failed
        traceback.print_exc(file=sys.stderr)
        fs_red = cycles = 0.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "refs_per_s": (refs / sum(walls), "refs/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "fs_reduction_pct": (fs_red, "%"),
        "cycles_ratio": (cycles, "ratio"),
    }
    info = {
        "pass_walls_s": walls, "ops": attempted, "failed": failed,
        "ops_per_pass": len(lats[0]), "op_tail_percentile": round(100.0 * tail_q, 2),
    }
    return metrics, info


def per_layer(tracer, passes) -> tuple[dict, dict]:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    n = len(traced)
    selfs: Counter = Counter()
    c: Counter = Counter()
    for p in traced:
        selfs.update(tracer.self_times(*p["window"]))
        c.update(p["counts"])
    wall = sum(p["wall"] for p in traced) / n
    per = {k: selfs.get(span, 0.0) / n for k, span in LAYER_SPANS.items()}

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {k: (v, "s") for k, v in per.items()}
    metrics.update({
        "runtime.interp_calls": (c["interp_calls"] / n, "count"),
        "runtime.interp_refs_per_s": (
            ratio(c["interp_refs"] / n, per["runtime.interp_s"]), "refs/s"),
        "runtime.trace_cache.hit_ratio": (
            ratio(c["cache_hits"], c["cache_loads"]), "ratio"),
        "runtime.trace_cache.bytes": (c["cache_bytes"] / n, "bytes"),
        "runtime.steal.steals": (c["steals"] / n, "count"),
        "runtime.steal.migrations": (c["migrations"] / n, "count"),
        "sim.events_per_ref": (ratio(c["events"], c["events_refs"]), "events/ref"),
        "sim.core_calls": (c["core_calls"] / n, "count"),
        "sim.core_events_per_s": (
            ratio(c["events"] / n, per["sim.core_s"]), "events/s"),
        "sim.native_share": (ratio(c["core_native"], c["core_calls"]), "ratio"),
        "sim.python_fallbacks": (c["core_python"] / n, "count"),
        "dynamic.phases": (c["phases"] / n, "count"),
        "dynamic.repairs": (c["repairs"] / n, "count"),
        "verify.plans_ok_ratio": (ratio(c["plans_ok"], c["plans_checked"]), "ratio"),
        "harness.other_s": (
            sum(selfs.get(s, 0.0) for s in HARNESS_SPANS) / n, "s"),
    })
    plain = statistics.median(p["wall"] for p in untraced)
    info = {
        "traced_wall_s": wall,
        "untraced_wall_s": plain,
        "trace_overhead_pct": 100.0 * (wall / plain - 1.0),
        "layer_sum_s": sum(v for k, (v, u) in metrics.items() if u == "s"),
    }
    return metrics, info


def predictions(workload: str, m: dict, wall: float) -> list[str]:
    """The benchmark's stated predictions for this workload, confirmed
    or refuted."""
    def share(*names):
        return sum(m[n][0] for n in names) / wall

    out = []

    def claim(text, ok, measured):
        out.append(f"{'confirmed' if ok else 'REFUTED'}: {text} (measured {measured})")

    interp = share("runtime.interp_s")
    native = m["sim.native_share"][0]
    if workload == "grid-cold":
        claim("runtime.interp_s >= 80% of the pass", interp >= 0.8, f"{interp:.1%}")
    if workload == "grid-warm":
        claim("runtime.interp_s is 0", m["runtime.interp_s"][0] == 0.0,
              f"{m['runtime.interp_s'][0]:.6f} s")
    if workload in ("grid-cold", "grid-warm"):
        claim("sim.native_share is 1.0", native == 1.0, f"{native:.3f}")
    if workload == "dynamic":
        claim("sim.native_share < 0.5", native < 0.5, f"{native:.3f}")
        both = share("dynamic.mitigate_s", "verify.oracle_s")
        claim("dynamic.mitigate_s + verify.oracle_s > 70% of the pass",
              both > 0.7, f"{both:.1%}")
    return out


def layer_table(workload: str, m: dict, info: dict) -> str:
    wall = info["traced_wall_s"]
    lines = [f"per-layer ledger: {workload} (mean per traced pass; "
             f"traced {wall:.4f} s, untraced {info['untraced_wall_s']:.4f} s, "
             f"tracing overhead {info['trace_overhead_pct']:+.1f}%)"]
    for name, (value, unit) in m.items():
        share = f"{100.0 * value / wall:6.1f}%" if unit == "s" else " " * 7
        lines.append(f"  {name:32s} {value:16.6g} {unit:10s} {share}")
    lines.append(f"  {'sum of self times':32s} {info['layer_sum_s']:16.6g} s")
    lines += ["  " + p for p in predictions(workload, m, wall)]
    return "\n".join(lines)


def provenance(root: Path, digest: str, counts: Counter) -> dict:
    import numpy
    from repro import perf
    from repro.sim import kernel

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "git_revision": rev,
        "source_sha256": digest,
        "machine": {
            "node": platform.node(), "arch": platform.machine(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        },
        "scheduler": "single process, no worker pool, closed loop, 1 client",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_mode": kernel.kernel_mode(),
        "sim_calls_by_protocol_and_kernel": {
            k[len("kernel."):]: v for k, v in sorted(counts.items())
            if k.startswith("kernel.")
        },
        "kernel_fallbacks": {
            k: v for k, v in perf.snapshot().items() if k.endswith("_fallback")
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found under the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    build = root / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    isolate_env(build)
    sys.path[:0] = [str(src), str(HERE)]
    import ops
    import tracing
    from repro import perf

    import_s = time.perf_counter() - T_START
    digest = source_digest(src)
    wl = ops.WORKLOADS[args.workload](args.short, args.seed)
    filled, build_s = (None, 0.0) if wl.cold else prefill(wl, build, digest)
    store = build / f"run-{os.getpid()}"
    try:
        setups = [set_up(store, filled) for _ in range(SETUP_REPEATS)]
        setup_s = import_s + statistics.median(setups)
        perf.reset()
        tracer = tracing.Tracer(False)
        passes = run_passes(wl, args, tracer, store)
        # peak memory of set-up and the timed passes, before the checks
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            bad = wl.final_check(passes[-1]["results"], tracing.Tracer(False))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            bad = set(passes[-1]["results"])
        for rec in passes[-1]["ops"]:
            rec[2] = rec[2] and rec[0] not in bad
        counts = sum((p["counts"] for p in passes), Counter())
        if args.trace:
            metrics, info = per_layer(tracer, passes)
            print(layer_table(args.workload, metrics, info))
            spans_out = build / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans_out)
            info["spans_file"] = str(spans_out.relative_to(root))
        else:
            metrics, info = end_to_end(wl, passes, setup_s, rss_mb)
        info.update(build_s=build_s, setup_runs_s=setups, import_s=import_s)
        print("run:", json.dumps(info, sort_keys=True))
        print("provenance:", json.dumps(provenance(root, digest, counts), sort_keys=True))
    finally:
        shutil.rmtree(store, ignore_errors=True)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for _, _, ok in p["ops"] if not ok)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
