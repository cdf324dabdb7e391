"""Micro-benchmarks of the fast-path simulation engine: trace freeze,
event-stream precompute, reference vs fast vs native-kernel simulator
throughput, the simulation memo — and the headline warm-grid timing,
which appends a machine-readable point to
``benchmarks/results/BENCH_engine.json`` (python-core vs native-kernel
wall-clock over the full experiment grid with a warm trace cache).

Baselines recorded in ``benchmarks/results/engine_baseline.txt``; see
EXPERIMENTS.md ("The performance engine") and docs/PERFORMANCE.md for
the measurement protocol.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.trace import Trace, TraceBuffer
from repro.sim import CacheConfig, build_events, simulate_trace
from repro.sim.engine import simulate_trace_fast
from repro.sim.kernel import KERNEL_ENV, load_kernel
from repro.sim.simcache import cached_simulate, clear

HAVE_NATIVE = load_kernel() is not None

BENCH_JSON = Path(__file__).parent / "results" / "BENCH_engine.json"


def append_bench_point(point: dict, path: Path = BENCH_JSON) -> Path:
    """Append one timing point to ``BENCH_engine.json`` (a JSON list;
    created when absent)."""
    points: list[dict] = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, list):
                points = loaded
        except (OSError, ValueError):
            points = []
    points.append(point)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(points, indent=2) + "\n")
    return path


def sentinel_check(path: Path, metrics: tuple) -> None:
    """Judge the just-appended trajectory point against its history with
    the regression sentinel and print any alerts (a slow machine's run
    records its point; it never aborts)."""
    from repro.obs.sentinel import check_bench_trajectory

    report = check_bench_trajectory(path, metrics)
    if report.alerts:
        print(f"\n{report.describe()}")


def synthetic_trace(n=200_000, procs=8, seed=7):
    rng = np.random.default_rng(seed)
    return Trace(
        proc=rng.integers(0, procs, n).astype(np.int32),
        addr=(rng.integers(0, 8192, n) * 4).astype(np.int64),
        size=np.where(rng.random(n) < 0.1, 8, 4).astype(np.int32),
        is_write=rng.random(n) < 0.4,
    )


def test_trace_freeze(benchmark):
    """Columnar append + freeze of a 200k-reference trace."""
    def go():
        buf = TraceBuffer()
        append = buf.append
        for i in range(200_000):
            append(i & 7, (i * 4) & 0xFFFF, 4, i & 1 == 0)
        return buf.freeze()

    tr = benchmark.pedantic(go, rounds=2, iterations=1)
    assert len(tr) == 200_000


def test_event_precompute(benchmark):
    """Vectorized block-split + compaction for one block size."""
    trace = synthetic_trace()

    def go():
        return build_events(trace, 128)

    ev = benchmark.pedantic(go, rounds=3, iterations=1)
    assert int(ev.repeat.sum()) >= len(trace)


def test_sim_throughput_reference(benchmark):
    trace = synthetic_trace(n=60_000)
    cfg = CacheConfig(size=32 * 1024, block_size=128, assoc=4)
    res = benchmark.pedantic(
        lambda: simulate_trace(trace, 8, cfg), rounds=2, iterations=1
    )
    assert res.refs >= 60_000


def test_sim_throughput_fast(benchmark):
    trace = synthetic_trace(n=60_000)
    cfg = CacheConfig(size=32 * 1024, block_size=128, assoc=4)
    events = build_events(trace, 128)  # exclude precompute: pure sim loop

    def go():
        return simulate_trace_fast(trace, 8, cfg, events=events)

    res = benchmark.pedantic(go, rounds=2, iterations=1)
    assert res.refs >= 60_000


@pytest.mark.skipif(not HAVE_NATIVE, reason="native kernel unavailable")
def test_sim_throughput_native(benchmark):
    """The compiled protocol core on the same event stream as
    ``test_sim_throughput_fast`` — the per-event dispatch comparison."""
    trace = synthetic_trace(n=60_000)
    cfg = CacheConfig(size=32 * 1024, block_size=128, assoc=4)
    events = build_events(trace, 128)

    def go():
        return simulate_trace_fast(trace, 8, cfg, events=events,
                                   kernel="native")

    res = benchmark.pedantic(go, rounds=3, iterations=1)
    assert res.refs >= 60_000 and res.kernel == "native"


def _time_grid(lab) -> float:
    """One timed pass of the full experiment grid (runs already warm;
    simulation memos cleared so the protocol core really executes)."""
    from repro.harness import figure3, figure4, headline, table2, table3

    clear()
    t0 = time.perf_counter()
    figure3(lab=lab)
    table2(lab=lab)
    figure4(lab=lab)
    table3(lab=lab)
    headline(lab=lab)
    return time.perf_counter() - t0


def test_grid_warm_kernel_speedup(lab):
    """The headline measurement: the full experiment grid, warm trace
    cache, python core vs native kernel.  Appends the timings to
    ``benchmarks/results/BENCH_engine.json`` and (when the native
    kernel is available) asserts the documented speedup floor."""
    _time_grid(lab)  # warm-up: interpret/load every run, fill event memos

    old = os.environ.get(KERNEL_ENV)
    try:
        os.environ[KERNEL_ENV] = "python"
        python_s = _time_grid(lab)
        if HAVE_NATIVE:
            os.environ[KERNEL_ENV] = "native"
            native_s = _time_grid(lab)
        else:
            native_s = None
    finally:
        if old is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = old

    speedup = (python_s / native_s) if native_s else None
    point = {
        "bench": "grid_warm",
        "python_seconds": round(python_s, 3),
        "native_seconds": round(native_s, 3) if native_s else None,
        "speedup": round(speedup, 2) if speedup else None,
        "native_available": HAVE_NATIVE,
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    path = append_bench_point(point)
    print(f"\nwarm grid: python {python_s:.2f}s"
          + (f", native {native_s:.2f}s ({speedup:.1f}x)" if native_s else "")
          + f" -> {path}")
    sentinel_check(path, ("python_seconds", "native_seconds"))
    if HAVE_NATIVE:
        assert speedup >= 5.0, (
            f"native kernel warm-grid speedup {speedup:.2f}x is below "
            "the documented 5x floor"
        )


def test_sim_memo_hit(benchmark):
    """A repeat simulation of the same (trace, geometry) is a dict hit."""
    clear()
    trace = synthetic_trace(n=60_000)
    cfg = CacheConfig(size=32 * 1024, block_size=128, assoc=4)
    first = cached_simulate(trace, 8, cfg)
    res = benchmark(cached_simulate, trace, 8, cfg)
    assert res is first
