"""The benchmark's own tests, on its short mode.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_runs: dict = {}


def bench(workload: str, trace: int, *, script: Path = HERE / "run.py",
          cwd: Path = ROOT, again: bool = False) -> subprocess.CompletedProcess:
    """One short run (memoized per workload and trace mode unless
    ``again`` or another script or directory is asked for)."""
    key = (workload, trace)
    memo = script == HERE / "run.py" and cwd == ROOT and not again
    if memo and key in _runs:
        return _runs[key]
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    if memo:
        _runs[key] = proc
    return proc


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(workload, trace):
    res = result(bench(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_metrics_repeat_exactly(workload):
    first = result(bench(workload, 0))["metrics"]
    second = result(bench(workload, 0, again=True))["metrics"]
    for name in ("fs_reduction_pct", "cycles_ratio", "ok_frac"):
        assert first[name] == second[name]


def test_steal_counts_repeat_exactly():
    first = result(bench("steal-cold", 1))["metrics"]
    second = result(bench("steal-cold", 1, again=True))["metrics"]
    for name in ("runtime.steal.steals", "runtime.steal.migrations"):
        assert first[name] == second[name]
    assert first["runtime.steal.steals"]["value"] > 0


def test_wrong_reference_count_is_a_failure(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    ref_path = copy / "reference.json"
    ref = json.loads(ref_path.read_text())
    key = next(k for k in sorted(ref["misses"]) if k.startswith("Maxflow/N/"))
    ref["misses"][key][3] += 1
    ref_path.write_text(json.dumps(ref))
    res = result(bench("grid-warm", 0, script=copy / "run.py"))
    assert res["failed"] > 0 and not res["correct"]
    assert res["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("grid-warm", 0, script=tmp_path / "perfbench" / "run.py",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_latency_quantiles():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run.tail_share(36) == 26 / 36 and run.tail_share(10) == 1.0
    assert run.quantile([3.0, 1.0, 2.0], 1.0) == 3.0
    assert run.quantile([7.0], 0.5) == pytest.approx(7.0)
    # symmetric samples: the Harrell-Davis median is the centre
    ones = [float(x) for x in range(1, 10)]
    assert run.quantile(ones, 0.5) == pytest.approx(5.0)
    # reference values from scipy.stats.mstats.hdquantiles
    assert run.quantile(ones, 0.25) == pytest.approx(2.7485844, rel=1e-6)
    xs = [10.0] * 25 + [20.0] + [30.0] * 10
    assert run.quantile(xs, run.tail_share(len(xs))) == pytest.approx(21.852503, rel=1e-6)
