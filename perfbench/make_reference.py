"""Write ``reference.json``: the grid's point set and its miss counts.

The counts come from the independent per-reference simulator
(``engine="reference"``), not from the event-compacting engine and
native kernel the benchmark times, so a wrong fast path cannot agree
with itself.  The point set is derived as ``experiments.table2`` derives
it.  Run from the repository root after an intended change to the
simulated numbers::

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
os.environ["REPRO_TRACE_CACHE"] = "0"  # never read or write a user's store

from repro.harness.experiments import WorkloadLab  # noqa: E402
from repro.harness.parallel import resolve_plan  # noqa: E402
from repro.sim.metrics import simulate_run  # noqa: E402
from repro.workloads.registry import by_name  # noqa: E402

import ops  # noqa: E402


def main() -> None:
    lab = WorkloadLab(jobs=1)
    points = ops.grid_points()
    misses = {}
    for point in points:
        name, version, nprocs = point
        wl = by_name(name)
        pipe = lab.pipeline(wl)
        vr = pipe.execute(nprocs, resolve_plan(pipe, wl, version, nprocs), version)
        for bs in ops.GRID_BLOCK_SIZES:
            sim = simulate_run(vr.run, bs, machine="ksr2", engine="reference")
            misses[ops.ref_key(point, bs)] = ops.miss_tuple(sim)
        print(f"{name}/{version}/{nprocs}: {len(vr.run.trace)} refs", file=sys.stderr)
    ops.REFERENCE_FILE.write_text(dump(points, misses))


def dump(points, misses) -> str:
    """The reference as JSON, one point or count per line."""
    rows = [f"  {json.dumps(list(p))}" for p in points]
    counts = [f"  {json.dumps(k)}: {json.dumps(misses[k])}" for k in sorted(misses)]
    return (
        '{"about": "grid miss counts [cold, replace, true_sharing, '
        'false_sharing] from the per-reference simulator",\n'
        ' "points": [\n' + ",\n".join(rows) + '\n ],\n'
        ' "misses": {\n' + ",\n".join(counts) + '\n }}\n'
    )


if __name__ == "__main__":
    main()
