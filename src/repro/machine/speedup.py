"""Speedup curves and maximum-speedup extraction (Figure 4 / Table 3).

All speedups are "relative to the uniprocessor execution of the
unoptimized version", exactly as the paper's Figure 4 caption states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.machine.ksr2 import TimingResult, time_run
from repro.machine.models import resolve_machine
from repro.runtime.trace import RunResult

#: The processor counts the experiments sweep (the KSR2 had 56).
DEFAULT_PROC_COUNTS = (1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56)


@dataclass(slots=True)
class SpeedupCurve:
    """Speedup vs processor count for one program version."""

    label: str
    points: dict[int, float] = field(default_factory=dict)
    timings: dict[int, TimingResult] = field(default_factory=dict)

    @property
    def max_speedup(self) -> float:
        return max(self.points.values()) if self.points else 0.0

    @property
    def max_at(self) -> int:
        if not self.points:
            return 0
        return max(self.points, key=lambda p: self.points[p])

    def scaled_range(self) -> list[int]:
        """Processor counts up to (and including) the peak — the region
        where the version still scales."""
        peak = self.max_at
        return [p for p in sorted(self.points) if p <= peak]


def build_curve(
    label: str,
    run_at: Callable[[int], RunResult],
    proc_counts=DEFAULT_PROC_COUNTS,
    *,
    baseline_cycles: Optional[float] = None,
    machine=None,
) -> tuple[SpeedupCurve, float]:
    """Time a version at each processor count.

    ``run_at(P)`` executes the version with P processes.  If
    ``baseline_cycles`` is None, the P=1 timing of *this* version is used
    as the base (callers pass the unoptimized version's uniprocessor
    cycles to normalize all versions to the same base, as the paper
    does).  ``machine`` is timed at every count (None: the active
    machine).  Returns the curve and the base cycles used.
    """
    model = resolve_machine(machine)
    curve = SpeedupCurve(label=label)
    base = baseline_cycles
    for nprocs in proc_counts:
        run = run_at(nprocs)
        timing = time_run(run, model)
        curve.timings[nprocs] = timing
        if base is None and nprocs == min(proc_counts):
            base = timing.cycles
    assert base is not None and base > 0
    for nprocs, timing in curve.timings.items():
        curve.points[nprocs] = base / timing.cycles
    return curve, base


def improvement_while_scaling(
    unopt: SpeedupCurve, opt: SpeedupCurve
) -> dict[int, float]:
    """Execution-time improvement of the optimized version over the
    range where the unoptimized version still scales (the paper's
    2%-58% numbers)."""
    out: dict[int, float] = {}
    for p in unopt.scaled_range():
        tu = unopt.timings.get(p)
        to = opt.timings.get(p)
        if tu is None or to is None:
            continue
        out[p] = 1.0 - to.cycles / tu.cycles
    return out
