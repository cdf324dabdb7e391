"""Regression sentinel: rolling baselines over run history.

Every stored run belongs to a *baseline key* — the tuple (workload,
plan, nprocs, block_size, kernel) that fixes what the numbers should be
comparable across.  For each key and each watched metric the sentinel
keeps a rolling window of prior values and asks whether the newest run
is *meaningfully* worse:

    value > median + max(z * sigma, rel * median, abs_floor)

where ``sigma`` is the robust scale estimate ``1.4826 * MAD`` (the
median absolute deviation scaled to match a normal distribution's
standard deviation).  The three guards compose deliberately:

* ``z * sigma`` — the statistical test; on a noisy metric (wall time)
  the bar rises with the observed jitter.
* ``rel * median`` — a relative floor; on a *perfectly stable* metric
  (deterministic fs-miss counts have MAD = 0) any wobble would
  otherwise flag, so a change must also exceed this fraction of the
  baseline.
* ``abs_floor`` — an absolute floor so one extra miss on a baseline of
  three is never "a regression".

A key is only evaluated once its baseline holds ``min_samples`` values;
until then new keys are reported as *untracked*, never as alerts.
Higher-is-worse is the only direction watched (misses, seconds);
improvements never alert.

Two front ends share the rule:

* :func:`check_store` — evaluate the latest record per key in a
  :class:`~repro.obs.store.RunStore` against its history (the
  ``repro history --sentinel`` CLI and the CI job).
* :func:`check_bench_trajectory` — evaluate the last point of a
  ``benchmarks/results/BENCH_*.json`` trajectory (``bench_engine.py``
  prints its alerts after every run).

Both judge their series through the same per-key loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.obs.query import Query, get_number, scan
from repro.obs.store import RunStore

#: The baseline key: runs are comparable only within one of these.
KEY_FIELDS = ("workload", "plan", "nprocs", "block_size", "kernel")

#: Metrics watched by default (canonical dotted paths).
DEFAULT_METRICS = ("misses.false", "cycles", "wall_seconds")

#: Gaussian consistency constant for the MAD (sigma = MAD_SCALE * MAD).
MAD_SCALE = 1.4826


@dataclass(slots=True)
class SentinelConfig:
    metrics: Sequence[str] = DEFAULT_METRICS
    #: rolling window: at most this many prior values per key
    window: int = 20
    #: evaluate only with at least this many prior values
    min_samples: int = 4
    #: statistical guard: flag beyond z robust sigmas
    z: float = 4.0
    #: relative guard: flag only beyond this fraction over the median
    rel: float = 0.25
    #: absolute floors per metric (fallback when not listed)
    abs_floor: dict = field(
        default_factory=lambda: {
            "misses.false": 8.0,
            "cycles": 1000.0,
            "wall_seconds": 0.02,
        }
    )
    abs_floor_default: float = 1e-9

    def floor(self, metric: str) -> float:
        return float(self.abs_floor.get(metric, self.abs_floor_default))


@dataclass(slots=True)
class Alert:
    """One flagged regression."""

    key: tuple
    metric: str
    value: float
    median: float
    sigma: float
    threshold: float  # the full bar: median + allowance
    samples: int      # baseline size the decision used

    @property
    def ratio(self) -> float:
        return self.value / self.median if self.median else float("inf")

    def describe(self) -> str:
        key = ", ".join(f"{f}={v}" for f, v in zip(KEY_FIELDS, self.key))
        return (
            f"REGRESSION {self.metric}: {self.value:g} vs baseline median "
            f"{self.median:g} (x{self.ratio:.2f}, threshold {self.threshold:g}, "
            f"n={self.samples}) [{key}]"
        )


@dataclass(slots=True)
class SentinelReport:
    alerts: list[Alert] = field(default_factory=list)
    #: (key, metric) pairs evaluated and found fine
    checked: int = 0
    #: keys skipped for lack of baseline history
    untracked: int = 0

    @property
    def ok(self) -> bool:
        return not self.alerts

    def describe(self) -> str:
        head = (
            f"sentinel: {self.checked} series checked, "
            f"{self.untracked} untracked, {len(self.alerts)} alert(s)"
        )
        return "\n".join([head] + [f"  {a.describe()}" for a in self.alerts])


def median(xs: Sequence[float]) -> float:
    ss = sorted(xs)
    n = len(ss)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return float(ss[mid]) if n % 2 else (ss[mid - 1] + ss[mid]) / 2.0


def robust_sigma(xs: Sequence[float], med: Optional[float] = None) -> float:
    """``1.4826 * MAD`` — matches the standard deviation on normal data
    but ignores outliers (one bad historical run cannot widen the bar
    enough to hide a real regression)."""
    med = median(xs) if med is None else med
    return MAD_SCALE * median([abs(x - med) for x in xs])


def evaluate(
    value: float,
    baseline: Sequence[float],
    metric: str,
    key: tuple,
    cfg: SentinelConfig,
) -> Optional[Alert]:
    """Apply the sentinel rule to one new ``value``; None when fine or
    when the baseline is too small to judge."""
    if len(baseline) < cfg.min_samples:
        return None
    med = median(baseline)
    sigma = robust_sigma(baseline, med)
    allowance = max(cfg.z * sigma, cfg.rel * abs(med), cfg.floor(metric))
    threshold = med + allowance
    if value > threshold:
        return Alert(
            key=key, metric=metric, value=float(value), median=med,
            sigma=sigma, threshold=threshold, samples=len(baseline),
        )
    return None


def baseline_key(rec: dict) -> tuple:
    return tuple(rec.get(f) for f in KEY_FIELDS)


def _series(records: Iterable[dict]) -> dict[tuple, list[dict]]:
    """Records grouped per baseline key, in ``ts`` order (stable for
    ties, so same-second records keep ingest order)."""
    groups: dict[tuple, list[dict]] = {}
    for rec in records:
        groups.setdefault(baseline_key(rec), []).append(rec)
    for recs in groups.values():
        recs.sort(key=lambda r: str(r.get("ts") or ""))
    return groups


def check_records(
    records: Iterable[dict],
    cfg: Optional[SentinelConfig] = None,
) -> SentinelReport:
    """Evaluate the newest record of every baseline key against the
    rolling window of its predecessors."""
    return _check_series(
        sorted(_series(records).items(), key=str), cfg or SentinelConfig()
    )


def _check_series(
    series: Iterable[tuple[object, list[dict]]],
    cfg: SentinelConfig,
    alert_key: Callable[[object, str], tuple] = lambda key, _metric: key,
) -> SentinelReport:
    """Judge the newest point of every ``(key, points)`` series against
    the rolling window of its predecessors, metric by metric.  A key
    with no metric to judge counts once as untracked."""
    report = SentinelReport()
    for key, recs in series:
        if len(recs) < 2:
            report.untracked += 1
            continue
        latest, history = recs[-1], recs[:-1]
        evaluated = False
        for metric in cfg.metrics:
            value = get_number(latest, metric)
            if value is None:
                continue
            base = [
                v
                for v in (get_number(r, metric) for r in history)
                if v is not None
            ][-cfg.window:]
            if len(base) < cfg.min_samples:
                continue
            evaluated = True
            report.checked += 1
            alert = evaluate(value, base, metric, alert_key(key, metric), cfg)
            if alert is not None:
                report.alerts.append(alert)
        if not evaluated:
            report.untracked += 1
    return report


def check_store(
    store: RunStore,
    cfg: Optional[SentinelConfig] = None,
    query: Optional[Query] = None,
) -> SentinelReport:
    """Run the sentinel over (a filtered view of) the store."""
    query = query or Query()
    return check_records(scan(store, query), cfg)


# ---------------------------------------------------------------------------
# bench trajectories (benchmarks/results/BENCH_*.json)
# ---------------------------------------------------------------------------


def check_bench_trajectory(
    path: str | Path,
    metrics: Sequence[str],
    *,
    group_field: str = "bench",
    cfg: Optional[SentinelConfig] = None,
) -> SentinelReport:
    """Sentinel over a ``BENCH_*.json`` trajectory (a JSON list of
    points).  Points are grouped by ``group_field``; the last point of
    each group is judged against the prior ones on ``metrics`` (the
    default config's; a given ``cfg`` brings its own).  Missing/corrupt
    files and non-numeric metric values are quietly untracked — the
    bench must keep working on a fresh checkout."""
    cfg = cfg or SentinelConfig(
        metrics=metrics,
        abs_floor={m: 0.05 for m in metrics},
        min_samples=3,
        rel=0.30,
    )
    try:
        points = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        points = None
    if not isinstance(points, list):
        return SentinelReport(untracked=1)
    groups: dict[str, list[dict]] = {}
    for pt in points:
        if isinstance(pt, dict):
            groups.setdefault(str(pt.get(group_field, "")), []).append(pt)
    return _check_series(
        sorted(groups.items()), cfg,
        lambda name, metric: (name, metric, "", "", ""),
    )
