"""The regression sentinel: rolling baselines and the alert rule."""

import json

import pytest

from repro.obs.query import Query
from repro.obs.sentinel import (
    Alert,
    SentinelConfig,
    check_bench_trajectory,
    check_records,
    check_store,
    evaluate,
    median,
    robust_sigma,
)
from repro.obs.store import RunStore

from test_store import make_record


KEY = ("Maxflow/N", "natural", 12, 128, "python")


def history(values, metric="fs", **kw):
    """A clean per-key history: one record per value, ts strictly
    increasing with the list position."""
    recs = []
    for i, v in enumerate(values):
        fs = v if metric == "fs" else 400
        wall = v if metric == "wall" else 1.0
        ts = (f"2026-08-01T{(i // 3600) % 24:02d}:"
              f"{(i // 60) % 60:02d}:{i % 60:02d}+00:00")
        recs.append(make_record(i, fs=fs, wall_seconds=wall,
                                kernel="python", ts=ts, **kw))
    return recs


class TestStatistics:
    def test_median(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 2, 3]) == 2.5
        with pytest.raises(ValueError):
            median([])

    def test_robust_sigma_matches_std_on_clean_data(self):
        # MAD * 1.4826 approximates the std of symmetric data
        xs = [10, 11, 12, 13, 14, 15, 16]
        assert robust_sigma(xs) == pytest.approx(2.9652)

    def test_robust_sigma_ignores_outliers(self):
        clean = [100.0] * 10
        poisoned = clean + [10_000.0]
        # one bad historical run barely moves the robust scale
        assert robust_sigma(poisoned) == 0.0


class TestRule:
    CFG = SentinelConfig()

    def test_flags_doubling(self):
        alert = evaluate(800.0, [400.0] * 10, "misses.false", KEY, self.CFG)
        assert alert is not None
        assert alert.ratio == pytest.approx(2.0)
        assert "REGRESSION" in alert.describe()
        assert "x2.00" in alert.describe()

    def test_quiet_on_identical_values(self):
        # deterministic counters: MAD = 0, value == median -> no alert
        assert evaluate(400.0, [400.0] * 10, "misses.false", KEY,
                        self.CFG) is None

    def test_quiet_within_relative_floor(self):
        # +10% on a stable counter stays under the 25% relative guard
        assert evaluate(440.0, [400.0] * 10, "misses.false", KEY,
                        self.CFG) is None

    def test_quiet_within_absolute_floor(self):
        # 3 -> 9 misses is x3 but under the 8-miss absolute floor
        assert evaluate(9.0, [3.0] * 10, "misses.false", KEY,
                        self.CFG) is None

    def test_noisy_metric_raises_the_bar(self):
        noisy = [1.0, 1.4, 0.8, 1.2, 1.1, 0.9, 1.3, 1.0]
        med = median(noisy)
        sigma = robust_sigma(noisy)
        value = med + 3.0 * sigma  # inside the z=4 band
        assert evaluate(value, noisy, "wall_seconds", KEY, self.CFG) is None
        assert evaluate(med + 6.0 * sigma, noisy, "wall_seconds", KEY,
                        self.CFG) is not None

    def test_improvements_never_alert(self):
        assert evaluate(10.0, [400.0] * 10, "misses.false", KEY,
                        self.CFG) is None

    def test_min_samples_gate(self):
        cfg = SentinelConfig(min_samples=4)
        assert evaluate(800.0, [400.0] * 3, "misses.false", KEY, cfg) is None
        assert evaluate(800.0, [400.0] * 4, "misses.false", KEY,
                        cfg) is not None


class TestRecords:
    def test_quiet_on_clean_history(self):
        report = check_records(history([400] * 12))
        assert report.ok
        assert report.checked >= 1
        assert report.alerts == []

    def test_flags_injected_regression(self):
        """The acceptance scenario: a doctored record with 2x the
        fs-misses of an otherwise clean history."""
        report = check_records(history([400] * 12 + [800]))
        assert not report.ok
        (alert,) = [a for a in report.alerts if a.metric == "misses.false"]
        assert alert.value == 800
        assert alert.median == 400

    def test_separate_baselines_per_key(self):
        # one workload regresses; the other, with different numbers,
        # stays quiet — keys do not bleed into each other
        a = history([400] * 10 + [800])
        b = history([50] * 10, workload="Water/C")
        report = check_records(a + b)
        assert len(report.alerts) == 1
        assert report.alerts[0].key[0] == "Maxflow/N"

    def test_rolling_window_forgets_old_levels(self):
        # the metric stepped down long ago; the window only sees the
        # new level, so a return to the old level *is* a regression
        cfg = SentinelConfig(window=10)
        report = check_records(history([800] * 20 + [400] * 15 + [800]), cfg)
        assert len(report.alerts) == 1

    def test_untracked_until_enough_history(self):
        report = check_records(history([400, 800]))
        assert report.ok
        assert report.untracked == 1
        assert "untracked" in report.describe()

    def test_wall_time_watched_too(self):
        recs = history([1.0] * 12 + [5.0], metric="wall")
        report = check_records(recs)
        assert any(a.metric == "wall_seconds" for a in report.alerts)


class TestStore:
    def test_check_store_end_to_end(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.ingest_records(history([400] * 12 + [801]))
        report = check_store(store)
        assert len(report.alerts) == 1
        # a filter that excludes the key silences it
        quiet = check_store(
            store, query=Query.build(where=["workload=Water/C"])
        )
        assert quiet.ok and quiet.checked == 0


class TestBenchTrajectory:
    def write(self, tmp_path, points):
        p = tmp_path / "BENCH_engine.json"
        p.write_text(json.dumps(points))
        return p

    def test_flags_slowdown(self, tmp_path):
        points = [
            {"bench": "grid_warm", "python_seconds": 10.0 + i * 0.01,
             "native_seconds": 1.0}
            for i in range(8)
        ] + [{"bench": "grid_warm", "python_seconds": 20.0,
              "native_seconds": 1.0}]
        report = check_bench_trajectory(
            self.write(tmp_path, points),
            ("python_seconds", "native_seconds"),
        )
        assert len(report.alerts) == 1
        assert report.alerts[0].metric == "python_seconds"

    def test_quiet_on_stable_trajectory(self, tmp_path):
        points = [
            {"bench": "grid_warm", "python_seconds": 10.0 + i * 0.01}
            for i in range(8)
        ]
        report = check_bench_trajectory(
            self.write(tmp_path, points), ("python_seconds",)
        )
        assert report.ok and report.checked == 1

    def test_missing_or_corrupt_file_is_untracked(self, tmp_path):
        report = check_bench_trajectory(
            tmp_path / "nope.json", ("python_seconds",)
        )
        assert report.ok and report.untracked == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert check_bench_trajectory(bad, ("python_seconds",)).ok


class TestAlert:
    def test_describe_names_key_fields(self):
        a = Alert(key=KEY, metric="misses.false", value=800, median=400,
                  sigma=0.0, threshold=501.25, samples=12)
        text = a.describe()
        assert "workload=Maxflow/N" in text
        assert "block_size=128" in text
