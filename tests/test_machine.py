"""Timing model and speedup machinery tests."""

from dataclasses import replace

from repro.lang import compile_source
from repro.layout import DataLayout
from repro.machine import (
    MACHINES,
    SpeedupCurve,
    build_curve,
    improvement_while_scaling,
    time_run,
)
from repro.runtime import run_program

from conftest import COUNTER_SRC

KSR2 = MACHINES["ksr2"]


class TestLatencyModel:
    def test_local_ring(self):
        assert KSR2.miss_latency(1) == KSR2.local_latency
        assert KSR2.miss_latency(32) == KSR2.local_latency

    def test_cross_ring_mix(self):
        lat48 = KSR2.miss_latency(48)
        assert KSR2.local_latency < lat48 < KSR2.remote_latency
        assert KSR2.miss_latency(56) > lat48

    def test_time_run_components(self):
        checked = compile_source(COUNTER_SRC)
        run = run_program(checked, DataLayout(checked, nprocs=4), 4)
        t = time_run(run, machine=replace(KSR2, cpi=2.0))
        assert t.cycles > 0
        assert t.cycles == t.serial_cycles + t.parallel_cycles
        assert 0.0 <= t.utilization < 1.0
        assert t.effective_latency >= t.miss_latency

    def test_contention_increases_latency(self):
        checked = compile_source(COUNTER_SRC)
        r8 = run_program(checked, DataLayout(checked, nprocs=8), 8)
        cheap = time_run(r8, machine=replace(KSR2, cpi=2.0, occupancy=1.0))
        costly = time_run(
            r8, machine=replace(KSR2, cpi=2.0, occupancy=30.0)
        )
        assert costly.effective_latency > cheap.effective_latency


class TestSpeedupCurves:
    def _runner(self, checked):
        def run_at(nprocs):
            return run_program(
                checked, DataLayout(checked, nprocs=nprocs), nprocs
            )
        return run_at

    def test_normalized_to_uniprocessor(self):
        checked = compile_source(COUNTER_SRC)
        curve, base = build_curve(
            "N", self._runner(checked), (1, 2, 4),
            machine=replace(KSR2, cpi=4.0),
        )
        assert curve.points[1] == 1.0
        assert base > 0

    def test_external_baseline(self):
        checked = compile_source(COUNTER_SRC)
        _, base = build_curve("N", self._runner(checked), (1, 2),
                              machine=replace(KSR2, cpi=4.0))
        curve2, base2 = build_curve(
            "C", self._runner(checked), (1, 2),
            baseline_cycles=base, machine=replace(KSR2, cpi=4.0),
        )
        assert base2 == base

    def test_max_and_scaled_range(self):
        c = SpeedupCurve("x", points={1: 1.0, 2: 1.8, 4: 2.5, 8: 2.1})
        assert c.max_speedup == 2.5 and c.max_at == 4
        assert c.scaled_range() == [1, 2, 4]

    def test_improvement_while_scaling(self):
        from repro.machine import TimingResult

        def t(cycles):
            return TimingResult(
                nprocs=1, cycles=cycles, serial_cycles=0.0,
                parallel_cycles=cycles, utilization=0.0,
                effective_latency=175.0, miss_latency=175.0,
                transactions=0, misses_per_proc={},
            )

        unopt = SpeedupCurve("N", points={1: 1.0, 2: 2.0, 4: 1.5},
                             timings={1: t(100), 2: t(50), 4: t(66)})
        opt = SpeedupCurve("C", points={1: 1.0, 2: 2.2, 4: 3.0},
                           timings={1: t(100), 2: t(45), 4: t(33)})
        imp = improvement_while_scaling(unopt, opt)
        assert set(imp) == {1, 2}  # the range where N still scales
        assert imp[2] == 1.0 - 45 / 50


class TestPinnedKSR2Cycles:
    """Exact ksr2 cycles for two paper workloads, each calibrated with
    its own ``cpi``: any change to the timing model or to the machine
    description it reads shows up here as a changed float."""

    PINNED = {
        ("Maxflow", "N"): {1: 687931.0, 4: 355716.55123192596,
                           8: 246242.9012301086},
        ("Maxflow", "C"): {1: 688331.0, 4: 255060.91583390144,
                           8: 186370.30323813012},
        ("Pverify", "N"): {1: 637320.5, 4: 407915.75358457415,
                           8: 310740.9948750082},
        ("Pverify", "C"): {1: 657120.5, 4: 213917.01636263923,
                           8: 127260.03943310727},
    }

    def test_cycles_match_pinned_values(self, monkeypatch):
        from repro.harness.experiments import WorkloadLab, scalability
        from repro.workloads.registry import by_name

        monkeypatch.delenv("REPRO_MACHINE", raising=False)
        lab = WorkloadLab(jobs=1)
        for name in ("Maxflow", "Pverify"):
            sc = scalability(by_name(name), (1, 4, 8), lab)
            for version in ("N", "C"):
                got = {
                    p: t.cycles
                    for p, t in sc.curves[version].timings.items()
                }
                assert got == self.PINNED[(name, version)], (name, version)


class TestMachineReachesTiming:
    """``--machine`` / ``REPRO_MACHINE`` reaches the cycles, not only
    the miss counts."""

    def test_cycles_differ_across_machines(self):
        checked = compile_source(COUNTER_SRC)
        r16 = run_program(checked, DataLayout(checked, nprocs=16), 16)
        cycles = {
            name: time_run(r16, machine=name).cycles
            for name in ("ksr2", "modern64", "numa2")
        }
        assert len(set(cycles.values())) == 3, cycles
        # numa2 and modern64 share a cache geometry and a 40-cycle local
        # tier: they part only once traffic leaves numa2's 8-core socket
        r4 = run_program(checked, DataLayout(checked, nprocs=4), 4)
        assert (
            time_run(r4, machine="numa2").cycles
            == time_run(r4, machine="modern64").cycles
        )

    def test_score_version_follows_active_machine(self, monkeypatch):
        from repro.harness import Pipeline
        from repro.tune.objective import score_version

        vr = Pipeline(COUNTER_SRC).run_unoptimized(4)
        scores = {}
        for name in ("ksr2", "modern64"):
            monkeypatch.setenv("REPRO_MACHINE", name)
            scores[name] = score_version(vr, natural_bytes=0)
        assert scores["modern64"].cycles != scores["ksr2"].cycles
