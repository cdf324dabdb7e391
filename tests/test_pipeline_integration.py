"""End-to-end pipeline integration tests: analysis → plan → layout →
trace → simulation, on the fixture programs."""

from repro.harness import Pipeline
from repro.sim import top_fs_structures

from conftest import BLOCKED_SRC, COUNTER_SRC, HEAP_SRC, interpret


class TestPipeline:
    def test_plan_cached(self):
        pipe = Pipeline(COUNTER_SRC)
        assert pipe.compiler_plan(4) is pipe.compiler_plan(4)
        assert pipe.analysis(4) is pipe.analysis(4)
        assert pipe.compiler_plan(4) is not pipe.compiler_plan(8)

    def test_version_runs(self):
        pipe = Pipeline(COUNTER_SRC)
        vn = pipe.run_unoptimized(4)
        vc = pipe.run_compiler(4)
        assert vn.version == "N" and vc.version == "C"
        assert vn.run.output == interpret(pipe.checked, vc.layout, 4).output

    def test_counter_fs_eliminated(self):
        pipe = Pipeline(COUNTER_SRC)
        sn = pipe.run_unoptimized(8).simulate(128)
        sc = pipe.run_compiler(8).simulate(128)
        assert sn.misses.false_sharing > 200
        assert sc.misses.false_sharing < sn.misses.false_sharing * 0.1

    def test_heap_fs_eliminated_via_indirection(self):
        pipe = Pipeline(HEAP_SRC)
        plan = pipe.compiler_plan(8)
        assert plan.indirections
        sn = pipe.run_unoptimized(8).simulate(128)
        sc = pipe.run_compiler(8).simulate(128)
        assert sc.misses.false_sharing < sn.misses.false_sharing * 0.5

    def test_blocked_program_boundary_fs(self):
        pipe = Pipeline(BLOCKED_SRC)
        sn = pipe.run_unoptimized(8).simulate(128)
        sc = pipe.run_compiler(8).simulate(128)
        assert sc.misses.false_sharing <= sn.misses.false_sharing

    def test_attribution_finds_culprit(self):
        # at 32-byte blocks the counter array spans its own blocks
        pipe = Pipeline(COUNTER_SRC)
        vn = pipe.run_unoptimized(8)
        sn = vn.simulate(32)
        top = top_fs_structures(sn, vn.regions(), 2)
        assert top[0].name in ("counter", "sums", "biglock")

    def test_fs_grows_with_block_size(self):
        # monotone while the hot data still spans multiple blocks
        pipe = Pipeline(COUNTER_SRC)
        vn = pipe.run_unoptimized(8)
        fs = [vn.simulate(bs).misses.false_sharing for bs in (8, 16, 64)]
        assert fs[0] <= fs[1] <= fs[2]

    def test_timing_monotone_sanity(self):
        from dataclasses import replace

        from repro.machine import get_machine

        ksr2 = replace(get_machine("ksr2"), cpi=4.0)
        pipe = Pipeline(COUNTER_SRC)
        t1 = pipe.run_unoptimized(1).timing(ksr2)
        t4 = pipe.run_unoptimized(4).timing(ksr2)
        # with 4x the total work spread over 4 procs plus coherence,
        # cycles at P=4 are below the serial time of the same total work
        assert t4.cycles < t1.cycles * 4
