"""Workload suite tests: every benchmark compiles, analyzes to the
expected transformation mix, runs identically under all layouts, and
loses false sharing under the compiler plan.

These run at 6 processors (not the paper's 12) to keep the suite fast;
the full-size experiments live in benchmarks/.
"""

import pytest

from repro.workloads import (
    ALL_WORKLOADS,
    SIMULATION_WORKLOADS,
    by_name,
    table1_rows,
)

from conftest import interpret

NPROCS = 6

_KIND_ATTR = {
    "group_transpose": "group",
    "indirection": "indirections",
    "pad_align": "pads",
    "locks": "lock_pads",
}


@pytest.fixture(scope="module")
def pipes():
    return {wl.name: wl.pipeline() for wl in ALL_WORKLOADS}


class TestRegistry:
    def test_ten_workloads(self):
        assert len(ALL_WORKLOADS) == 10

    def test_six_have_unoptimized_versions(self):
        assert len(SIMULATION_WORKLOADS) == 6

    def test_by_name(self):
        assert by_name("maxflow").name == "Maxflow"
        with pytest.raises(KeyError):
            by_name("nope")

    def test_table1_matches_paper(self):
        rows = {r["program"]: r for r in table1_rows()}
        assert rows["Maxflow"]["lines_of_c"] == 810
        assert rows["Raytrace"]["lines_of_c"] == 12391
        assert rows["Water"]["versions"] == "C P"
        assert rows["Pverify"]["versions"] == "N C P"

    def test_topopt_runs_nine_processors(self):
        assert by_name("topopt").fig3_procs == 9
        assert all(
            w.fig3_procs == 12 for w in ALL_WORKLOADS if w.name != "Topopt"
        )


@pytest.mark.parametrize("wl", ALL_WORKLOADS, ids=lambda w: w.name)
class TestEachWorkload:
    def test_compiles_and_plans(self, wl, pipes):
        pipe = pipes[wl.name]
        plan = pipe.compiler_plan(NPROCS)
        got = {
            kind for kind, attr in _KIND_ATTR.items() if getattr(plan, attr)
        }
        for expected in wl.expected_transforms:
            assert expected in got, (
                f"{wl.name}: expected {expected}, plan has {sorted(got)}"
            )

    def test_outputs_invariant_across_versions(self, wl, pipes):
        pipe = pipes[wl.name]
        versions = [pipe.run_compiler(NPROCS)]
        if wl.programmer_plan is not None:
            versions.append(wl.run_version(pipe, "P", NPROCS))
        outs = [pipe.run_unoptimized(NPROCS).run.output] + [
            interpret(pipe.checked, vr.layout, NPROCS).output for vr in versions
        ]
        assert all(o == outs[0] for o in outs)
        assert outs[0], f"{wl.name} produced no output"

    def test_compiler_reduces_false_sharing(self, wl, pipes):
        pipe = pipes[wl.name]
        fs_n = pipe.run_unoptimized(NPROCS).simulate(128).misses.false_sharing
        fs_c = pipe.run_compiler(NPROCS).simulate(128).misses.false_sharing
        assert fs_n > 0, f"{wl.name} N version exhibits no false sharing"
        assert fs_c < fs_n, f"{wl.name}: compiler did not reduce FS"


class TestPaperSpecifics:
    def test_maxflow_has_no_group_or_indirection(self, pipes):
        plan = pipes["Maxflow"].compiler_plan(NPROCS)
        assert not plan.group and not plan.indirections

    def test_pverify_indirection_dominant(self, pipes):
        plan = pipes["Pverify"].compiler_plan(NPROCS)
        assert len(plan.indirections) >= 2

    def test_topopt_board_untransformed(self, pipes):
        plan = pipes["Topopt"].compiler_plan(NPROCS)
        touched = {m.base for m in plan.group} | {p.base for p in plan.pads}
        assert "board" not in touched

    def test_raytrace_residual_stats_untransformed(self, pipes):
        plan = pipes["Raytrace"].compiler_plan(NPROCS)
        touched = {m.base for m in plan.group} | {p.base for p in plan.pads}
        assert "raystats" not in touched

    def test_maxflow_residual_stats_untransformed(self, pipes):
        plan = pipes["Maxflow"].compiler_plan(NPROCS)
        touched = {m.base for m in plan.group} | {p.base for p in plan.pads}
        assert "hotstats" not in touched

    def test_programmer_plans_weaker_than_compiler(self, pipes):
        # the documented mistakes: P misses transformations C applies
        for name in ("Pverify", "Water", "Pthor", "Mp3d"):
            wl = by_name(name)
            pipe = pipes[name]
            cplan = pipe.compiler_plan(NPROCS)
            pplan = wl.programmer_plan(pipe.analysis(NPROCS))
            c_count = (
                len(cplan.group) + len(cplan.indirections)
                + len(cplan.pads) + len(cplan.lock_pads)
            )
            p_count = (
                len(pplan.group) + len(pplan.indirections)
                + len(pplan.pads) + len(pplan.lock_pads)
            )
            assert p_count < c_count, name
