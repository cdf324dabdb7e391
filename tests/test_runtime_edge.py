"""Runtime edge cases: indirection protocol details, uneven barriers,
runaway guards, straddling layouts."""

import pytest

from repro.errors import RuntimeFault
from repro.analysis import analyze_program
from repro.lang import compile_source
from repro.layout import DataLayout
from repro.runtime import run_program
from repro.transform import decide_transformations

from conftest import HEAP_SRC, interpret


def run(src, nprocs=4, plan=None, **kw):
    checked = compile_source(src)
    layout = DataLayout(checked, plan, nprocs=nprocs)
    return run_program(checked, layout, nprocs, **kw)


class TestIndirectionProtocol:
    def _opt_run(self, nprocs=4):
        checked = compile_source(HEAP_SRC)
        plan = decide_transformations(analyze_program(checked, nprocs))
        assert plan.indirections
        layout = DataLayout(checked, plan, nprocs=nprocs)
        return run_program(checked, layout, nprocs), layout

    def test_values_survive_migration(self):
        # main initializes tag (not indirected) and workers count/value:
        # results must match the natural layout exactly
        base = run(HEAP_SRC, 4)
        opt, _ = self._opt_run(4)
        assert base.output == opt.output

    def test_arena_addresses_disjoint_across_processes(self):
        from repro.layout import ARENA_BASE

        opt, layout = self._opt_run(4)
        # every worker got its own arena region
        bases = [layout.arena_base(p) for p in range(4)]
        assert len(set(bases)) == 4
        assert all(b >= ARENA_BASE for b in bases)

    def test_per_field_subregions_disjoint(self):
        _, layout = self._opt_run(4)
        regions = {
            layout.arena_region(1, s, f)
            for (s, f) in layout.indirected
        }
        assert len(regions) == len(layout.indirected)

    def test_extra_pointer_loads_in_trace(self):
        base = run(HEAP_SRC, 4)
        opt, _ = self._opt_run(4)
        # indirection costs an additional memory access per reference
        assert len(opt.trace) > len(base.trace)


class TestBarriersAndWorkers:
    def test_uneven_worker_exit_releases_barrier(self):
        # pid 0 runs one barrier round; the others run two: once pid 0
        # exits, the remaining workers' barrier must still release
        src = """
        int a[64];
        void w(int pid)
        {
            a[pid] = 1;
            barrier();
            if (pid > 0) {
                a[pid] = 2;
                barrier();
            }
        }
        int main()
        {
            int p;
            for (p = 0; p < nprocs(); p++) { create(w, p); }
            wait_for_end();
            print(a[0] + a[1]);
            return 0;
        }
        """
        # note: the *static* analysis would reject this barrier placement,
        # but the runtime handles it (checker/analyses only run on demand)
        r = run(src, 4)
        assert r.output == ["3"]

    def test_single_worker_barriers_trivial(self):
        src = """
        int x;
        void w(int pid) { barrier(); x = 1; barrier(); x = x + 1; }
        int main()
        {
            create(w, 0);
            wait_for_end();
            print(x);
            return 0;
        }
        """
        assert run(src, 1).output == ["2"]

    def test_max_steps_guard_fires(self):
        src = """
        int spin;
        void w(int pid) { while (1 == 1) { spin += 1; } }
        int main()
        {
            create(w, 0);
            wait_for_end();
            return 0;
        }
        """
        with pytest.raises(RuntimeFault, match="exceeded"):
            run(src, 1, max_steps=5000)

    def test_zero_workers_program(self):
        src = "int main() { print(7); return 0; }"
        r = run(src, 4)
        assert r.output == ["7"] and r.exit_value == 0


class TestLayoutEdge:
    def test_doubles_not_straddling_after_transform(self):
        # group region mixes 4-byte and 8-byte members: alignment must hold
        src = """
        int a[64];
        double b[64];
        void w(int pid)
        {
            int i;
            for (i = 0; i < 30; i++) {
                a[pid] += 1;
                b[pid] = b[pid] + 0.5;
            }
        }
        int main()
        {
            int p;
            for (p = 0; p < nprocs(); p++) { create(w, p); }
            wait_for_end();
            print(b[0]);
            return 0;
        }
        """
        checked = compile_source(src)
        plan = decide_transformations(analyze_program(checked, 5))
        layout = DataLayout(checked, plan, nprocs=5)
        for i in range(5):
            addr, ty = layout.materialize("b", [("idx", i)])
            assert addr % 8 == 0, f"b[{i}] misaligned at {addr:#x}"
        base = run_program(checked, DataLayout(checked, nprocs=5), 5)
        opt = interpret(checked, layout, 5)
        assert base.output == opt.output

    def test_heap_segments_recorded(self):
        r = run(HEAP_SRC, 2)
        assert len(r.heap_segments) == 32
        labels = {label for (_a, _s, label) in r.heap_segments}
        assert labels == {"heap:struct node"}
