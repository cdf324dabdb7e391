"""SPMD interpreter tests: semantics, synchronization, determinism."""

import pytest

from repro.errors import RuntimeFault
from repro.lang import compile_source
from repro.layout import DataLayout
from repro.runtime import run_program

from conftest import BLOCKED_SRC, COUNTER_SRC, HEAP_SRC, interpret


def run(src: str, nprocs: int = 4):
    checked = compile_source(src)
    layout = DataLayout(checked, nprocs=nprocs)
    return run_program(checked, layout, nprocs)


def run_main(body: str, decls: str = "", nprocs: int = 1):
    return run(decls + "\nint main()\n{\n" + body + "\n}\n", nprocs)


class TestExpressionSemantics:
    def test_arithmetic(self):
        r = run_main("print(7 + 3 * 2); print(10 / 3); print(10 % 3); return 0;")
        assert r.output == ["13", "3", "1"]

    def test_c_division_truncates_toward_zero(self):
        r = run_main("print((0 - 7) / 2); print((0 - 7) % 2); return 0;")
        assert r.output == ["-3", "-1"]

    def test_double_arithmetic(self):
        r = run_main("double d; d = 1.0 / 4.0; print(d); return 0;")
        assert r.output == ["0.25"]

    def test_comparisons_and_logic(self):
        r = run_main(
            "print(1 < 2); print(2 <= 1); print(1 && 0); print(1 || 0); print(!3);"
            " return 0;"
        )
        assert r.output == ["1", "0", "0", "1", "0"]

    def test_short_circuit(self):
        # division by zero on the right is never evaluated
        r = run_main("int x; x = 0; print(x != 0 && 1 / x > 0); return 0;")
        assert r.output == ["0"]

    def test_builtins(self):
        r = run_main(
            "print(min(3, 5)); print(max(3, 5)); print(abs(0 - 4));"
            " print(toint(2.9)); return 0;"
        )
        assert r.output == ["3", "5", "4", "2"]

    def test_rnd_deterministic(self):
        a = run_main("print(rnd(42)); return 0;")
        b = run_main("print(rnd(42)); return 0;")
        assert a.output == b.output


class TestControlFlow:
    def test_nested_loops_and_break(self):
        r = run_main(
            "int i; int j; int n; n = 0;\n"
            "for (i = 0; i < 5; i++) {\n"
            "    for (j = 0; j < 5; j++) {\n"
            "        if (j == 2) { break; }\n"
            "        n += 1;\n"
            "    }\n"
            "}\n"
            "print(n); return 0;"
        )
        assert r.output == ["10"]

    def test_continue(self):
        r = run_main(
            "int i; int n; n = 0;\n"
            "for (i = 0; i < 6; i++) { if (i % 2 == 0) { continue; } n += i; }\n"
            "print(n); return 0;"
        )
        assert r.output == ["9"]

    def test_function_calls_and_returns(self):
        r = run(
            "int fib(int n)\n{\n"
            "    int a; int b; int t; int i;\n"
            "    a = 0; b = 1;\n"
            "    for (i = 0; i < n; i++) { t = a + b; a = b; b = t; }\n"
            "    return a;\n}\n"
            "int main() { print(fib(10)); return 0; }"
        )
        assert r.output == ["55"]


class TestMemory:
    def test_globals_and_structs(self):
        r = run(
            "struct p { int x; double y; }; struct p pt;\n"
            "int main()\n{\n"
            "    pt.x = 3; pt.y = 1.5;\n"
            "    print(pt.x); print(pt.y);\n    return 0;\n}"
        )
        assert r.output == ["3", "1.5"]

    def test_heap_alloc_and_pointers(self):
        r = run(
            "struct n { int v; struct n *next; }; struct n *head;\n"
            "int main()\n{\n"
            "    struct n *second;\n"
            "    head = alloc(struct n);\n"
            "    second = alloc(struct n);\n"
            "    head->v = 1; head->next = second;\n"
            "    second->v = 2; second->next = 0;\n"
            "    print(head->next->v);\n"
            "    print(head->next->next == 0);\n    return 0;\n}"
        )
        assert r.output == ["2", "1"]

    def test_alloc_array(self):
        r = run(
            "double *xs;\n"
            "int main()\n{\n"
            "    int i; double s;\n"
            "    xs = alloc_array(double, 10);\n"
            "    for (i = 0; i < 10; i++) { xs[i] = tofloat(i); }\n"
            "    s = 0.0;\n"
            "    for (i = 0; i < 10; i++) { s = s + xs[i]; }\n"
            "    print(s);\n    return 0;\n}"
        )
        assert r.output == ["45.0"]

    def test_address_of_and_deref(self):
        r = run(
            "int g; int *p;\n"
            "int main() { p = &g; *p = 42; print(g); return 0; }"
        )
        assert r.output == ["42"]

    def test_out_of_bounds_faults(self):
        with pytest.raises(RuntimeFault, match="out of bounds"):
            run("int a[4];\nint main() { a[7] = 1; return 0; }")
        with pytest.raises(RuntimeFault, match="out of bounds"):
            run("int a[4];\nint main() { int i; i = 0 - 1; a[i] = 1; return 0; }")

    def test_null_deref_faults(self):
        with pytest.raises(RuntimeFault, match="null"):
            run(
                "struct n { int v; }; struct n *p;\n"
                "int main() { p->v = 1; return 0; }"
            )

    def test_division_by_zero_faults(self):
        with pytest.raises(RuntimeFault, match="zero"):
            run_main("int x; x = 0; print(1 / x); return 0;")


class TestParallelism:
    def test_counter_program_result(self):
        checked = compile_source(COUNTER_SRC)
        for nprocs in (1, 3, 8):
            r = run_program(checked, DataLayout(checked, nprocs=nprocs), nprocs)
            assert r.output == [str(40 * nprocs)]

    def test_blocked_program(self):
        checked = compile_source(BLOCKED_SRC)
        r = run_program(checked, DataLayout(checked, nprocs=4), 4)
        # proc 0 sums data[0..23] after increment: (i%5)+1 summed
        expected = sum(i % 5 + 1 for i in range(24))
        assert r.output == [str(expected)]

    def test_heap_program(self):
        checked = compile_source(HEAP_SRC)
        r = run_program(checked, DataLayout(checked, nprocs=4), 4)
        assert r.output == ["6"]  # one count increment per round

    def test_deterministic_trace(self):
        checked = compile_source(COUNTER_SRC)
        r1 = run_program(checked, DataLayout(checked, nprocs=4), 4)
        r2 = interpret(checked, DataLayout(checked, nprocs=4), 4)
        assert list(r1.trace.addr) == list(r2.trace.addr)
        assert list(r1.trace.proc) == list(r2.trace.proc)

    def test_output_invariant_under_transformed_layout(self, counter_checked):
        from repro.analysis import analyze_program
        from repro.transform import decide_transformations

        pa = analyze_program(counter_checked, 4)
        plan = decide_transformations(pa)
        base = run_program(
            counter_checked, DataLayout(counter_checked, nprocs=4), 4
        )
        opt = interpret(
            counter_checked, DataLayout(counter_checked, plan, nprocs=4), 4
        )
        assert base.output == opt.output

    def test_unlock_not_held_faults(self):
        src = """
        lock_t l;
        void w(int pid) { unlock(&l); }
        int main()
        {
            create(w, 0);
            wait_for_end();
            return 0;
        }
        """
        with pytest.raises(RuntimeFault, match="unlock"):
            run(src, 1)

    def test_recursive_lock_faults(self):
        src = """
        lock_t l;
        void w(int pid) { lock(&l); lock(&l); }
        int main()
        {
            create(w, 0);
            wait_for_end();
            return 0;
        }
        """
        with pytest.raises(RuntimeFault, match="recursive"):
            run(src, 1)

    def test_lock_deadlock_detected(self):
        src = """
        lock_t a;
        lock_t b;
        void w(int pid)
        {
            if (pid == 0) { lock(&a); barrier(); lock(&b); }
            else { lock(&b); barrier(); lock(&a); }
        }
        int main()
        {
            int p;
            for (p = 0; p < nprocs(); p++) { create(w, p); }
            wait_for_end();
            return 0;
        }
        """
        with pytest.raises(RuntimeFault, match="deadlock"):
            run(src, 2)

    def test_trace_contains_only_shared(self):
        from repro.runtime.interpreter import PRIVATE_BASE

        checked = compile_source(COUNTER_SRC)
        r = run_program(checked, DataLayout(checked, nprocs=2), 2)
        assert all(a < PRIVATE_BASE for a in r.trace.addr)
        assert sum(r.private_refs.values()) > 0

    def test_work_counters_positive(self, counter_checked):
        r = run_program(counter_checked, DataLayout(counter_checked, nprocs=2), 2)
        assert all(w > 0 for w in r.work.values())
