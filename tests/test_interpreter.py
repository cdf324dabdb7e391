"""SPMD interpreter tests: semantics, synchronization, determinism."""

import gc
import hashlib
import weakref

import numpy as np
import pytest

from repro.errors import RuntimeFault
from repro.lang import compile_source
from repro.layout import DataLayout
from repro.layout.datalayout import BARRIER_ADDR
from repro.runtime import Interpreter, run_program
from repro.runtime.stealing import SchedConfig
from repro.transform.plan import Indirection, PadAlign, TransformPlan
from repro.workloads.registry import SIMULATION_WORKLOADS

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
        r = run_main(
            "int x; double d; print((0 - 7) / 2); print((0 - 7) % 2);"
            " x = 0 - 7; x /= 0 - 2; print(x); x = 0 - 7; x /= 2; print(x);"
            " d = 1.0; d /= 4.0; print(d); return 0;"
        )
        assert r.output == ["-3", "-1", "3", "-3", "0.25"]

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

    def test_block_scoped_declaration_shadows_only_its_block(self):
        r = run_main(
            "int x; x = 1;\n"
            "{ int x; x = 5; print(x); }\n"
            "print(x); return 0;"
        )
        assert r.output == ["5", "1"]

    def test_block_scoped_declaration_shadows_a_parameter(self):
        r = run(
            "int f(int n)\n{\n"
            "    int i;\n"
            "    for (i = 0; i < 2; i++) { int n; n = 7; }\n"
            "    return n;\n}\n"
            "int main() { print(f(3)); return 0; }"
        )
        assert r.output == ["3"]


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

    def test_out_of_bounds_message_is_exact(self):
        with pytest.raises(RuntimeFault) as exc:
            run("int a[4];\nint main() { a[7] = 1; return 0; }")
        assert str(exc.value) == "<input>:2:15: index 7 out of bounds [0, 4)"
        with pytest.raises(RuntimeFault) as exc:
            run("int g[3][4];\nint main() { int i; i = 4; g[1][i] = 1; return 0; }")
        assert str(exc.value) == "<input>:2:32: index 4 out of bounds [0, 4)"

    def test_null_deref_faults(self):
        with pytest.raises(RuntimeFault, match="null"):
            run(
                "struct n { int v; }; struct n *p;\n"
                "int main() { p->v = 1; return 0; }"
            )

    def test_division_by_zero_faults(self):
        with pytest.raises(RuntimeFault, match="zero"):
            run_main("int x; x = 0; print(1 / x); return 0;")
        with pytest.raises(RuntimeFault) as exc:
            run_main("int x; int y; x = 5; y = 0; x /= y; return 0;")
        # a compound assignment's fault points at the statement
        assert str(exc.value) == "<input>:4:29: division by zero"


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

    def test_lock_faults_name_the_call(self):
        spawn = "\nint main() { create(w, 0); wait_for_end(); return 0; }"
        with pytest.raises(RuntimeFault) as exc:
            run("lock_t l;\nvoid w(int pid) { unlock(&l); }" + spawn, 1)
        assert exc.value.loc is not None
        assert str(exc.value) == (
            "<input>:2:19: unlock of lock at 0x10000 not held by pid 0"
        )
        with pytest.raises(RuntimeFault) as exc:
            run("lock_t l;\nvoid w(int pid) { lock(&l); lock(&l); }" + spawn, 1)
        assert str(exc.value) == "<input>:2:29: recursive lock at 0x10000"

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


def run_digest(r) -> str:
    """SHA-256 over a run's four trace columns, its per-process
    counters, its output and its heap and phase records."""
    h = hashlib.sha256()
    for col in (r.trace.proc, r.trace.addr, r.trace.size, r.trace.is_write):
        h.update(np.ascontiguousarray(col).tobytes())
    for counts in (r.work, r.private_refs, r.shared_refs):
        h.update(repr(sorted(counts.items())).encode())
    h.update(
        repr((r.output, r.exit_value, r.heap_segments, r.phase_marks)).encode()
    )
    return h.hexdigest()


_DIGEST_CASES = [
    (wl, sched)
    for wl in SIMULATION_WORKLOADS
    for sched in (SchedConfig(), SchedConfig("steal", seed=3))
]


#: run_digest of each workload's natural-layout run at 4 procs.  A change
#: to the interpreter must leave every trace and counter bit-identical.
PINNED_DIGESTS = {
    ("Maxflow", "rr"): "f391611e41fc1434687e37375182f528bbf8471177b55bf900ac9e3b9bf2a7e6",
    ("Maxflow", "steal:seed=3:grain=16"): "f190fe287a3fd2274219b758b775ff8fa0ab898df277051bdc22f2972b1c95fe",
    ("Pverify", "rr"): "9d92553938018fae0a7bad7355d8fc8df77c8328dd1bf38f1793e7a5a849ffd6",
    ("Pverify", "steal:seed=3:grain=16"): "cc111c730a525531ab3fab9968801c87b5307f1b9c2803bf4cd70067d3edd57a",
    ("Topopt", "rr"): "7e570f2f698fcd598dc04e687cd973ba5f13dbbce57a3e5a46625c9814fd8b6b",
    ("Topopt", "steal:seed=3:grain=16"): "7b134bce0db89aa9ca672c1d4dd56afe2bb833a58beea0c0912056e4f3046884",
    ("Fmm", "rr"): "90d4feb87b19cf048d064ccf0747a600f87dc8791acc19576699147127144fd3",
    ("Fmm", "steal:seed=3:grain=16"): "fa5b55923d2b7bf92628634dbef687bb33b4b2602b8b231ec78af8c28b08cbbf",
    ("Radiosity", "rr"): "c1e7217bbc6e71202fb5a5c4799cb2fa4365ee77a3e97eddda75fe7953c1d5bf",
    ("Radiosity", "steal:seed=3:grain=16"): "983e50e71c6b3f008a4e620a4357c686003103706bcc390609ca7a239b8e15d0",
    ("Raytrace", "rr"): "41a42fbf6b133a4c83488bbb065cc8b06d3e5e1254aa38fdd46506a3df84fcab",
    ("Raytrace", "steal:seed=3:grain=16"): "fe7cd10c974623ed46eb7edde07dad389eba4e9d813967dddd29204bfc50bb7e",
}


#: run_digest of each workload's run under the full compiler (``C``) plan
#: at 4 procs and 128 B blocks: indirection (Pverify, Topopt), grouping
#: and padding go through the interpreter's transformed-layout paths.
PINNED_DIGESTS_C = {
    ("Maxflow", "rr"): "00322206d8cb828c0d1486e4b12f84d7b39d52b8319a2b1a6de081b3dcce5040",
    ("Maxflow", "steal:seed=3:grain=16"): "7db61e0182e6748ce9c5fee28c022dd8796ca933ed062e870aefecc78ae6b62b",
    ("Pverify", "rr"): "ccb2bf1c27a8534ae2c30ef534864065aaf12bfba91289e442aa19a117332186",
    ("Pverify", "steal:seed=3:grain=16"): "db16e938425ea8944554787e9fbf8a24f2fb63444a6a46782446e140a498284d",
    ("Topopt", "rr"): "c518d5a2c04dbb9cfb053ef3104ef26c9de44cc700f26bde25959c0e049e6a9d",
    ("Topopt", "steal:seed=3:grain=16"): "d153aa56edaf316be772f5350185575d50483db85a384845fda07e6c80a60d82",
    ("Fmm", "rr"): "808901b43c1e82557c8f7b83fba94935b0936fd7b5819d781bb99e2be432341b",
    ("Fmm", "steal:seed=3:grain=16"): "2deac13300e90c11cb9229215a503490f5f274e17c51d0406f556fbdce01b58e",
    ("Radiosity", "rr"): "7544627c27531455440cb2104070fe416e56f59584cee3f7245cd63afbcfdaae",
    ("Radiosity", "steal:seed=3:grain=16"): "71d96903b50f524896afcbbb7b26879370ff74856c3f4465bd077d9ce1715af9",
    ("Raytrace", "rr"): "5ad4884214f8d387bd37a29e7fc2294df967eb449b751f5eb194ab949195d7c0",
    ("Raytrace", "steal:seed=3:grain=16"): "302b7393cb304d164970c68350705b2afcb0b6157884a07cb3e45f12e339c2dd",
}


NESTED_SYNC_SRC = """
int a[4];

int f(int x)
{
    barrier();
    return x;
}

int g(int x)
{
    barrier();
    return x + 10;
}

void w(int pid)
{
    a[f(1)] = g(2) + a[0];
}

int main()
{
    int p;
    a[0] = 5;
    for (p = 0; p < nprocs(); p++) {
        create(w, p);
    }
    wait_for_end();
    print(a[1]);
    return 0;
}
"""

_A0, _A1, _BAR = 0x10000, 0x10004, BARRIER_ADDR

#: (proc, addr, size, is_write): each worker arrives at g's barrier (read
#: + write), spins or observes the release, loads a[0], then does the
#: same at f's barrier before storing a[1].
NESTED_SYNC_TRACE = [
    (-1, _A0, 4, True),
    (0, _BAR, 8, False), (0, _BAR, 8, True), (0, _BAR, 8, False),
    (1, _BAR, 8, False), (1, _BAR, 8, True), (1, _BAR, 8, False),
    (0, _BAR, 8, False),
    (0, _A0, 4, False),
    (0, _BAR, 8, False), (0, _BAR, 8, True),
    (1, _A0, 4, False),
    (1, _BAR, 8, False), (1, _BAR, 8, True), (1, _BAR, 8, False),
    (1, _A1, 4, True),
    (0, _BAR, 8, False),
    (0, _A1, 4, True),
    (-1, _A1, 4, False),
]


#: A program whose index, pointer, field, operator, call, lock, spawn,
#: declaration, return and loop-condition expressions call a user
#: function that reaches ``barrier()`` (``f``) or none (``g``), so every
#: kind of expression node is lowered on a path to a yield.
GEN_PATHS_SRC = """
struct rec {
    int a;
    double w;
    int *p;
};

int grid[4][5];
struct rec recs[8];
struct rec *heap[4];
int *ptr;
lock_t locks[4];
int flags[4];

int f(int x)
{
    barrier();
    return x;
}

int g(int x)
{
    return x + 0;
}

int h(int a, int b)
{
    return a * 10 + b;
}

void w(int pid)
{
    int i;
    int loc[4];
    int t = f(pid + 1);
    grid[f(1)][f(2)] = grid[1][f(2)] + t;
    loc[f(3)] = f(2) * 3;
    recs[f(pid)].a = recs[f(pid)].a + 1;
    recs[f(pid)].w = f(2);
    heap[f(pid)]->a = heap[pid]->a + f(1);
    heap[f(pid)]->p[f(1)] = 7;
    ptr[f(pid)] = -f(3);
    flags[pid] = !f(0) + (f(1) && f(0)) + (f(0) || f(1)) + (g(0) && g(1));
    if (f(pid) > 0 || g(1)) {
        lock(&locks[f(1)]);
        flags[1] = flags[1] + max(g(pid), g(2)) + loc[3];
        unlock(&locks[g(1)]);
    }
    i = 0;
    while (g(i) < 3) {
        i = i + 1;
        if (i == g(2)) {
            continue;
        }
        grid[0][i] = h(f(i), g(i + 1));
    }
    for (i = g(0); i < f(2); i++) {
        if (i == g(1)) {
            break;
        }
        grid[3][i] = grid[3][i] + 1;
    }
}

int total()
{
    int s = 0;
    int i;
    for (i = 0; i < 4; i++) {
        s = s + flags[i] + grid[0][i] + grid[i][2];
    }
    return s + g(1);
}

int main()
{
    int p;
    int k;
    int *q;
    ptr = alloc_array(int, g(8));
    for (k = 0; k < 4; k++) {
        heap[k] = alloc(struct rec);
        q = alloc_array(int, g(k) + 2);
        heap[k]->p = q;
        recs[k].w = 0.5;
    }
    for (p = 0; p < g(nprocs()); p++) {
        create(w, g(p));
    }
    wait_for_end();
    print(total(), g(3), recs[1].w, ptr[1]);
    return g(total());
}
"""

#: run_digest of GEN_PATHS_SRC at 2 procs: natural layout, and with
#: ``rec.a``/``rec.w`` indirected and ``flags`` padded.
GEN_PATHS_DIGESTS = {
    ("N", "rr"): "73e69bd3dd81f9459f9baadbece57b073316bad9cb3fab94dd5f89fbc0b7514f",
    ("N", "steal:seed=3:grain=16"): "ce4a32fb5629ef6890eddfa7a2306c900d1fe16b8b28b864c69cdaf4e8ad2c37",
    ("I", "rr"): "2909a4ed73b5ea881d3491447602ce6f766141505d754be905aaf352273c94a0",
    ("I", "steal:seed=3:grain=16"): "7d2b9bc8298027019dff1408962f07731c4163d1fe553c117c71a8f425b8d675",
}


class TestPinnedRuns:
    @pytest.mark.parametrize(
        "wl,sched",
        _DIGEST_CASES,
        ids=[f"{wl.name}-{sched.kind}" for wl, sched in _DIGEST_CASES],
    )
    def test_run_digest(self, wl, sched):
        checked = compile_source(wl.source)
        r = interpret(checked, DataLayout(checked, nprocs=4), 4, sched=sched)
        assert run_digest(r) == PINNED_DIGESTS[(wl.name, sched.describe())]

    @pytest.mark.parametrize(
        "wl,sched",
        _DIGEST_CASES,
        ids=[f"{wl.name}-{sched.kind}" for wl, sched in _DIGEST_CASES],
    )
    def test_run_digest_C(self, wl, sched):
        from repro.analysis import analyze_program
        from repro.transform import decide_transformations

        checked = compile_source(wl.source)
        plan = decide_transformations(analyze_program(checked, 4))
        layout = DataLayout(checked, plan, nprocs=4)
        r = interpret(checked, layout, 4, sched=sched)
        assert run_digest(r) == PINNED_DIGESTS_C[(wl.name, sched.describe())]

    @pytest.mark.parametrize("label", ["N", "I"])
    @pytest.mark.parametrize(
        "sched", [SchedConfig(), SchedConfig("steal", seed=3)], ids=["rr", "steal"]
    )
    def test_synchronizing_calls_on_every_path(self, label, sched):
        checked = compile_source(GEN_PATHS_SRC)
        plan = None
        if label == "I":
            plan = TransformPlan(
                nprocs=2,
                indirections=[Indirection("rec", "a"), Indirection("rec", "w")],
                pads=[PadAlign("flags")],
            )
        r = interpret(checked, DataLayout(checked, plan, nprocs=2), 2, sched=sched)
        assert r.output == (["69 3 2.0 -3"] if sched.kind == "rr" else ["62 3 2.0 -3"])
        assert run_digest(r) == GEN_PATHS_DIGESTS[(label, sched.describe())]

    def test_synchronizing_calls_inside_an_expression(self):
        """User functions that reach ``barrier()`` from inside an index
        and a binary operand: the value is evaluated before the target,
        and each call suspends mid-expression."""
        checked = compile_source(NESTED_SYNC_SRC)
        r = interpret(checked, DataLayout(checked, nprocs=2), 2)
        assert r.output == ["17"]
        assert list(r.trace) == NESTED_SYNC_TRACE
        assert r.phase_marks == [6, 14]
        assert r.work == {-1: 48, 0: 24, 1: 24}


class TestRunLifetime:
    @pytest.mark.parametrize(
        "sched", [SchedConfig(), SchedConfig("steal", seed=3)], ids=["rr", "steal"]
    )
    @pytest.mark.parametrize("src", [COUNTER_SRC, NESTED_SYNC_SRC], ids=["counter", "nested"])
    def test_finished_run_is_freed_by_refcount(self, src, sched):
        """No reference cycle keeps a finished run (its memory, trace
        buffers, processes and scheduler) alive until the cyclic GC."""
        checked = compile_source(src)
        gc.collect()
        gc.disable()
        try:
            interp = Interpreter(checked, DataLayout(checked, nprocs=2), 2, sched=sched)
            interp.run()
            ref = weakref.ref(interp)
            del interp
            assert ref() is None
        finally:
            gc.enable()
