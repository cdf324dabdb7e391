"""Cross-cutting property-based tests: generated programs round-trip
through the frontend; generated traces keep the simulator's invariants;
layout transformations never change program semantics."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import analyze_program
from repro.lang import compile_source, parse, to_source
from repro.layout import DataLayout
from repro.runtime import run_program
from repro.runtime.trace import Trace
from repro.sim import CacheConfig, simulate_trace
from repro.transform import decide_transformations

from conftest import interpret

# ---------------------------------------------------------------------------
# Generated expression round-trips
# ---------------------------------------------------------------------------

_names = st.sampled_from(["x", "y", "z"])


def _exprs(depth: int):
    if depth == 0:
        return st.one_of(
            st.integers(0, 99).map(str),
            _names,
        )
    sub = _exprs(depth - 1)
    return st.one_of(
        sub,
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "%"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub, st.sampled_from(["<", "==", ">="]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
    )


class TestFrontendProperties:
    @settings(max_examples=60, deadline=None)
    @given(_exprs(3))
    def test_generated_programs_roundtrip(self, expr):
        src = (
            "int x; int y; int z;\n"
            "int main()\n{\n"
            f"    int r;\n    r = {expr};\n    print(r);\n    return 0;\n}}\n"
        )
        once = to_source(parse(src))
        assert to_source(parse(once)) == once

    @settings(max_examples=30, deadline=None)
    @given(_exprs(2), st.integers(1, 9))
    def test_generated_programs_evaluate_consistently(self, expr, xval):
        # guard against division by zero by offsetting variables
        src = (
            "int main()\n{\n"
            f"    int x; int y; int z; int r;\n"
            f"    x = {xval}; y = {xval + 1}; z = {xval + 2};\n"
            f"    r = {expr} + 1;\n    print(r);\n    return 0;\n}}\n"
        )
        try:
            checked = compile_source(src)
        except Exception:
            return  # type errors in generated comparisons are fine to skip
        from repro.errors import RuntimeFault

        try:
            r1 = run_program(checked, DataLayout(checked, nprocs=1), 1)
            r2 = interpret(checked, DataLayout(checked, nprocs=1), 1)
        except RuntimeFault:
            return  # division by zero in a generated expression
        assert r1.output == r2.output


# ---------------------------------------------------------------------------
# Simulator invariants over random traces
# ---------------------------------------------------------------------------

events = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 255).map(lambda x: x * 4),
        st.sampled_from([4, 8]),
        st.booleans(),
    ),
    min_size=1,
    max_size=150,
)


def _trace(evts):
    proc, addr, size, w = zip(*evts)
    return Trace(
        proc=np.array(proc, dtype=np.int32),
        addr=np.array(addr, dtype=np.int64),
        size=np.array(size, dtype=np.int32),
        is_write=np.array(w, dtype=bool),
    )


class TestSimulatorProperties:
    @settings(max_examples=40, deadline=None)
    @given(events, st.sampled_from([16, 64, 128]))
    def test_single_processor_has_no_sharing_misses(self, evts, block):
        solo = [(0, a, s, w) for (_p, a, s, w) in evts]
        res = simulate_trace(
            _trace(solo), 1, CacheConfig(size=2048, block_size=block, assoc=2)
        )
        assert res.misses.true_sharing == 0
        assert res.misses.false_sharing == 0

    @settings(max_examples=40, deadline=None)
    @given(events)
    def test_infinite_cache_has_no_replacements(self, evts):
        res = simulate_trace(
            _trace(evts),
            4,
            CacheConfig(size=1 << 20, block_size=64, assoc=1 << 14 - 6),
        )
        assert res.misses.replace == 0

    @settings(max_examples=40, deadline=None)
    @given(events, st.sampled_from([32, 128]))
    def test_miss_conservation(self, evts, block):
        res = simulate_trace(
            _trace(evts), 4, CacheConfig(size=4096, block_size=block, assoc=2)
        )
        m = res.misses
        assert m.total == m.cold + m.replace + m.true_sharing + m.false_sharing
        assert m.cold >= 1  # at least the first reference misses


# ---------------------------------------------------------------------------
# Layout transformations preserve semantics
# ---------------------------------------------------------------------------

_PROGRAM = """
lock_t l;
int tally[32];
int acc;

void w(int pid)
{{
    int i;
    for (i = pid; i < 32; i += nprocs()) {{
        tally[i] += i + {salt};
    }}
    barrier();
    lock(&l);
    acc = acc + tally[pid];
    unlock(&l);
}}

int main()
{{
    int p;
    acc = 0;
    for (p = 0; p < nprocs(); p++) {{ create(w, p); }}
    wait_for_end();
    print(acc);
    return 0;
}}
"""


class TestSemanticPreservation:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        salt=st.integers(0, 50),
        nprocs=st.integers(2, 8),
        block=st.sampled_from([32, 128]),
    )
    def test_any_plan_preserves_output(self, salt, nprocs, block):
        checked = compile_source(_PROGRAM.format(salt=salt))
        plan = decide_transformations(
            analyze_program(checked, nprocs), block_size=block
        )
        base = run_program(
            checked, DataLayout(checked, nprocs=nprocs, block_size=block), nprocs
        )
        opt = interpret(
            checked,
            DataLayout(checked, plan, nprocs=nprocs, block_size=block),
            nprocs,
        )
        assert base.output == opt.output
