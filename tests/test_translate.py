"""Translated runs: every indirection-free layout's run is translated
from the program's first interpreted run and must equal a fresh
interpretation, bit for bit, on every RunResult field."""

from __future__ import annotations

import numpy as np
import pytest

from repro import perf
from repro.analysis import analyze_program
from repro.lang import compile_source
from repro.layout import DataLayout
from repro.runtime import Interpreter, SchedConfig, run_program
from repro.runtime.translate import FALLBACK_REASONS
from repro.transform import decide_transformations
from repro.transform.plan import ALL_KINDS, LockPad, PadAlign, TransformPlan
from repro.tune.space import space_candidate_plans
from repro.verify import progen
from repro.workloads.registry import SIMULATION_WORKLOADS, by_name

from conftest import COUNTER_SRC

STEAL = SchedConfig("steal", seed=3)

_FIELDS = (
    "nprocs", "work", "private_refs", "shared_refs", "output",
    "exit_value", "heap_segments", "sched", "phase_marks",
)


def assert_same_run(got, want) -> None:
    for col in ("proc", "addr", "size", "is_write"):
        a, b = getattr(got.trace, col), getattr(want.trace, col)
        assert a.dtype == b.dtype, col
        assert np.array_equal(a, b), col
    for name in _FIELDS:
        assert getattr(got, name) == getattr(want, name), name


_REFERENCE: dict = {}


def interpret(source: str, plan, nprocs: int, sched=None):
    """A reference run: a fresh compile, interpreted directly (memoized
    for the module, so both source choices compare with one run)."""
    key = (
        source,
        None if plan is None else plan.fingerprint,
        nprocs,
        None if sched is None else sched.describe(),
    )
    got = _REFERENCE.get(key)
    if got is None:
        checked = compile_source(source)
        layout = DataLayout(checked, plan, nprocs=nprocs)
        got = _REFERENCE[key] = Interpreter(checked, layout, nprocs, sched=sched).run()
    return got


def variants(source: str, nprocs: int) -> list[tuple[str, TransformPlan | None]]:
    """N, C and every non-empty C[kind] whose plan has no indirection."""
    plan = decide_transformations(analyze_program(compile_source(source), nprocs))
    out: list[tuple[str, TransformPlan | None]] = [("N", None), ("C", plan)]
    out += [
        (f"C[{kind}]", plan.restricted_to({kind}))
        for kind in sorted(ALL_KINDS)
        if not plan.restricted_to({kind}).is_empty
    ]
    return [(label, p) for label, p in out if p is None or not p.indirections]


def check_translated(source, labelled, nprocs, first, sched=None) -> None:
    """Run ``first`` (interpreted), then every other plan in
    ``labelled`` on the same compiled program: each must be translated
    and equal a fresh interpretation."""
    plans = dict(labelled)
    checked = compile_source(source)
    perf.reset()
    source_run = run_program(
        checked, DataLayout(checked, plans[first], nprocs=nprocs), nprocs, sched=sched
    )
    assert perf.get("interp.runs") == 1
    assert_same_run(source_run, interpret(source, plans[first], nprocs, sched))
    others = [(label, p) for label, p in labelled if label != first]
    for label, plan in others:
        got = run_program(
            checked, DataLayout(checked, plan, nprocs=nprocs), nprocs, sched=sched
        )
        assert_same_run(got, interpret(source, plan, nprocs, sched))
    assert perf.get("interp.runs") == 1
    assert perf.get("interp.translated") == len(others)
    assert perf.get("interp.translate_fallback") == 0


@pytest.mark.parametrize("wl", SIMULATION_WORKLOADS, ids=lambda w: w.name)
def test_grid_variants_translate_from_n_and_from_a_transformed_variant(wl):
    labelled = variants(wl.source, wl.fig3_procs)
    assert len(labelled) >= 3
    check_translated(wl.source, labelled, wl.fig3_procs, first="N")
    check_translated(wl.source, labelled, wl.fig3_procs, first=labelled[-1][0])


def test_grid_has_eighteen_indirection_free_variants():
    total = sum(
        len(variants(wl.source, wl.fig3_procs)) - 1 for wl in SIMULATION_WORKLOADS
    )
    assert total == 18


@pytest.mark.parametrize("nprocs", [4, 8])
@pytest.mark.parametrize("name", ["Maxflow", "Pverify", "Radiosity"])
def test_steal_variants_translate_with_equal_sched_stats(name, nprocs):
    source = by_name(name).source
    check_translated(source, variants(source, nprocs), nprocs, "N", sched=STEAL)


@pytest.mark.parametrize("seed", range(20))
def test_progen_space_plans_translate(seed):
    source = progen.render(progen.generate(seed))
    plans = [
        (label, plan)
        for label, plan in space_candidate_plans(compile_source(source), 4)
        if not plan.indirections
    ]
    labelled = [("N", None)] + plans
    check_translated(source, labelled, 4, "N")


STRUCT_SRC = """
struct cell {
    int hits;
    lock_t l;
    double w;
};
struct cell *cells;
struct cell table[8];
int tally[8];

void worker(int pid)
{
    int i;
    for (i = 0; i < 4; i++) {
        lock(&cells[pid].l);
        cells[pid].hits = cells[pid].hits + 1;
        unlock(&cells[pid].l);
        table[pid].w = table[pid].w + 0.5;
        tally[pid] += 1;
    }
}

int main()
{
    int p;
    cells = alloc_array(struct cell, 8);
    for (p = 0; p < nprocs(); p++) { create(worker, p); }
    wait_for_end();
    print(cells[0].hits);
    return 0;
}
"""


def test_struct_and_heap_layout_changes_translate():
    """Field offsets, record and element sizes all move: lock padding of
    a struct field, record padding, per-element padding — each plan as
    the translation target and as the source."""
    labelled = [
        ("N", None),
        ("lockfield", TransformPlan(nprocs=4, lock_pads=[LockPad(struct_field=("cell", "l"))])),
        ("record", TransformPlan(nprocs=4, record_pads=["cell"])),
        ("elements", TransformPlan(
            nprocs=4, pads=[PadAlign("table", per_element=True), PadAlign("tally", per_element=True)]
        )),
    ]
    for first, _ in labelled:
        check_translated(STRUCT_SRC, labelled, 4, first)


def test_indirection_layout_is_interpreted():
    wl = by_name("Pverify")
    n = wl.fig3_procs
    checked = compile_source(wl.source)
    plan = decide_transformations(analyze_program(checked, n))
    assert plan.indirections
    perf.reset()
    run_program(checked, DataLayout(checked, None, nprocs=n), n)
    got = run_program(checked, DataLayout(checked, plan, nprocs=n), n)
    assert perf.get("interp.runs") == 2 and perf.get("interp.translated") == 0
    assert_same_run(got, interpret(wl.source, plan, n))


def test_fresh_compile_interprets_again():
    perf.reset()
    for _ in range(2):
        checked = compile_source(COUNTER_SRC)
        run_program(checked, DataLayout(checked, None, nprocs=4), 4)
    assert perf.get("interp.runs") == 2
    assert perf.get("interp.translated") == 0


def test_schedule_and_process_count_key_the_source():
    checked = compile_source(COUNTER_SRC)
    layout = DataLayout(checked, None, nprocs=4)
    perf.reset()
    run_program(checked, layout, 4)
    run_program(checked, layout, 4, sched=STEAL)
    run_program(checked, DataLayout(checked, None, nprocs=2), 2)
    run_program(checked, layout, 4, quantum=2)
    assert perf.get("interp.runs") == 4
    run_program(checked, layout, 4, sched=STEAL)
    assert perf.get("interp.translated") == 1


# -- fallbacks: one per reason, each interprets and counts its reason ---------


def fallback(source, plan, nprocs=4, *, prepare=None, patch=None):
    """Interpret the natural layout, then run ``plan``: the second run
    must fall back, and still equal a fresh interpretation."""
    checked = compile_source(source)
    perf.reset()
    run_program(checked, DataLayout(checked, None, nprocs=nprocs), nprocs)
    if prepare is not None:
        prepare(checked)
    layout = DataLayout(checked, plan, nprocs=nprocs)
    if patch is not None:
        patch(layout)
    got = run_program(checked, layout, nprocs)
    assert perf.get("interp.runs") == 2
    assert perf.get("interp.translated") == 0
    assert perf.get("interp.translate_fallback") == 1
    return got


def reason_count(reason: str) -> float:
    assert reason in FALLBACK_REASONS
    return perf.get(f"interp.translate_fallback.{reason}")


POINTER_PRINT_SRC = """
int cells[8];
void worker(int pid) { cells[pid] = pid; }
int main()
{
    int *p;
    int w;
    p = alloc(int);
    for (w = 0; w < nprocs(); w++) { create(worker, w); }
    wait_for_end();
    print(p);
    return 0;
}
"""

ADDRESS_OF_SRC = """
int cells[8];
void worker(int pid)
{
    int *p;
    p = &cells[0];
    p[pid] = pid;
}
int main()
{
    int w;
    for (w = 0; w < nprocs(); w++) { create(worker, w); }
    wait_for_end();
    return 0;
}
"""

OUT_OF_BOUNDS_SRC = """
int cells[8];
int *buf;
void worker(int pid) { buf[pid + 2] = pid; cells[pid] = 1; }
int main()
{
    int w;
    buf = alloc_array(int, 2);
    for (w = 0; w < nprocs(); w++) { create(worker, w); }
    wait_for_end();
    return 0;
}
"""

PAD_CELLS = TransformPlan(nprocs=4, pads=[PadAlign("cells", per_element=True)])
PAD_COUNTER = TransformPlan(nprocs=4, pads=[PadAlign("counter", per_element=True)])


def test_fallback_pointer_print():
    got = fallback(POINTER_PRINT_SRC, PAD_CELLS)
    assert reason_count("pointer_print") == 1
    assert_same_run(got, interpret(POINTER_PRINT_SRC, PAD_CELLS, 4))


def test_fallback_address_of():
    got = fallback(ADDRESS_OF_SRC, PAD_CELLS)
    assert reason_count("address_of") == 1
    assert_same_run(got, interpret(ADDRESS_OF_SRC, PAD_CELLS, 4))


def test_fallback_overlap(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY_BREAK", "pad_align")
    plan = TransformPlan(nprocs=4, pads=[PadAlign("biglock")])
    fallback(COUNTER_SRC, plan)
    assert reason_count("overlap") == 1
    # the overlapping layout as the source
    checked = compile_source(COUNTER_SRC)
    perf.reset()
    run_program(checked, DataLayout(checked, plan, nprocs=4), 4)
    run_program(checked, DataLayout(checked, None, nprocs=4), 4)
    assert perf.get("interp.runs") == 2
    assert reason_count("overlap") == 1


def test_fallback_unmapped_address():
    got = fallback(OUT_OF_BOUNDS_SRC, PAD_CELLS)
    assert reason_count("unmapped") == 1
    assert_same_run(got, interpret(OUT_OF_BOUNDS_SRC, PAD_CELLS, 4))


def test_fallback_not_injective():
    def collapse(layout):
        layout.address = lambda loc, heap=(): 0x10000

    got = fallback(COUNTER_SRC, PAD_COUNTER, patch=collapse)
    assert reason_count("not_injective") == 1
    assert_same_run(got, interpret(COUNTER_SRC, PAD_COUNTER, 4))


def test_fallback_unknown_heap_type():
    from conftest import HEAP_SRC

    def relabel(checked):
        (source,) = checked.run_memo.values()
        source.run.heap_segments[0] = source.run.heap_segments[0][:2] + ("heap:mystery",)

    plan = TransformPlan(nprocs=4, pads=[PadAlign("done", per_element=True)])
    fallback(HEAP_SRC, plan, prepare=relabel)
    assert reason_count("unknown_heap_type") == 1
