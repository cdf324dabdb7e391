"""Dynamic mitigation subsystem tests: the addressing overlay, the
phase-mark plumbing, the engine's honesty property (zero repairs ==
plain simulation, bit for bit), actual FS reduction with a verified
equivalence plan, agreement of the Python and native protocol cores
under it, and the per-block false-sharing conservation law under both
schedulers (the signal the engine folds per phase)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import COUNTER_SRC, HEAP_SRC
from repro.dynamic import (
    DYN_BASE,
    AddressOverlay,
    mitigate,
)
from repro import perf
from repro.errors import ReproError
from repro.lang import compile_source
from repro.layout import DataLayout
from repro.runtime import run_program, trace_cache
from repro.runtime.stealing import RR, SchedConfig
from repro.runtime.trace import Trace
from repro.sim import simulate_run
from repro.sim import kernel as K
from repro.sim.coherence import FSPairs
from repro.verify.invariants import check_result_internal
from repro.verify.oracle import diff_states, observe

from test_engine_equivalence import assert_same_columns

NPROCS = 4

#: Four processors hammering adjacent elements of one hot array across
#: six barrier-delimited rounds: a repair at the first boundary pays
#: off for five more phases.
HOT_SRC = """
int hot[8];
int out[64];

void worker(int pid)
{
    int r;
    int i;
    for (r = 0; r < 6; r++) {
        for (i = 0; i < 30; i++) {
            hot[pid] = hot[pid] + 1;
        }
        barrier();
    }
    out[pid] = hot[pid];
}

int main()
{
    int p;
    for (p = 0; p < nprocs(); p++) {
        create(worker, p);
    }
    wait_for_end();
    print(hot[0]);
    return 0;
}
"""

NOBAR_SRC = """
int flags[16];

void worker(int pid)
{
    flags[pid] = pid;
}

int main()
{
    int p;
    for (p = 0; p < nprocs(); p++) {
        create(worker, p);
    }
    wait_for_end();
    print(flags[0]);
    return 0;
}
"""


def interpret(source, sched=RR, nprocs=NPROCS):
    checked = compile_source(source)
    layout = DataLayout(checked, None, nprocs=nprocs)
    run = run_program(checked, layout, nprocs, sched=sched)
    return checked, layout, run


# ---------------------------------------------------------------------------
# The addressing overlay
# ---------------------------------------------------------------------------


class TestOverlay:
    def test_empty_overlay_is_identity(self):
        ov = AddressOverlay(block_size=64)
        addrs = np.array([0, 100, DYN_BASE + 5], dtype=np.int64)
        assert ov.translate(addrs) is addrs

    def test_pad_whole_preserves_offsets(self):
        ov = AddressOverlay(block_size=64)
        r = ov.pad_whole("x", lo=0x100, size=24)
        base = int(r.new_elem_base[0])
        assert base >= DYN_BASE and base % 64 == 0
        addrs = np.array([0x0FF, 0x100, 0x10B, 0x117, 0x118], dtype=np.int64)
        out = ov.translate(addrs)
        # inside [lo, lo+size) moves rigidly; outside passes through
        assert out.tolist() == [0x0FF, base, base + 0xB, base + 0x17, 0x118]

    def test_pad_elements_one_block_each(self):
        ov = AddressOverlay(block_size=64)
        lo, nelems, esize = 1000, 4, 8
        ov.pad_elements("x", lo=lo, nelems=nelems, elem_size=esize)
        addrs = np.array(
            [lo + i * esize + 3 for i in range(nelems)], dtype=np.int64
        )
        out = ov.translate(addrs)
        blocks = set((out // 64).tolist())
        assert len(blocks) == nelems  # every element on its own line
        assert all((a - 3) % 64 == 0 for a in out.tolist())

    def test_group_by_owner_packs_and_separates(self):
        ov = AddressOverlay(block_size=64)
        lo, esize = 2000, 4
        owners = [0, 1, 0, 1, None, 0]
        ov.group_by_owner(
            "g", lo=lo, nelems=6, elem_size=esize, owners=owners, nprocs=2
        )
        addrs = np.array([lo + i * esize for i in range(6)], dtype=np.int64)
        out = ov.translate(addrs).tolist()
        blk = [a // 64 for a in out]
        # same owner -> same segment (one block here); different owners
        # (and the ownerless tail) never share a block
        assert blk[0] == blk[2] == blk[5]
        assert blk[1] == blk[3]
        assert len({blk[0], blk[1], blk[4]}) == 3
        # owner-0 elements are packed contiguously in index order
        assert out[2] == out[0] + esize and out[5] == out[2] + esize

    def test_double_repair_rejected(self):
        ov = AddressOverlay(block_size=64)
        ov.pad_whole("x", lo=0, size=16)
        with pytest.raises(ReproError):
            ov.pad_elements("x", lo=0, nelems=4, elem_size=4)

    def test_overlapping_ranges_rejected(self):
        ov = AddressOverlay(block_size=64)
        ov.pad_whole("a", lo=100, size=50)
        with pytest.raises(ReproError):
            ov.pad_whole("b", lo=120, size=16)
        # adjacent (non-overlapping) is fine
        ov.pad_whole("c", lo=150, size=16)

    def test_guard_block_between_placements(self):
        ov = AddressOverlay(block_size=64)
        r1 = ov.pad_whole("a", lo=0x100, size=10)
        r2 = ov.pad_whole("b", lo=0x200, size=10)
        # size rounds up to one block, plus one guard block
        assert int(r2.new_elem_base[0]) >= int(r1.new_elem_base[0]) + 128

    def test_bytes_moved(self):
        ov = AddressOverlay(block_size=64)
        ov.pad_whole("a", lo=0, size=24)
        ov.pad_elements("b", lo=1000, nelems=4, elem_size=8)
        assert ov.bytes_moved == 24 + 32
        assert ov.repaired("a") and ov.repaired("b")
        assert not ov.repaired("c")


# ---------------------------------------------------------------------------
# Phase marks: the boundaries the engine acts on
# ---------------------------------------------------------------------------


class TestPhaseMarks:
    def test_counter_has_one_boundary(self):
        _, _, run = interpret(COUNTER_SRC)
        assert len(run.phase_marks) == 1
        assert 0 < run.phase_marks[0] < len(run.trace)

    def test_heap_rounds_mark_every_barrier(self):
        _, _, run = interpret(HEAP_SRC)
        marks = run.phase_marks
        assert len(marks) == 6  # one release per round
        assert marks == sorted(marks)
        assert len(set(marks)) == len(marks)
        assert all(0 < m <= len(run.trace) for m in marks)

    def test_barrier_free_run_has_no_marks(self):
        _, _, run = interpret(NOBAR_SRC)
        assert run.phase_marks == []

    def test_trace_cache_round_trips_marks(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "0")
        _, _, run = interpret(HEAP_SRC)
        key = trace_cache.run_key(
            HEAP_SRC, "natural", NPROCS, 128, 4, 200_000_000
        )
        assert trace_cache.store_run(key, run)
        loaded = trace_cache.load_run(key)
        assert loaded is not None
        assert loaded.phase_marks == run.phase_marks


# ---------------------------------------------------------------------------
# The mitigation engine
# ---------------------------------------------------------------------------


class TestEngine:
    @pytest.fixture(scope="class")
    def hot(self):
        return interpret(HOT_SRC)

    def test_zero_repairs_bit_identical_to_plain_sim(self, hot):
        checked, layout, run = hot
        plain = simulate_run(run, 64)
        dyn = mitigate(
            checked, layout, run,
            nprocs=NPROCS, block_size=64, max_repairs=0,
        )
        assert dyn.repairs == [] and dyn.overlay.relocations == []
        got, want = dyn.result, plain
        assert got.misses.as_tuple() == want.misses.as_tuple()
        assert got.invalidations == want.invalidations
        assert got.writebacks == want.writebacks
        assert got.upgrades == want.upgrades
        assert got.refs == want.refs
        assert got.extra_refs == want.extra_refs
        assert_same_columns(got, want)

    def test_mitigation_reduces_false_sharing(self, hot):
        checked, layout, run = hot
        plain = simulate_run(run, 64)
        dyn = mitigate(checked, layout, run, nprocs=NPROCS, block_size=64)
        assert dyn.repairs, "hot array never repaired"
        assert dyn.repairs[0].structure == "hot"
        assert dyn.repairs[0].phase == 0  # caught at the first boundary
        assert (
            dyn.result.misses.false_sharing < plain.misses.false_sharing
        )

    def test_counters_shape(self, hot):
        checked, layout, run = hot
        dyn = mitigate(checked, layout, run, nprocs=NPROCS, block_size=64)
        c = dyn.counters()
        assert set(c) == {
            "phases", "repairs", "repaired", "bytes_moved", "fs_at_repair",
        }
        assert c["phases"] == len(run.phase_marks) + 1
        assert c["repairs"] == len(dyn.repairs) >= 1
        assert "hot" in c["repaired"]
        assert c["bytes_moved"] >= 8 * 4  # the hot array's payload
        assert c["fs_at_repair"] > 0

    def test_plan_passes_the_oracle(self, hot):
        checked, layout, run = hot
        dyn = mitigate(checked, layout, run, nprocs=NPROCS, block_size=64)
        assert any(
            d.reason.startswith("dynamic:") for d in dyn.plan.decisions
        )
        base = observe(checked, None, NPROCS, block_size=64)[0]
        other = observe(checked, dyn.plan, NPROCS, block_size=64)[0]
        assert diff_states(base, other) == []

    def test_threshold_suppresses_repairs(self, hot):
        checked, layout, run = hot
        dyn = mitigate(
            checked, layout, run,
            nprocs=NPROCS, block_size=64, min_phase_fs=10**9,
        )
        assert dyn.repairs == []
        # still a faithful simulation of the unmitigated run
        assert (
            dyn.result.misses.as_tuple()
            == simulate_run(run, 64).misses.as_tuple()
        )

    def test_last_phase_never_repaired(self):
        # one barrier -> two phases; a repair at the final boundary would
        # mitigate nothing, so the counter program may only repair at
        # phase 0 (and its phase-1 traffic is too cold to trigger there)
        checked, layout, run = interpret(COUNTER_SRC)
        dyn = mitigate(checked, layout, run, nprocs=NPROCS, block_size=64)
        assert all(r.phase < len(run.phase_marks) for r in dyn.repairs)


# ---------------------------------------------------------------------------
# The shared protocol core: Python and native kernels agree under mitigate
# ---------------------------------------------------------------------------

HAVE_NATIVE = K.load_kernel() is not None

needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="native kernel unavailable (no C compiler "
    "or REPRO_SIM_KERNEL=python)"
)

KERNELS = ["python", pytest.param("native", marks=needs_native)]


@pytest.fixture
def kernel_mode(monkeypatch):
    """Set ``REPRO_SIM_KERNEL`` for the rest of the test, forgetting the
    memoized kernel load so the new mode takes effect."""
    def use(mode):
        monkeypatch.setenv(K.KERNEL_ENV, mode)
        K.reset_for_tests()
    yield use
    K.reset_for_tests()


class TestSharedCore:
    @pytest.fixture(scope="class")
    def hot(self):
        return interpret(HOT_SRC)

    @staticmethod
    def run(hot, machine="ksr2"):
        checked, layout, run = hot
        return mitigate(
            checked, layout, run,
            nprocs=NPROCS, block_size=64, machine=machine,
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cores_agree(self, hot, kernel, kernel_mode):
        kernel_mode("python")
        want = self.run(hot)
        kernel_mode(kernel)
        got = self.run(hot)
        assert got.result.kernel == kernel
        assert got.repairs, "the comparison should cover a repaired run"
        assert got.phases == want.phases
        assert got.repairs == want.repairs
        assert got.plan.describe() == want.plan.describe()
        assert got.counters() == want.counters()
        g, w = got.result, want.result
        assert g.misses.as_tuple() == w.misses.as_tuple()
        assert (g.invalidations, g.writebacks, g.upgrades, g.refs) == (
            w.invalidations, w.writebacks, w.upgrades, w.refs,
        )
        assert_same_columns(g, w)

    @needs_native
    def test_msi_runs_native_under_auto(self, hot, kernel_mode):
        kernel_mode("auto")
        assert self.run(hot).result.kernel == "native"

    @needs_native
    def test_forced_native_mesi_matches_python(self, hot, kernel_mode):
        kernel_mode("python")
        want = self.run(hot, machine="modern64")
        kernel_mode("native")
        got = self.run(hot, machine="modern64")
        assert got.result.kernel == "native"
        assert got.result.config.protocol == "mesi"
        assert got.repairs, "the comparison should cover a repaired run"
        assert got.phases == want.phases
        assert got.repairs == want.repairs
        assert got.counters() == want.counters()
        g, w = got.result, want.result
        assert g.misses.as_tuple() == w.misses.as_tuple()
        assert (g.invalidations, g.writebacks, g.upgrades, g.refs) == (
            w.invalidations, w.writebacks, w.upgrades, w.refs,
        )
        assert_same_columns(g, w)

    @needs_native
    def test_out_of_envelope_run_falls_back_under_auto(
        self, hot, kernel_mode
    ):
        checked, layout, run = hot
        proc = run.trace.proc.copy()
        proc[-1] = K.MAX_PROC + 1
        trace = Trace(
            proc=proc, addr=run.trace.addr, size=run.trace.size,
            is_write=run.trace.is_write,
        )
        wide = dataclasses.replace(run, trace=trace)
        kernel_mode("auto")
        perf.reset()
        dyn = self.run((checked, layout, wide))
        assert dyn.result.kernel == "python"
        assert perf.get("kernel.envelope_fallback") == 1.0


# ---------------------------------------------------------------------------
# false-sharing pair conservation (the engine's signal) across schedulers
# ---------------------------------------------------------------------------


SCHEDS = [RR, SchedConfig("steal", seed=11)]


@pytest.mark.parametrize("sched", SCHEDS, ids=lambda s: s.kind)
def test_fs_pairs_conserved(sched):
    _, _, run = interpret(COUNTER_SRC, sched)
    res = simulate_run(run, 64)
    assert res.misses.false_sharing > 0
    # per block, pairs sum to the block's FS count; in total, to the
    # headline FS number; the pair blocks are the FS blocks
    assert check_result_internal(res, run.trace, "counter") == []
    p = res.pairs
    assert (p.count > 0).all()
    for col in (p.writer, p.misser):
        assert ((-1 <= col) & (col < NPROCS)).all()


def test_conservation_check_flags_doctored_results():
    """Each doctored pair record keeps the FS total, so only the
    per-block law can flag it."""
    _, _, run = interpret(COUNTER_SRC, RR)
    res = simulate_run(run, 64)
    p = res.pairs
    assert len(np.unique(p.block)) >= 2

    def doctored(writer=p.writer, count=p.count, keep=None):
        cols = [p.block, writer, p.misser, count]
        if keep is not None:
            cols = [c[keep] for c in cols]
        pairs = FSPairs.of(*cols)
        return check_result_internal(
            dataclasses.replace(res, pairs=pairs), run.trace, "doctored"
        )

    # one miss moved from the first block's pairs to the last block's
    moved = p.count.copy()
    moved[0] += 1
    moved[-1] -= 1
    assert any("do not sum to their block's FS" in v for v in doctored(count=moved))
    # the first block's pairs dropped, their misses given to the last
    first = p.block == p.block[0]
    shifted = p.count.copy()
    shifted[-1] += p.count[first].sum()
    got = doctored(count=shifted, keep=~first)
    assert any("pair blocks are not the blocks with FS" in v for v in got)
    # a processor false-sharing with itself
    selfish = p.writer.copy()
    selfish[0] = p.misser[0]
    assert any("writer is its misser" in v for v in doctored(writer=selfish))


def test_fs_pairs_deterministic_under_steal():
    runs = [interpret(COUNTER_SRC, SchedConfig("steal", seed=11))[2]
            for _ in range(2)]
    a, b = (simulate_run(r, 64) for r in runs)
    assert_same_columns(a, b)
    assert a.misses.as_tuple() == b.misses.as_tuple()
