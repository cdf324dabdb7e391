"""Tests for the section-6 baselines: word-granularity invalidation
[DSR+93] and profile-guided transformation [TLH94]."""

import numpy as np

from repro.harness import Pipeline
from repro.runtime.trace import Trace
from repro.sim import CacheConfig, simulate_run, simulate_trace
from repro.transform import profile_guided_plan

from conftest import COUNTER_SRC, HEAP_SRC, interpret


def _trace(events):
    proc, addr, size, w = zip(*events)
    return Trace(
        proc=np.array(proc, np.int32),
        addr=np.array(addr, np.int64),
        size=np.array(size, np.int32),
        is_write=np.array(w, bool),
    )


class TestWordInvalidation:
    CFG = CacheConfig(size=2048, block_size=64, assoc=2)

    def test_false_sharing_eliminated(self):
        events = []
        for _ in range(6):
            events.append((0, 0, 4, True))
            events.append((1, 32, 4, True))
        block = simulate_trace(_trace(events), 2, self.CFG)
        word = simulate_trace(
            _trace(events), 2, self.CFG, word_invalidate=True
        )
        assert block.misses.false_sharing >= 8
        assert word.misses.false_sharing == 0

    def test_true_communication_still_misses(self):
        events = [
            (1, 32, 4, True),  # p1 fills the block first
            (0, 0, 4, True),   # p0 writes word 0 -> stale in p1's copy
            (1, 0, 4, False),  # p1 reads the word p0 wrote: real comm
        ]
        word = simulate_trace(
            _trace(events), 2, self.CFG, word_invalidate=True
        )
        assert word.misses.true_sharing == 1
        assert word.misses.false_sharing == 0

    def test_whole_program_fs_free(self):
        pipe = Pipeline(COUNTER_SRC)
        vn = pipe.run_unoptimized(8)
        block = simulate_run(vn.run, 128)
        word = simulate_run(vn.run, 128, word_invalidate=True)
        assert block.misses.false_sharing > 100
        assert word.misses.false_sharing == 0
        assert word.total_misses < block.total_misses

    def test_block_mode_unaffected_by_flag_default(self):
        pipe = Pipeline(COUNTER_SRC)
        vn = pipe.run_unoptimized(4)
        a = simulate_run(vn.run, 128)
        b = simulate_run(vn.run, 128, word_invalidate=False)
        assert a.misses == b.misses


class TestProfileGuided:
    def test_pads_the_profiled_offenders(self):
        pipe = Pipeline(COUNTER_SRC)
        vn = pipe.run_unoptimized(8)
        plan = profile_guided_plan(vn.run, vn.layout, block_size=128)
        padded = {p.base for p in plan.pads}
        assert padded & {"counter", "sums"}
        # TLH94 never group/indirect and never pad locks
        assert not plan.group and not plan.indirections
        assert not plan.lock_pads

    def test_record_padding_for_heap_types(self):
        pipe = Pipeline(HEAP_SRC)
        vn = pipe.run_unoptimized(8)
        plan = profile_guided_plan(vn.run, vn.layout, block_size=128)
        assert "node" in plan.record_pads

    def test_record_padding_reduces_fs_and_grows_data(self):
        pipe = Pipeline(HEAP_SRC)
        vn = pipe.run_unoptimized(8)
        plan = profile_guided_plan(vn.run, vn.layout, block_size=128)
        vt = pipe.run_with_plan(8, plan, "TLH94")
        assert interpret(pipe.checked, vt.layout, 8).output == vn.run.output
        sn = vn.simulate(128)
        st = vt.simulate(128)
        assert st.misses.false_sharing < sn.misses.false_sharing
        # padded records occupy whole blocks
        assert vt.layout.struct_type("node").size % 128 == 0

    def test_semantics_preserved(self):
        pipe = Pipeline(COUNTER_SRC)
        vn = pipe.run_unoptimized(6)
        plan = profile_guided_plan(vn.run, vn.layout, block_size=128)
        vt = pipe.run_with_plan(6, plan, "TLH94")
        assert interpret(pipe.checked, vt.layout, 6).output == vn.run.output

    def test_restricted_to_keeps_record_pads_with_pad_kind(self):
        from repro.transform import TransformPlan

        plan = TransformPlan(nprocs=4, record_pads=["node"])
        assert plan.restricted_to({"pad_align"}).record_pads == ["node"]
        assert plan.restricted_to({"locks"}).record_pads == []
        assert not plan.restricted_to({"pad_align"}).is_empty
