"""Coherence simulator tests: protocol behaviour and the miss
classification (cold / replace / true / false sharing)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.runtime.trace import Trace
from repro.sim import CacheConfig, CoherenceSim, simulate_trace


def make_trace(events):
    """events: list of (proc, addr, size, is_write)."""
    proc, addr, size, w = zip(*events)
    return Trace(
        proc=np.array(proc, dtype=np.int32),
        addr=np.array(addr, dtype=np.int64),
        size=np.array(size, dtype=np.int32),
        is_write=np.array(w, dtype=bool),
    )


def sim(events, block=64, size=4 * 1024, assoc=2, nprocs=4):
    cfg = CacheConfig(size=size, block_size=block, assoc=assoc)
    return simulate_trace(make_trace(events), nprocs, cfg)


class TestClassification:
    def test_cold_miss(self):
        r = sim([(0, 0, 4, False)])
        assert r.misses.cold == 1 and r.total_misses == 1

    def test_hit_after_fill(self):
        r = sim([(0, 0, 4, False), (0, 4, 4, False)])
        assert r.total_misses == 1

    def test_true_sharing(self):
        # p1 reads the word p0 wrote
        r = sim([
            (0, 0, 4, True),
            (1, 0, 4, False),
            (0, 0, 4, True),   # upgrade-invalidate p1
            (1, 0, 4, False),  # miss on the word p0 modified -> true
        ])
        assert r.misses.true_sharing == 1
        assert r.misses.false_sharing == 0

    def test_false_sharing(self):
        # p0 and p1 write different words of the same block
        events = []
        for _ in range(4):
            events.append((0, 0, 4, True))
            events.append((1, 32, 4, True))
        r = sim(events)
        assert r.misses.false_sharing >= 4
        assert r.misses.true_sharing == 0

    def test_padding_removes_false_sharing(self):
        # same logical pattern, separate blocks
        events = []
        for _ in range(4):
            events.append((0, 0, 4, True))
            events.append((1, 64, 4, True))
        r = sim(events)
        assert r.misses.false_sharing == 0
        assert r.misses.cold == 2 and r.total_misses == 2

    def test_replacement_miss(self):
        # 2 sets * 2 ways of 64B; four even blocks overflow set 0
        events = [(0, b * 128, 4, False) for b in range(3)]
        events.append((0, 0, 4, False))  # block 0 was evicted
        r = sim(events, block=64, size=4 * 64, assoc=2)
        assert r.misses.replace == 1

    def test_invalidating_write_is_true_comm(self):
        # classic migratory pattern: each proc increments the same word
        events = [(p % 2, 0, 4, True) for p in range(8)]
        r = sim(events)
        assert r.misses.false_sharing == 0
        assert r.misses.true_sharing == 6

    def test_straddling_access_touches_two_blocks(self):
        r = sim([(0, 60, 8, False)])
        assert r.misses.cold == 2

    def test_upgrade_counts(self):
        r = sim([(0, 0, 4, False), (0, 0, 4, True)])
        assert r.upgrades == 1 and r.total_misses == 1

    def test_invalidation_counts(self):
        r = sim([(0, 0, 4, False), (1, 0, 4, False), (0, 0, 4, True)])
        assert r.invalidations == 1

    def test_writeback_on_remote_read(self):
        r = sim([(0, 0, 4, True), (1, 0, 4, False)])
        assert r.writebacks == 1


class TestAccounting:
    def test_refs_counted(self):
        r = sim([(0, 0, 4, False)] * 10)
        assert r.refs == 10
        assert r.miss_rate == 0.1

    def test_extra_refs_in_denominator(self):
        cfg = CacheConfig(size=4 * 1024, block_size=64, assoc=2)
        t = make_trace([(0, 0, 4, False)])
        r = simulate_trace(t, 1, cfg, extra_refs=9)
        assert r.miss_rate == 0.1

    def test_per_proc_conservation(self):
        events = [(p, (p * 8) % 128, 4, True) for p in range(4)] * 5
        r = sim(events)
        total = sum(c.total for c in r.per_proc.values())
        assert total == r.total_misses

    def test_block_fs_sums(self):
        events = []
        for _ in range(4):
            events.append((0, 0, 4, True))
            events.append((1, 32, 4, True))
        r = sim(events)
        assert int(r.blocks.false_sharing.sum()) == r.misses.false_sharing

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 63).map(lambda x: x * 4),
                st.just(4),
                st.booleans(),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_classification_conservation_property(self, events):
        r = sim(events)
        m = r.misses
        assert m.total == m.cold + m.replace + m.true_sharing + m.false_sharing
        assert m.total <= r.refs + 16  # straddles can add block accesses
        assert int(r.blocks.misses.sum()) == m.total


class TestBlockSizeEffect:
    def test_false_sharing_grows_with_block_size(self):
        events = []
        for _ in range(8):
            for p in range(4):
                events.append((p, p * 16, 4, True))
        small = sim(events, block=16)
        large = sim(events, block=64)
        assert large.misses.false_sharing > small.misses.false_sharing
