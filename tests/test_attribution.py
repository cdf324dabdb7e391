"""Miss-attribution tests: every simulated miss must fold to exactly one
source-level structure, and a planted false-sharing pair must be
pinpointed — structure, processors, and counts.

``TestPinnedAttribution`` pins a SHA-256 of every attribution view of
the six simulation workloads (N and C at 8 processes, 64 and 128 B
blocks, on ``ksr2`` and ``modern64``): the ``fs_table`` rows with their
sorted processor pairs, the three rendered tables and the profile-guided
plan at 128 B (its decisions as a set).  A digest that moves means an attribution moved;
regenerate only on purpose (``attribution_digest`` here).
"""

import hashlib

import numpy as np
import pytest

from repro.harness.pipeline import Pipeline
from repro.obs.attribution import (
    fs_table,
    render_fs_table,
    render_heatmap,
    render_pair_breakdown,
)
from repro.runtime.trace import Trace
from repro.sim import CacheConfig, simulate_trace
from repro.transform.profile_guided import profile_guided_plan
from repro.workloads.registry import SIMULATION_WORKLOADS

from conftest import COUNTER_SRC

#: Two workers hammering adjacent words of one array — a planted
#: false-sharing pair with a known owner (`hot`) and known processors.
PLANTED_SRC = """
int hot[32];
int pad[64];
int done[8];

void worker(int pid)
{
    int i;
    for (i = 0; i < 200; i++) {
        hot[pid] = hot[pid] + 1;
    }
    done[pid] = 1;
}

int main()
{
    int p;
    for (p = 0; p < nprocs(); p++) {
        create(worker, p);
    }
    wait_for_end();
    print(hot[0] + hot[1]);
    return 0;
}
"""


@pytest.fixture(scope="module")
def planted():
    vr = Pipeline(PLANTED_SRC).execute(2)
    sim = vr.simulate(128)
    return vr, sim, vr.regions()


class TestPlantedPair:
    def test_planted_structure_gets_95_percent(self, planted):
        _, sim, regions = planted
        att = fs_table(sim, regions)
        assert sim.misses.false_sharing > 100  # the ping-pong happened
        hot = att.row("hot")
        assert hot.false_sharing >= 0.95 * att.total_fs

    def test_totals_are_exact(self, planted):
        _, sim, regions = planted
        att = fs_table(sim, regions)
        assert sum(r.misses for r in att.rows) == sim.total_misses
        assert sum(r.false_sharing for r in att.rows) == (
            sim.misses.false_sharing
        )
        assert sum(
            n for r in att.rows for n in r.pairs.values()
        ) == sim.misses.false_sharing

    def test_planted_pair_processors(self, planted):
        _, sim, regions = planted
        hot = fs_table(sim, regions).row("hot")
        # only P0 and P1 exist; every ping-pong is between them
        assert set(hot.pairs) <= {(0, 1), (1, 0)}
        assert hot.top_pair in {(0, 1), (1, 0)}

    def test_untouched_structure_has_no_false_sharing(self, planted):
        _, sim, regions = planted
        att = fs_table(sim, regions)
        # `pad` is never referenced: no misses, so no row at all
        with pytest.raises(KeyError):
            att.row("pad")
        assert all(r.name != "pad" for r in att.rows)


class TestPairTags:
    def test_synthetic_pingpong_pairs(self):
        """Alternating writers on one block: the (writer, misser) tag of
        each false-sharing miss names the invalidating processor."""
        n = 12
        trace = Trace(
            proc=np.array([i % 2 for i in range(n)], dtype=np.int32),
            addr=np.array([(i % 2) * 4 for i in range(n)], dtype=np.int64),
            size=np.full(n, 4, dtype=np.int32),
            is_write=np.ones(n, dtype=bool),
        )
        cfg = CacheConfig(size=1024, block_size=16, assoc=2)
        sim = simulate_trace(trace, 2, cfg)
        assert sim.misses.false_sharing == n - 2  # all but the 2 cold
        p = sim.pairs
        assert p.block.tolist() == [0, 0]
        assert list(zip(p.writer.tolist(), p.misser.tolist())) == [(0, 1), (1, 0)]
        assert p.count.tolist() == [(n - 2) // 2] * 2

    def test_eviction_misses_carry_no_pair(self):
        """Replacement misses never appear in the pair tags."""
        n = 8
        # one processor cycling through 5 blocks in a 4-block cache
        trace = Trace(
            proc=np.zeros(5 * n, dtype=np.int32),
            addr=np.array(
                [16 * (i % 5) for i in range(5 * n)], dtype=np.int64
            ),
            size=np.full(5 * n, 4, dtype=np.int32),
            is_write=np.zeros(5 * n, dtype=bool),
        )
        cfg = CacheConfig(size=64, block_size=16, assoc=1)
        sim = simulate_trace(trace, 1, cfg)
        assert sim.misses.replace > 0
        assert sim.misses.false_sharing == 0
        assert len(sim.pairs.block) == 0


class TestRendering:
    def test_fs_table_shows_checked_totals(self, planted):
        _, sim, regions = planted
        text = render_fs_table(sim, regions)
        assert "(= simulator totals)" in text
        assert "hot" in text
        total_line = next(
            line for line in text.splitlines() if "TOTAL" in line
        )
        assert str(sim.total_misses) in total_line
        assert str(sim.misses.false_sharing) in total_line

    def test_fs_table_limit_keeps_accounting(self, planted):
        _, sim, regions = planted
        text = render_fs_table(sim, regions, limit=1)
        assert "(other structures)" in text
        assert "(= simulator totals)" in text

    def test_pair_breakdown_names_processors(self, planted):
        _, sim, regions = planted
        text = render_pair_breakdown(sim, regions)
        assert "P0→P1" in text or "P1→P0" in text

    def test_heatmap_lists_residents(self, planted):
        _, sim, regions = planted
        text = render_heatmap(sim, regions)
        assert "hot" in text and "cache-line heatmap" in text

    def test_counter_kernel_attribution(self):
        """The canonical counter kernel: `counter`/`sums` dominate the
        false sharing and the fold is exact at 8 procs too."""
        vr = Pipeline(COUNTER_SRC).execute(8)
        sim = vr.simulate(128)
        att = fs_table(sim, vr.regions())  # internal asserts do the work
        hot = att.rows[0]
        assert hot.name in {"counter", "sums", "total", "biglock"}
        assert att.total_fs == sim.misses.false_sharing


def attribution_digest(versions) -> str:
    """SHA-256 over every attribution view of each ``(label, VersionRun)``
    at 64 and 128 B on ksr2 and modern64, plus its profile-guided plan."""
    h = hashlib.sha256()
    for label, vr in versions:
        regions = vr.regions()
        for machine in ("ksr2", "modern64"):
            for bs in (64, 128):
                sim = vr.simulate(bs, machine=machine)
                h.update(f"{label}/{machine}/{bs};".encode())
                for r in fs_table(sim, regions).rows:
                    row = (r.name, r.misses, r.false_sharing, sorted(r.pairs.items()))
                    h.update(repr(row).encode())
                for render in (render_fs_table, render_pair_breakdown, render_heatmap):
                    h.update(render(sim, regions).encode())
        plan = profile_guided_plan(vr.run, vr.layout, block_size=128).canonical()
        # the decision log is a record, not a placement: pin it as a set
        plan.decisions.sort(key=repr)
        h.update(repr(plan).encode())
    return h.hexdigest()


#: attribution_digest of each workload's N and C runs at 8 procs
PINNED_ATTRIBUTION = {
    "Maxflow": "2ec71a279606108601c5e2c363639c457681dd7d4c53121dc2126797664ec4ff",
    "Pverify": "e931539bc52875e779f5f06eea2ff404d35dae389384b949d89468ece94d6e3f",
    "Topopt": "ec2baba66de87157ca68bf9b44e683e6225336406c80419c34009119d0ae9fb4",
    "Fmm": "10ee3391a6a645262ce84cbfdcbed0db9e7b1e2ac7ed250d8c6c6d8c8f441ac3",
    "Radiosity": "9acda17bf1589b9fdbd470efe557334512c2022447161a6785d4689d4bd81bf7",
    "Raytrace": "5ee6acad17073fd91fb0a8f5caad927eaf8eab5607ad6a84221afd91e6392a97",
}


class TestPinnedAttribution:
    @pytest.mark.parametrize("wl", SIMULATION_WORKLOADS, ids=lambda w: w.name)
    def test_attribution_digest(self, wl):
        pipe = Pipeline(wl.source)
        versions = [
            ("N", pipe.execute(8)),
            ("C", pipe.execute(8, pipe.compiler_plan(8), "C")),
        ]
        assert attribution_digest(versions) == PINNED_ATTRIBUTION[wl.name]
