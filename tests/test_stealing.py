"""Seeded randomized-work-stealing properties.

The steal scheduler is stochastic by design, so these tests pin down
the properties that make it usable in a reproduction pipeline:

* **Determinism** — the same (program, nprocs, seed) triple replays the
  exact same schedule: bit-identical trace, miss breakdown, and
  manifest record across repeated runs, under both simulator kernels
  and through both the batch and streamed execution paths.
* **Seed sensitivity** — different seeds genuinely explore different
  interleavings (otherwise the rws experiment measures nothing).
* **Round-robin regression** — adding the scheduler axis must not
  perturb the deterministic rr traces the golden suite froze.
* **Cache-key regression** — the persistent trace cache joins the
  scheduler into its key; before that fix a steal run silently
  replayed whatever rr trace was stored for the same source.
* **Metamorphics** — write profiles are schedule-invariant, race-free
  programs compute the same answer under any schedule, and the oracle
  stays sound when its runs execute under stealing.
* **Bound** — measured steal-schedule false sharing stays within the
  Cole–Ramachandran O(steals) prediction (arXiv:1103.4142) on the
  paper workloads.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import COUNTER_SRC, HEAP_SRC, interpret as interpret_layout
from repro.harness.experiments import rws
from repro.harness.pipeline import Pipeline
from repro.lang import compile_source
from repro.layout import DataLayout
from repro.obs import manifest
from repro.runtime import run_program, trace_cache
from repro.runtime.stealing import (
    RR,
    SchedConfig,
    fs_bound,
    resolve_sched,
)
from repro.sim import CacheConfig, simulate_run
from repro.sim.kernel import load_kernel
from repro.sim.simcache import cached_simulate
from repro.verify import invariants, oracle, progen

NPROCS = 4
STEAL = SchedConfig("steal", seed=7)

KERNELS = [
    "python",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            load_kernel() is None,
            reason="native kernel unavailable (no compiler?)",
        ),
    ),
]


def interpret(source: str, sched: SchedConfig, nprocs: int = NPROCS):
    checked = compile_source(source)
    layout = DataLayout(checked, None, block_size=128, nprocs=nprocs)
    return run_program(checked, layout, nprocs, sched=sched)


@pytest.fixture(scope="module")
def counter_steal():
    return interpret(COUNTER_SRC, STEAL)


@pytest.fixture(scope="module")
def counter_rr():
    return interpret(COUNTER_SRC, RR)


# -- determinism -------------------------------------------------------------


def miss_tuple(run, block_size=64):
    m = simulate_run(run, block_size).misses
    return (m.cold, m.replace, m.true_sharing, m.false_sharing)


def manifest_record(run, block_size=64):
    """The manifest record a steal run would log, minus the fields that
    legitimately vary between identical runs (timestamps, wall-clock
    perf counters, span timings)."""
    rec = manifest.sim_record(
        kind="test",
        workload="counter",
        source=COUNTER_SRC,
        plan_desc="natural",
        nprocs=run.nprocs,
        block_size=block_size,
        sim=simulate_run(run, block_size),
        extra={"sched": run.sched},
    )
    for volatile in ("ts", "perf", "spans"):
        rec.pop(volatile, None)
    return rec


def test_same_seed_bit_identical_20_runs(counter_steal):
    """The tentpole reproducibility claim: one seed, one schedule."""
    want_fp = counter_steal.trace.fingerprint
    want_misses = miss_tuple(counter_steal)
    want_rec = manifest_record(counter_steal)
    for _ in range(19):
        run = interpret(COUNTER_SRC, STEAL)
        assert run.trace.fingerprint == want_fp
        assert run.output == counter_steal.output
        assert run.exit_value == counter_steal.exit_value
        assert run.sched == counter_steal.sched
        assert miss_tuple(run) == want_misses
        assert manifest_record(run) == want_rec


@pytest.mark.parametrize("kernel", KERNELS)
def test_steal_trace_identical_misses_across_kernels(counter_steal, kernel):
    """Both protocol cores agree on a steal-scheduled trace."""
    config = CacheConfig(size=32 * 1024, block_size=64, assoc=4)
    res = cached_simulate(
        counter_steal.trace,
        counter_steal.nprocs,
        config,
        extra_refs=sum(counter_steal.private_refs.values()),
        kernel=kernel,
    )
    m = res.misses
    assert (m.cold, m.replace, m.true_sharing, m.false_sharing) == miss_tuple(
        counter_steal
    )


def test_different_seeds_diverge():
    """Seeds must explore distinct interleavings, not relabel one."""
    fps = {
        interpret(COUNTER_SRC, SchedConfig("steal", seed=s)).trace.fingerprint
        for s in (1, 2, 3, 4)
    }
    assert len(fps) > 1


def test_steal_stats_recorded(counter_steal, counter_rr):
    stats = counter_steal.sched
    assert stats is not None and stats["kind"] == "steal"
    assert stats["seed"] == 7
    assert stats["steal_attempts"] >= stats["steals"] >= 0
    assert counter_rr.sched is None  # rr runs carry no stochastic state


# -- round-robin regression --------------------------------------------------


def test_rr_trace_unchanged_by_scheduler_axis(counter_rr, monkeypatch):
    """Explicit RR, env-resolved default, and env-forced rr all produce
    the same trace the pre-scheduler pipeline produced (the golden
    suite freezes the actual values; this pins the equivalences)."""
    monkeypatch.delenv("REPRO_SCHED", raising=False)
    default = interpret(COUNTER_SRC, resolve_sched())
    assert default.trace.fingerprint == counter_rr.trace.fingerprint
    monkeypatch.setenv("REPRO_SCHED", "rr")
    forced = interpret(COUNTER_SRC, resolve_sched())
    assert forced.trace.fingerprint == counter_rr.trace.fingerprint
    # under rr every reference is tagged with its owner's pid
    procs = set(np.unique(counter_rr.trace.proc).tolist())
    assert procs <= set(range(NPROCS)) | {-1}


def test_steal_proc_column_is_layout_invariant():
    """The RNG consumes draws only at spawn placement and victim
    selection — never from addresses — so transforming the layout must
    not change which cpu executes each reference.  This is what makes
    the natural-vs-transformed oracle comparison sound under steal."""
    cfg = SchedConfig("steal", seed=13)
    natural = Pipeline(COUNTER_SRC, sched=cfg)
    nat = natural.execute(NPROCS, None, "N")
    layout = DataLayout(natural.checked, natural.compiler_plan(NPROCS), nprocs=NPROCS)
    padded = interpret_layout(natural.checked, layout, NPROCS, sched=cfg)
    assert not np.array_equal(nat.run.trace.addr, padded.trace.addr)
    assert np.array_equal(nat.run.trace.proc, padded.trace.proc)


# -- trace-cache key regression ----------------------------------------------


def test_run_key_joins_scheduler():
    base = dict(
        plan_desc="natural", nprocs=4, block_size=128,
        quantum=4, max_steps=1000,
    )
    rr_key = trace_cache.run_key(COUNTER_SRC, **base)
    assert rr_key == trace_cache.run_key(COUNTER_SRC, **base, sched="rr")
    steal1 = trace_cache.run_key(
        COUNTER_SRC, **base, sched=SchedConfig("steal", seed=1).describe()
    )
    steal2 = trace_cache.run_key(
        COUNTER_SRC, **base, sched=SchedConfig("steal", seed=2).describe()
    )
    assert len({rr_key, steal1, steal2}) == 3


def test_steal_run_never_replays_rr_cache_entry(monkeypatch, tmp_path):
    """The bug this schema rev fixed: with the scheduler missing from
    the key, the second pipeline below hit the rr entry and returned a
    round-robin trace labelled as a steal run."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "0")
    rr_vr = Pipeline(COUNTER_SRC, sched=RR).execute(NPROCS)
    assert not rr_vr.from_cache
    assert Pipeline(COUNTER_SRC, sched=RR).execute(NPROCS).from_cache

    steal_cfg = SchedConfig("steal", seed=3)
    steal_vr = Pipeline(COUNTER_SRC, sched=steal_cfg).execute(NPROCS)
    assert not steal_vr.from_cache  # pre-fix: True (stale rr hit)
    assert steal_vr.run.sched is not None

    replay = Pipeline(COUNTER_SRC, sched=steal_cfg).execute(NPROCS)
    assert replay.from_cache
    assert replay.run.trace.fingerprint == steal_vr.run.trace.fingerprint
    assert replay.run.sched == steal_vr.run.sched


# -- metamorphics ------------------------------------------------------------


def test_write_profile_schedule_invariant(counter_rr):
    """Spin probes are reads, so the multiset of written (addr, size)
    pairs cannot depend on the interleaving."""
    want = invariants.write_profile(counter_rr.trace)
    for seed in (1, 2, 3):
        run = interpret(COUNTER_SRC, SchedConfig("steal", seed=seed))
        assert invariants.write_profile(run.trace) == want


def test_schedule_independence_clean_on_race_free_program(
    counter_rr, counter_steal
):
    msgs = invariants.check_schedule_independence(
        counter_rr, counter_steal, deterministic=True
    )
    assert msgs == []


def test_schedule_independence_flags_output_divergence(
    counter_rr, counter_steal
):
    forged = dataclasses.replace(counter_steal, output=["999999"])
    msgs = invariants.check_schedule_independence(
        counter_rr, forged, deterministic=True
    )
    assert any("output" in m for m in msgs)
    # a non-deterministic program may legitimately print different
    # values, so the output check must be gated on determinism
    assert (
        invariants.check_schedule_independence(
            counter_rr, forged, deterministic=False
        )
        == []
    )


def test_schedule_independence_flags_write_profile_mismatch(counter_rr):
    other = interpret(HEAP_SRC, STEAL)
    msgs = invariants.check_schedule_independence(
        counter_rr, other, deterministic=False
    )
    assert any("write" in m for m in msgs)


def test_is_schedule_deterministic_partitions_seeds():
    verdicts = [
        progen.is_schedule_deterministic(progen.generate(s))
        for s in range(40)
    ]
    assert any(verdicts) and not all(verdicts)


def test_oracle_sound_under_steal():
    verdicts, base = oracle.check_program(
        compile_source(COUNTER_SRC), NPROCS,
        sched=SchedConfig("steal", seed=5),
    )
    assert verdicts and all(v.ok for v in verdicts)
    assert base.sched is not None and base.sched["kind"] == "steal"


def test_no_false_sharing_at_word_blocks_under_steal(counter_steal):
    """Word-size blocks cannot false-share no matter how references
    migrate between cpus."""
    assert simulate_run(counter_steal, 4).misses.false_sharing == 0


# -- the Cole-Ramachandran bound ---------------------------------------------


def test_fs_bound_shape():
    assert fs_bound(100, 0, 4, 4) >= 100
    assert fs_bound(100, 50, 128, 4) > fs_bound(100, 50, 4, 4)
    assert fs_bound(100, 50, 128, 4) > fs_bound(100, 10, 128, 4)


@pytest.mark.slow
def test_rws_experiment_within_bound():
    """The acceptance sweep: three paper workloads, word / 64B / 128B
    blocks, every point within the predicted O(steals) envelope."""
    result = rws(proc_counts=(NPROCS,), seeds=(1,), block_sizes=(4, 64, 128))
    assert result.ok, "\n".join(
        f"{p.workload} bs={p.block_size}: fs_steal={p.fs_steal} "
        f"> bound={p.bound}"
        for p in result.violations()
    )
    assert {p.workload for p in result.points} == {
        "Maxflow", "Pverify", "Radiosity",
    }
    assert {p.block_size for p in result.points} == {4, 64, 128}
    for p in result.points:
        if p.block_size == 4:
            assert p.fs_steal == 0
