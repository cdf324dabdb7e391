"""Persistent trace cache: the whole-column entry layout, the
``REPRO_TRACE_CACHE_MAX_MB`` LRU size budget, and the store underneath
it (sharded layout, atomic flock'd publish, racing concurrent writers).

The eviction policy under test: every *load* refreshes an entry's
recency (mtime), stores enforce the budget afterwards, oldest-unused
entries go first, and the entry just written is exempt — so the
most-recently-used survivors are exactly the entries a warm experiment
grid keeps re-reading.
"""

import logging
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.runtime import trace_cache as tc
from repro.runtime.trace import RunResult, Trace


def make_run(n, seed, *, nprocs=4):
    rng = np.random.default_rng(seed)
    trace = Trace(
        proc=rng.integers(0, nprocs, n).astype(np.int32),
        addr=(rng.integers(0, 1 << 20, n) * 4).astype(np.int64),
        size=np.full(n, 4, np.int32),
        is_write=(rng.random(n) < 0.3),
    )
    return RunResult(
        trace=trace, nprocs=nprocs, work={0: n}, private_refs={0: 11},
        shared_refs={0: n}, output=[str(seed)], exit_value=seed,
        heap_segments=[(0, 64, "h")],
    )


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")
    monkeypatch.delenv("REPRO_TRACE_CACHE_MAX_MB", raising=False)
    return tmp_path


def key_for(i):
    return tc.run_key(f"src{i}", "plan", 4, 64, 4, 1000)


def assert_run_equal(got, want):
    np.testing.assert_array_equal(got.trace.proc, want.trace.proc)
    np.testing.assert_array_equal(got.trace.addr, want.trace.addr)
    np.testing.assert_array_equal(got.trace.size, want.trace.size)
    np.testing.assert_array_equal(got.trace.is_write, want.trace.is_write)
    assert got.private_refs == want.private_refs
    assert got.output == want.output
    assert got.exit_value == want.exit_value
    assert got.heap_segments == want.heap_segments


# ---------------------------------------------------------------------------
# entry layout
# ---------------------------------------------------------------------------


def test_small_runs_stay_whole_column(cache):
    run = make_run(400, seed=3)
    assert tc.store_run(key_for(3), run)
    with np.load(tc.entry_path(key_for(3)), allow_pickle=False) as z:
        assert sorted(z.files) == ["addr", "is_write", "meta", "proc", "size"]
    assert_run_equal(tc.load_run(key_for(3)), run)


def test_corrupt_entry_dropped(cache):
    run = make_run(300, seed=7)
    tc.store_run(key_for(7), run)
    path = tc.entry_path(key_for(7))
    assert path.exists()
    path.write_bytes(b"not a zip file")
    assert tc.load_run(key_for(7)) is None
    assert not path.exists()  # dropped, not left to poison every run


def test_run_key_values_are_stable():
    """Keys only change with ``SCHEMA``: a store filled by an earlier
    build keeps hitting.  Update these values on purpose, with a
    ``SCHEMA`` bump."""
    assert tc.SCHEMA == 4
    assert tc.run_key("src", "plan", 4, 64, 4, 1000) == (
        "8d27f3f95d33c4ded7ed17bbf8a3bdd0b0b13266f7c1481a58eb834d71b83055"
    )
    assert tc.run_key(
        "int x;", "natural", 8, 128, 4, 10**7,
        sched="steal:seed=3:grain=16",
    ) == "fc6ecaaea401864c84c559ae8e6314f2c9392e4ba5732c9944200315fb6bc154"


# ---------------------------------------------------------------------------
# satellite: LRU size budget
# ---------------------------------------------------------------------------


def _entry_mb(cache, key):
    return tc.entry_path(key).stat().st_size / (1024 * 1024)


def _stored_names(cache):
    return {p.name for p in (cache / "shards").rglob("*.npz")}


def test_lru_eviction_preserves_mru(cache, monkeypatch):
    """Five entries, a budget that fits ~two: the surviving entries are
    the most recently *used* — entry 0 is old by store order but gets
    touched by a load, so it outlives untouched newer peers."""
    runs = [make_run(2000, seed=20 + i) for i in range(5)]
    keys = [key_for(20 + i) for i in range(5)]
    # store without a budget so nothing is evicted during setup
    for k, r in zip(keys, runs):
        assert tc.store_run(k, r)
        time.sleep(0.02)

    one = _entry_mb(cache, keys[0])
    monkeypatch.setenv("REPRO_TRACE_CACHE_MAX_MB", str(one * 2.5))

    time.sleep(0.02)
    assert tc.load_run(keys[0]) is not None  # touch: 0 is now MRU
    time.sleep(0.02)
    new_run, new_key = make_run(2000, seed=99), key_for(99)
    assert tc.store_run(new_key, new_run)

    survivors = _stored_names(cache)
    assert tc.entry_path(new_key).name in survivors, \
        "a store never evicts itself"
    assert tc.entry_path(keys[0]).name in survivors, \
        "touched entry must survive"
    assert tc.entry_path(keys[1]).name not in survivors, \
        "untouched LRU entry evicted"
    total = sum(
        p.stat().st_size for p in (cache / "shards").rglob("*.npz")
    )
    assert total <= one * 2.5 * 1024 * 1024 * 1.01


def test_eviction_logs_drops(cache, monkeypatch, caplog):
    for i in range(3):
        tc.store_run(key_for(40 + i), make_run(2000, seed=40 + i))
        time.sleep(0.02)
    monkeypatch.setenv(
        "REPRO_TRACE_CACHE_MAX_MB", str(_entry_mb(cache, key_for(40)) * 1.5)
    )
    with caplog.at_level(logging.INFO, logger="repro.trace_cache"):
        tc.store_run(key_for(43), make_run(2000, seed=43))
    assert any("evicted" in r.message for r in caplog.records)


def test_no_budget_means_no_eviction(cache, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE_MAX_MB", raising=False)
    for i in range(4):
        tc.store_run(key_for(60 + i), make_run(2000, seed=60 + i))
    assert len(_stored_names(cache)) == 4


def test_load_refreshes_mtime(cache):
    tc.store_run(key_for(70), make_run(2000, seed=70))
    path = tc.entry_path(key_for(70))
    old = path.stat().st_mtime - 3600
    os.utime(path, (old, old))
    assert tc.load_run(key_for(70)) is not None
    assert path.stat().st_mtime > old + 3000


# ---------------------------------------------------------------------------
# satellite: concurrent writers race safely through the store
# ---------------------------------------------------------------------------


def _racing_store(cache_dir, key, n, seed, barrier):
    os.environ["REPRO_TRACE_CACHE"] = str(cache_dir)
    os.environ["REPRO_TRACE_CACHE_MIN"] = "1"
    from repro.runtime import trace_cache as worker_tc

    run = make_run(n, seed)
    barrier.wait(timeout=30)  # maximize overlap
    for _ in range(5):
        worker_tc.store_run(key, run)


def test_racing_writers_never_publish_partial_entries(cache):
    """Two processes repeatedly storing the *same key* concurrently:
    the flock'd atomic publish guarantees every post-race load sees a
    complete, validated entry (pre-store, interleaved partial files
    were possible).  Both writers produce identical payloads, so last
    writer wins losslessly."""
    key = key_for(90)
    run = make_run(3000, seed=90)
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(3)
    procs = [
        ctx.Process(
            target=_racing_store, args=(cache, key, 3000, 90, barrier)
        )
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    barrier.wait(timeout=30)
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    got = tc.load_run(key)
    assert got is not None, "racing writers corrupted the entry"
    assert_run_equal(got, run)
    assert not list(cache.rglob(".tmp-*")), "race left temp litter"
