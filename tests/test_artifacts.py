"""The trace cache's store: publish atomicity, LRU byte-budget eviction
(never dropping an entry out from under an open reader), integrity
checks on read, the on-disk format, and the counters that reach run
manifests.
"""

import hashlib
import json
import logging
import os
import time

import numpy as np
import pytest

from conftest import plant_entry
from repro import perf
from repro.obs import manifest
from repro.runtime import trace_cache
from repro.runtime.trace_cache import TraceStore
from test_trace_cache import assert_run_equal, make_run


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "store")


def k(i):
    return trace_cache.content_key("test", str(i))


# ---------------------------------------------------------------------------
# keys, publish, round-trip
# ---------------------------------------------------------------------------


def test_content_key_is_injective_over_part_boundaries():
    # NUL-joining means ("ab","c") and ("a","bc") must not collide.
    assert trace_cache.content_key("ab", "c") != trace_cache.content_key("a", "bc")
    assert trace_cache.content_key("x") == trace_cache.content_key("x")


def test_put_get_roundtrip(store):
    plant_entry(store, k(1), b"payload-bytes")
    assert store.stats()["bytes"] == 13
    got = store.get(k(1))
    assert got is not None
    assert got.read_bytes() == b"payload-bytes"
    # sharded by first key hex digit
    assert got.parent.name == k(1)[0]
    assert got.parent.parent.name == "shards"


def test_writer_abort_leaves_no_litter(tmp_path, monkeypatch):
    """A write that fails halfway through ``store_run`` publishes
    nothing, leaves no temp file, and never fails the run."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")

    def half_write(fh, **arrays):
        fh.write(b"half-written")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", half_write)
    key = trace_cache.run_key("s", "p", 4, 64, 4, 3)
    perf.reset()
    assert not trace_cache.store_run(key, make_run(300, seed=3))
    assert perf.get("trace_cache.store_failed") == 1.0
    assert trace_cache.load_run(key) is None
    assert not list(tmp_path.rglob(".tmp-*"))
    assert not list(tmp_path.rglob("*.npz"))


def test_unwritable_store_never_fails_the_run(tmp_path, monkeypatch):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_bytes(b"")
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(not_a_dir))
    monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")
    key = trace_cache.run_key("s", "p", 4, 64, 4, 4)
    perf.reset()
    assert not trace_cache.store_run(key, make_run(300, seed=4))
    assert trace_cache.load_run(key) is None
    assert perf.get("trace_cache.store_failed") == 1.0
    assert perf.get("trace_cache.miss") == 1.0


def test_delete_and_prune(store):
    for i in range(4):
        plant_entry(store, k(10 + i), b"x" * 10)
    store.delete(k(10))
    assert store.get(k(10)) is None
    assert store.prune() == 3
    assert store.stats()["entries"] == 0


def test_orphan_payloads_are_counted_pruned_and_fscked(store):
    """A payload no sidecar names (a crash between the payload's and the
    sidecar's rename, or a sidecar removed by hand) counts in ``stats``
    and is removed by ``fsck`` and ``prune``; an in-flight writer's temp
    file is left alone."""
    plant_entry(store, k(40), b"a" * 10)

    def orphan(i, data):
        path = plant_entry(store, k(i), data)
        path.with_suffix(".meta.json").unlink()
        return path

    lost = orphan(41, b"b" * 7)
    inflight = lost.with_name(".tmp-inflight.npz")
    inflight.write_bytes(b"t" * 5)
    stats = store.stats()
    assert (stats["entries"], stats["orphans"], stats["bytes"]) == (1, 1, 17)
    report = store.fsck()
    assert report["dropped"] == [lost.name]
    assert not lost.exists() and inflight.exists()
    assert store.get(k(40)) is not None
    assert store.stats()["orphans"] == 0
    orphan(42, b"c" * 3)
    assert store.prune() == 2
    assert store.stats() == {
        "root": str(store.root), "entries": 0, "orphans": 0, "bytes": 0,
        "budget_bytes": None,
    }
    assert inflight.exists()


def test_orphan_payloads_count_against_the_budget(tmp_path):
    store = TraceStore(tmp_path / "store", max_bytes=25)
    lost = plant_entry(store, k(43), b"o" * 10)
    lost.with_suffix(".meta.json").unlink()
    os.utime(lost, (1, 1))  # oldest
    perf.reset()
    plant_entry(store, k(44), b"n" * 20)
    assert not lost.exists()
    assert perf.get("trace_cache.evicted") == 1.0
    assert store.get(k(44)) is not None


# ---------------------------------------------------------------------------
# the on-disk format
# ---------------------------------------------------------------------------


def test_hand_written_entry_is_a_hit(tmp_path, monkeypatch):
    """An entry laid out exactly as earlier builds wrote it — payload
    ``trace--<key>.npz`` plus a schema-1 sidecar naming namespace
    ``trace`` — must load, so warm caches stay warm."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")
    run, key = make_run(300, seed=5), trace_cache.run_key("s", "p", 4, 64, 4, 1)
    assert trace_cache.store_run(key, run)
    blob = trace_cache.entry_path(key).read_bytes()
    trace_cache.prune()

    shard = tmp_path / "shards" / key[0]
    shard.mkdir(parents=True, exist_ok=True)
    (shard / f"trace--{key}.npz").write_bytes(blob)
    (shard / f"trace--{key}.meta.json").write_text(json.dumps({
        "schema": 1, "namespace": "trace", "key": key,
        "file": f"trace--{key}.npz", "bytes": len(blob),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }))
    perf.reset()
    assert_run_equal(trace_cache.load_run(key), run)
    assert perf.get("trace_cache.hit") == 1.0


def test_store_run_writes_the_same_names_and_fields(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")
    key = trace_cache.run_key("s", "p", 4, 64, 4, 2)
    assert trace_cache.store_run(key, make_run(300, seed=6))
    shard = tmp_path / "shards" / key[0]
    assert sorted(p.name for p in shard.iterdir()) == [
        f"trace--{key}.meta.json", f"trace--{key}.npz",
    ]
    blob = (shard / f"trace--{key}.npz").read_bytes()
    meta = json.loads((shard / f"trace--{key}.meta.json").read_text())
    assert meta == {
        "schema": 1, "namespace": "trace", "key": key,
        "file": f"trace--{key}.npz", "bytes": len(blob),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    assert list(meta) == [
        "schema", "namespace", "key", "file", "bytes", "sha256",
    ]
    assert (tmp_path / "store.lock").exists()


# ---------------------------------------------------------------------------
# integrity checking on read
# ---------------------------------------------------------------------------


def test_truncated_payload_skipped_and_logged(store, caplog):
    path = plant_entry(store, k(30), b"z" * 1000)
    path.write_bytes(b"z" * 10)  # truncate
    with caplog.at_level(logging.WARNING, logger="repro.trace_cache"):
        assert store.get(k(30)) is None
    assert any("unusable" in r.message for r in caplog.records)
    assert not path.exists(), "corrupt entry must be dropped"


def test_corrupt_payload_caught_under_full_verification(store, caplog):
    path = plant_entry(store, k(31), b"good" * 256)
    path.write_bytes(b"evil" * 256)  # same size, different content
    assert store.get(k(31), verify=False) is not None
    with caplog.at_level(logging.WARNING, logger="repro.trace_cache"):
        assert store.get(k(31), verify=True) is None
    assert any("sha256" in r.message for r in caplog.records)


def test_missing_payload_is_a_miss(store):
    os.unlink(plant_entry(store, k(32), b"payload"))
    assert store.get(k(32)) is None
    assert store.get(k(32)) is None  # sidecar gone too now


def test_fsck_drops_corruption(store):
    plant_entry(store, k(33), b"ok-entry")
    path = plant_entry(store, k(34), b"bad-entry")
    path.write_bytes(b"bad-entrX")
    report = store.fsck()
    assert report["checked"] == 2
    assert len(report["dropped"]) == 1
    assert store.get(k(33)) is not None
    assert store.get(k(34)) is None


def test_sidecar_cannot_name_a_file_outside_its_shard(store, tmp_path):
    """A doctored sidecar ``file`` field stays inside its shard: a read,
    fsck and prune never touch the file it points at."""
    victim = tmp_path / "victim"
    victim.write_bytes(b"precious")
    for act in (lambda: store.get(k(80)), store.fsck, store.prune):
        plant_entry(store, k(80), b"payload")
        sidecar = store.payload_path(k(80)).with_name(
            f"trace--{k(80)}.meta.json"
        )
        meta = json.loads(sidecar.read_text())
        meta["file"] = "../../../victim"
        sidecar.write_text(json.dumps(meta))
        act()
        assert not sidecar.exists()
    assert victim.read_bytes() == b"precious"


# ---------------------------------------------------------------------------
# eviction never drops an entry mid-read
# ---------------------------------------------------------------------------


def test_eviction_lru_order_and_budget(tmp_path):
    store = TraceStore(tmp_path / "s", max_bytes=2500)
    for i in range(5):
        plant_entry(store, k(40 + i), bytes([i]) * 1000)
        time.sleep(0.02)
    # the two newest fit the 2500-byte budget; older entries are gone
    stats = store.stats()
    assert stats["bytes"] <= 2500
    assert store.get(k(44)) is not None, "just-published is exempt"
    assert store.get(k(40)) is None


def test_touch_on_read_changes_eviction_order(tmp_path):
    store = TraceStore(tmp_path / "s", max_bytes=10_000_000)
    for i in range(3):
        plant_entry(store, k(50 + i), bytes([i]) * 1000)
        time.sleep(0.02)
    time.sleep(0.02)
    assert store.get(k(50)) is not None  # oldest becomes MRU
    store.max_bytes = 2500
    time.sleep(0.02)
    plant_entry(store, k(53), b"\xff" * 1000)
    assert store.get(k(50)) is not None, "touched entry survives"
    assert store.get(k(51)) is None, "untouched LRU evicted"


def test_eviction_never_invalidates_open_handle(tmp_path):
    """POSIX semantics the store's no-drop-mid-read guarantee rests on:
    eviction unlinks the name, but a reader that already opened the
    payload keeps a valid handle to the full content."""
    store = TraceStore(tmp_path / "s", max_bytes=2500)
    data = b"A" * 2000
    plant_entry(store, k(60), data)
    path = store.get(k(60))
    with open(path, "rb") as fh:
        first = fh.read(100)
        # this publish blows the budget and evicts k(60)'s name
        plant_entry(store, k(61), b"B" * 2000)
        assert store.get(k(60)) is None, "entry evicted"
        rest = fh.read()
    assert first + rest == data, "open reader saw the full payload"


def test_no_budget_means_no_eviction(store):
    for i in range(6):
        plant_entry(store, k(70 + i), b"x" * 4000)
    assert store.stats()["entries"] == 6


# ---------------------------------------------------------------------------
# the counters reach run manifests
# ---------------------------------------------------------------------------


def test_eviction_and_truncation_reach_the_manifest(tmp_path, monkeypatch):
    """Evictions and truncated entries are ``trace_cache.*`` counters,
    the family a run manifest persists — not a miss, and not dropped."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")
    keys = [trace_cache.run_key("s", "p", 4, 64, 4, i) for i in range(3)]
    perf.reset()
    assert trace_cache.store_run(keys[0], make_run(2000, seed=1))
    monkeypatch.setenv("REPRO_TRACE_CACHE_MAX_MB", "0.0001")
    assert trace_cache.store_run(keys[1], make_run(2000, seed=2))
    evicted_bytes = perf.get("trace_cache.evicted_bytes")
    path = trace_cache.entry_path(keys[1])
    path.write_bytes(path.read_bytes()[:100])
    assert trace_cache.load_run(keys[1]) is None

    rec = manifest.build_record(
        kind="experiment", workload="w", source="s", plan_desc="p",
        nprocs=4, block_size=64, perf_snapshot=perf.snapshot(),
    )
    assert rec["perf"]["trace_cache.evicted"] == 1.0
    assert rec["perf"]["trace_cache.evicted_bytes"] == evicted_bytes > 0
    assert rec["perf"]["trace_cache.corrupt"] == 1.0
    assert rec["perf"]["trace_cache.store"] == 2.0
    assert "trace_cache.miss" not in rec["perf"]
