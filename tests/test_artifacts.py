"""The content-addressed artifact store under the trace cache: publish
atomicity, LRU byte-budget eviction (never dropping an entry out from
under an open reader), and integrity checks on read.
"""

import logging
import os
import time

import pytest

from repro.runtime import artifacts
from repro.runtime.artifacts import ArtifactStore


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def k(i):
    return artifacts.content_key("test", str(i))


# ---------------------------------------------------------------------------
# keys, publish, round-trip
# ---------------------------------------------------------------------------


def test_content_key_is_injective_over_part_boundaries():
    # NUL-joining means ("ab","c") and ("a","bc") must not collide.
    assert artifacts.content_key("ab", "c") != artifacts.content_key("a", "bc")
    assert artifacts.content_key("x") == artifacts.content_key("x")


def test_put_get_roundtrip(store):
    info = store.put_bytes("ns", k(1), b"payload-bytes", ".bin")
    assert info is not None and info.bytes == 13
    got = store.get("ns", k(1))
    assert got is not None
    assert got.path.read_bytes() == b"payload-bytes"
    assert store.read_bytes("ns", k(1)) == b"payload-bytes"
    # sharded by first key hex digit
    assert got.path.parent.name == k(1)[0]
    assert got.path.parent.parent.name == "shards"


def test_namespaces_do_not_collide(store):
    store.put_bytes("a", k(2), b"from-a")
    store.put_bytes("b", k(2), b"from-b")
    assert store.read_bytes("a", k(2)) == b"from-a"
    assert store.read_bytes("b", k(2)) == b"from-b"


def test_writer_abort_leaves_no_litter(store):
    w = store.writer("ns", k(3), ".bin")
    assert w.active
    w.path.write_bytes(b"half-written")
    w.abort()
    assert store.get("ns", k(3)) is None
    assert not list(store.root.rglob(".tmp-*"))


def test_delete_and_prune(store):
    for i in range(4):
        store.put_bytes("ns", k(10 + i), b"x" * 10)
    store.delete("ns", k(10))
    assert store.get("ns", k(10)) is None
    assert store.prune("ns") == 3
    assert store.stats()["entries"] == 0


def test_stats_by_namespace(store):
    store.put_bytes("trace", k(20), b"x" * 100)
    store.put_bytes("sim", k(21), b"y" * 50)
    stats = store.stats()
    assert stats["entries"] == 2
    assert stats["bytes"] == 150
    assert stats["namespaces"]["trace"]["bytes"] == 100
    assert stats["namespaces"]["sim"]["entries"] == 1


# ---------------------------------------------------------------------------
# satellite: integrity checking on read
# ---------------------------------------------------------------------------


def test_truncated_payload_skipped_and_logged(store, caplog):
    store.put_bytes("ns", k(30), b"z" * 1000)
    path = store.get("ns", k(30)).path
    path.write_bytes(b"z" * 10)  # truncate
    with caplog.at_level(logging.WARNING, logger="repro.artifacts"):
        assert store.get("ns", k(30)) is None
    assert any("unusable" in r.message for r in caplog.records)
    assert not path.exists(), "corrupt entry must be dropped"


def test_corrupt_payload_caught_under_full_verification(store, caplog):
    store.put_bytes("ns", k(31), b"good" * 256)
    path = store.get("ns", k(31)).path
    path.write_bytes(b"evil" * 256)  # same size, different content
    assert store.get("ns", k(31), verify=False) is not None
    with caplog.at_level(logging.WARNING, logger="repro.artifacts"):
        assert store.get("ns", k(31), verify=True) is None
    assert any("sha256" in r.message for r in caplog.records)


def test_missing_payload_is_a_miss(store):
    store.put_bytes("ns", k(32), b"payload")
    os.unlink(store.get("ns", k(32)).path)
    assert store.get("ns", k(32)) is None
    assert store.get("ns", k(32)) is None  # sidecar gone too now


def test_fsck_drops_corruption(store):
    store.put_bytes("ns", k(33), b"ok-entry")
    store.put_bytes("ns", k(34), b"bad-entry")
    path = store.get("ns", k(34)).path
    path.write_bytes(b"bad-entrX")
    report = store.fsck()
    assert report["checked"] == 2
    assert len(report["dropped"]) == 1
    assert store.get("ns", k(33)) is not None
    assert store.get("ns", k(34)) is None


# ---------------------------------------------------------------------------
# satellite: eviction never drops an entry mid-read
# ---------------------------------------------------------------------------


def test_eviction_lru_order_and_budget(tmp_path):
    store = ArtifactStore(tmp_path / "s", max_bytes=2500)
    for i in range(5):
        store.put_bytes("ns", k(40 + i), bytes([i]) * 1000)
        time.sleep(0.02)
    # the two newest fit the 2500-byte budget; older entries are gone
    stats = store.stats()
    assert stats["bytes"] <= 2500
    assert store.get("ns", k(44)) is not None, "just-published is exempt"
    assert store.get("ns", k(40)) is None


def test_touch_on_read_changes_eviction_order(tmp_path):
    store = ArtifactStore(tmp_path / "s", max_bytes=10_000_000)
    for i in range(3):
        store.put_bytes("ns", k(50 + i), bytes([i]) * 1000)
        time.sleep(0.02)
    time.sleep(0.02)
    assert store.get("ns", k(50)) is not None  # oldest becomes MRU
    store._max_bytes = 2500
    time.sleep(0.02)
    store.put_bytes("ns", k(53), b"\xff" * 1000)
    assert store.get("ns", k(50)) is not None, "touched entry survives"
    assert store.get("ns", k(51)) is None, "untouched LRU evicted"


def test_eviction_never_invalidates_open_handle(tmp_path):
    """POSIX semantics the store's no-drop-mid-read guarantee rests on:
    eviction unlinks the name, but a reader that already opened the
    payload keeps a valid handle to the full content."""
    store = ArtifactStore(tmp_path / "s", max_bytes=2500)
    data = b"A" * 2000
    store.put_bytes("ns", k(60), data, ".bin")
    info = store.get("ns", k(60))
    with open(info.path, "rb") as fh:
        first = fh.read(100)
        # this publish blows the budget and evicts k(60)'s name
        store.put_bytes("ns", k(61), b"B" * 2000)
        assert store.get("ns", k(60)) is None, "entry evicted"
        rest = fh.read()
    assert first + rest == data, "open reader saw the full payload"


def test_no_budget_means_no_eviction(store):
    for i in range(6):
        store.put_bytes("ns", k(70 + i), b"x" * 4000)
    assert store.stats()["entries"] == 6


def test_evict_to_budget_sweep(tmp_path):
    store = ArtifactStore(tmp_path / "s")
    for i in range(4):
        store.put_bytes("ns", k(80 + i), b"x" * 1000)
        time.sleep(0.02)
    store._max_bytes = 1500
    dropped = store.evict_to_budget()
    assert len(dropped) == 3
    assert store.stats()["bytes"] <= 1500
