"""The run-record store: ingest, sharding, queries.

Covers idempotent content-hash ingest,
corrupt/truncated JSONL handled by skip-and-log (never aborting the
batch), concurrent manifest writers and concurrent ingesters, the
round-trip property (ingest -> query returns the source records), and
the warm grouped-aggregate query over 1,000+ records in under a second.
"""

import hashlib
import json
import multiprocessing as mp
import time

import pytest

from repro.obs import manifest
from repro.obs.query import (
    Aggregate,
    Filter,
    Query,
    QueryError,
    get_field,
    parse_when,
    percentile,
    run_query,
)
from repro.obs.store import IngestReport, RunStore, record_id


def make_record(i: int, *, workload="Maxflow/N", block_size=128, fs=400,
                ts=None, **extra) -> dict:
    rec = {
        "schema": 3,
        "ts": ts or f"2026-08-{1 + i % 27:02d}T{i % 24:02d}:00:{i % 60:02d}+00:00",
        "kind": "experiment",
        "workload": workload,
        "source_sha256": "a" * 64,
        "plan": "natural",
        "nprocs": 12,
        "block_size": block_size,
        "machine": {
            "name": "ksr2", "protocol": "msi", "line_size": block_size,
            "cache_size": 32768, "assoc": 4, "block_size": block_size,
        },
        "kernel": "python",
        "chunk_size": None,
        "stream": {},
        "dynamic": {},
        "refs": 1000 + i,
        "trace_len": 1000 + i,
        "misses": {"cold": 10, "replace": 5, "true": 7, "false": fs},
        "fs_by_structure": {"counter": fs},
        "perf": {"trace_cache.hit": i, "trace_cache.miss": 1},
        "spans": {"pipeline.execute": 0.5},
        "wall_seconds": 1.0 + (i % 10) / 100.0,
    }
    rec.update(extra)
    return rec


def write_log(path, records):
    path.write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    )
    return path


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "store")


class TestIngest:
    def test_roundtrip_ingest_query(self, store, tmp_path):
        """The round-trip property: every ingested record comes back,
        field-identical, from an unfiltered query."""
        records = [
            make_record(i, workload=w, block_size=bs, fs=100 * (i + 1))
            for i, (w, bs) in enumerate(
                (w, bs)
                for w in ("Maxflow/N", "Water/C", "Barnes/N")
                for bs in (16, 64, 128)
            )
        ]
        log = write_log(tmp_path / "runs.jsonl", records)
        rep = store.ingest(log)
        assert rep.ingested == len(records)
        assert rep.corrupt == 0 and rep.duplicates == 0
        got = {r["id"]: r for r in store.records()}
        assert len(got) == len(records)
        for rec in records:
            rid = record_id(manifest.upgrade_record(rec))
            stored = got[rid]
            for key, val in rec.items():
                assert stored[key] == val, key

    def test_reingest_is_idempotent(self, store, tmp_path):
        records = [make_record(i) for i in range(20)]
        log = write_log(tmp_path / "runs.jsonl", records)
        first = store.ingest(log)
        assert first.ingested == 20
        again = store.ingest(log)
        assert again.ingested == 0
        assert again.duplicates == 20
        assert store.count() == 20

    def test_corrupt_lines_skipped_never_fatal(self, store, tmp_path):
        """Garbage, truncated JSON, and non-object lines are counted
        and skipped; every valid record in the batch still lands."""
        log = tmp_path / "runs.jsonl"
        good = [make_record(i) for i in range(5)]
        lines = [json.dumps(good[0]), "not json at all",
                 json.dumps(good[1]), '{"truncated": ',
                 json.dumps(good[2]), '[1, 2, 3]',
                 json.dumps(good[3]), '"just a string"',
                 json.dumps(good[4])]
        # truncated *final* line with no newline: a writer mid-append
        log.write_text("\n".join(lines) + "\n" + json.dumps(good[0])[:40])
        rep = store.ingest(log)
        assert rep.ingested == 5
        assert rep.corrupt == 5  # 2 garbage + 2 non-objects + 1 truncated
        assert store.count() == 5

    def test_schema1_records_upgraded_on_ingest(self, store, tmp_path):
        old = {
            "schema": 1, "ts": "2026-01-01T00:00:00+00:00",
            "kind": "profile", "workload": "Maxflow/N",
            "misses": {"false": 42},
        }
        store.ingest(write_log(tmp_path / "old.jsonl", [old]))
        (rec,) = store.records()
        assert rec["schema"] == manifest.SCHEMA
        assert rec["kernel"] is None
        assert rec["stream"] == {} and rec["chunk_size"] is None
        assert rec["dynamic"] == {}
        assert rec["misses"]["false"] == 42

    def test_schema2_records_upgraded_on_ingest(self, store, tmp_path):
        """A schema-2 machine dict (geometry only) gains the implied
        KSR2/MSI identity on ingest."""
        old = make_record(0)
        old["schema"] = 2
        old["machine"] = {"cache_size": 32768, "assoc": 4, "block_size": 64}
        del old["dynamic"]
        store.ingest(write_log(tmp_path / "old2.jsonl", [old]))
        (rec,) = store.records()
        assert rec["schema"] == manifest.SCHEMA
        assert rec["machine"]["name"] == "ksr2"
        assert rec["machine"]["protocol"] == "msi"
        assert rec["machine"]["line_size"] == 64
        assert rec["dynamic"] == {}

    def test_ingest_report_describe(self):
        rep = IngestReport(scanned=10, ingested=7, duplicates=3, corrupt=2)
        assert "7 of 10" in rep.describe()
        assert "2 corrupt" in rep.describe()


class TestShardsAndIndexes:
    def test_sharding_spreads_and_preserves_count(self, store, tmp_path):
        records = [make_record(i, fs=i) for i in range(64)]
        store.ingest(write_log(tmp_path / "r.jsonl", records))
        shard_files = list((store.root / "shards").glob("*.jsonl"))
        assert len(shard_files) > 4  # sha256 spreads over the 16 shards
        assert store.count() == 64

    def test_index_self_heals_after_corruption(self, store, tmp_path):
        """An ``index/`` sidecar left by an older store, garbage or
        stale, changes no count, answer or dedup."""
        records = [make_record(i) for i in range(16)]
        log = write_log(tmp_path / "r.jsonl", records)
        store.ingest(log)
        q = Query.build(group_by="workload", aggregates=["count"])
        before = run_query(store, q).to_json()
        index = store.root / "index"
        index.mkdir()
        for digit in "0123456789abcdef":
            (index / f"{digit}.json").write_text("{broken")
        (index / "0.json").write_text(json.dumps(
            {"schema": 1, "lines": 0, "ids": [], "cols": {},
             "ts_min": None, "ts_max": None}
        ))
        fresh = RunStore(store.root)
        assert fresh.count() == 16
        assert run_query(fresh, q).to_json() == before
        assert fresh.ingest(log).duplicates == 16
        assert fresh.count() == 16

    def test_stale_index_detected_by_line_count(self, store, tmp_path):
        """A record appended behind the store's back is counted, found
        and deduplicated."""
        records = [make_record(i) for i in range(8)]
        store.ingest(write_log(tmp_path / "r.jsonl", records))
        # sneak a record into a shard behind the store's back
        extra = manifest.upgrade_record(make_record(99, fs=7))
        extra["id"] = record_id(extra)
        digit = extra["id"][0]
        with open(store.shard_path(digit), "a") as fh:
            fh.write(json.dumps(extra) + "\n")
        fresh = RunStore(store.root)
        assert fresh.count() == 9  # the shard files are the only state
        got = run_query(fresh, Query.build(where=["misses.false=7"]))
        assert got.matched == 1
        # and the sneaked-in record dedups like any other
        assert fresh.ingest_records([make_record(99, fs=7)]).duplicates == 1

    def test_compact_dedups_and_sorts(self, store, tmp_path):
        records = [make_record(i) for i in range(10)]
        store.ingest(write_log(tmp_path / "r.jsonl", records))
        # duplicate a shard's lines wholesale, then corrupt one line
        for spath in (store.root / "shards").glob("*.jsonl"):
            text = spath.read_text()
            spath.write_text(text + text + "garbage\n")
            break
        stats = store.compact()
        assert stats["records"] == 10
        assert stats["dropped"] >= 1
        assert store.count() == 10
        for spath in (store.root / "shards").glob("*.jsonl"):
            ts = [json.loads(l)["ts"] for l in spath.read_text().splitlines()]
            assert ts == sorted(ts)


def _append_worker(args):
    """Concurrent-writer worker: append records through the manifest's
    line-atomic writer."""
    log_path, worker, n = args
    import os

    os.environ[manifest.RUN_LOG_ENV] = log_path
    for i in range(n):
        manifest.record(make_record(i, workload=f"W{worker}", fs=worker))
    return worker


def _ingest_worker(args):
    root, log_path = args
    rep = RunStore(root).ingest(log_path)
    return rep.ingested, rep.duplicates


class TestConcurrency:
    def test_concurrent_manifest_writers(self, tmp_path):
        """Several processes appending to one REPRO_RUN_LOG: every line
        stays parseable (line-atomic appends) and every record lands."""
        log = tmp_path / "shared.jsonl"
        workers, per = 4, 25
        with mp.get_context("spawn").Pool(workers) as pool:
            pool.map(
                _append_worker,
                [(str(log), w, per) for w in range(workers)],
            )
        recs = manifest.read_all(log)
        assert len(recs) == workers * per
        assert {r["workload"] for r in recs} == {f"W{w}" for w in range(workers)}

    def test_concurrent_ingest_no_duplicates(self, tmp_path):
        """Two ingesters racing on the same store and overlapping logs:
        the flock serializes them, content hashes dedup them."""
        records = [make_record(i, fs=i) for i in range(40)]
        log_a = write_log(tmp_path / "a.jsonl", records)
        log_b = write_log(tmp_path / "b.jsonl", records[20:] +
                          [make_record(i + 100) for i in range(10)])
        root = str(tmp_path / "store")
        with mp.get_context("spawn").Pool(2) as pool:
            results = pool.map(
                _ingest_worker,
                [(root, str(log_a)), (root, str(log_b))],
            )
        assert sum(i for i, _d in results) == 50  # 40 + 10 unique
        assert RunStore(root).count() == 50


class TestQuery:
    @pytest.fixture()
    def filled(self, store, tmp_path):
        records = []
        i = 0
        for w in ("Maxflow/N", "Maxflow/C", "Water/N"):
            for bs in (16, 128):
                for _ in range(5):
                    records.append(
                        make_record(
                            i, workload=w, block_size=bs,
                            fs=500 if w.endswith("N") else 50,
                            kernel="native" if i % 2 else "python",
                        )
                    )
                    i += 1
        store.ingest_records(records)
        return store

    def test_field_access_longest_match(self):
        rec = {"perf": {"trace_cache.hit": 9}, "misses": {"false": 3}}
        assert get_field(rec, "perf.trace_cache.hit") == 9
        assert get_field(rec, "misses.false") == 3
        assert get_field(rec, "fs") == 3  # alias
        assert get_field(rec, "nope.nope") is None

    def test_filter_ops(self):
        rec = {"block_size": 128, "workload": "Maxflow/N", "x": 1.5}
        assert Filter.parse("block_size=128").matches(rec)
        assert Filter.parse("block_size>=128").matches(rec)
        assert not Filter.parse("block_size<128").matches(rec)
        assert Filter.parse("workload~maxflow").matches(rec)
        assert Filter.parse("workload!=Water/N").matches(rec)
        assert Filter.parse("x>1").matches(rec)
        with pytest.raises(QueryError):
            Filter.parse("nonsense")

    def test_time_window(self):
        assert parse_when("2026-08-01") == "2026-08-01"
        rel = parse_when("7d")
        assert rel.startswith("20")  # resolved to an ISO instant
        with pytest.raises(QueryError):
            parse_when("someday")

    def test_percentiles(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3
        assert percentile([1, 2, 3, 4], 0.5) == 2.5
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_grouped_aggregate(self, filled):
        q = Query.build(
            group_by="workload,block_size",
            aggregates=["mean:fs", "count", "p95:wall_seconds"],
        )
        res = run_query(filled, q)
        assert res.columns == [
            "workload", "block_size", "mean(misses.false)", "count",
            "p95(wall_seconds)",
        ]
        assert len(res.rows) == 6
        by_key = {(r["workload"], r["block_size"]): r for r in res.rows}
        assert by_key[("Maxflow/N", 128)]["mean(misses.false)"] == 500
        assert by_key[("Maxflow/C", 16)]["mean(misses.false)"] == 50
        assert all(r["count"] == 5 for r in res.rows)

    def test_where_and_window_prune(self, filled):
        q = Query.build(where=["workload=Water/N", "block_size=128"])
        res = run_query(filled, q)
        assert res.matched == 5
        q2 = Query.build(where=["workload=DoesNotExist"])
        res2 = run_query(filled, q2)
        assert res2.matched == 0
        assert res2.scanned == 30

    def test_sort_and_limit(self, filled):
        q = Query.build(
            group_by="workload", aggregates=["mean:fs"],
            sort="-mean(misses.false)", limit=2,
        )
        res = run_query(filled, q)
        assert len(res.rows) == 2
        vals = [r["mean(misses.false)"] for r in res.rows]
        assert vals == sorted(vals, reverse=True)

    def test_output_formats(self, filled):
        q = Query.build(group_by="workload", aggregates=["count"])
        res = run_query(filled, q)
        table = res.to_table()
        assert "workload" in table and "count" in table
        data = json.loads(res.to_json())
        assert data["columns"] == ["workload", "count"]
        csv_text = res.to_csv()
        assert csv_text.splitlines()[0] == "workload,count"
        assert len(csv_text.splitlines()) == 1 + len(res.rows)

    def test_aggregate_parse_errors(self):
        with pytest.raises(QueryError):
            Aggregate.parse("median:fs")
        with pytest.raises(QueryError):
            Aggregate.parse("mean")  # needs a field

    def test_grouped_query_1000_records_under_a_second(self, store):
        """A grouped aggregate over 1,000+ stored records answers in
        < 1 s warm."""
        records = [
            make_record(
                i,
                workload=("Maxflow/N", "Water/C", "Barnes/N")[i % 3],
                block_size=(16, 64, 128)[i % 3],
                fs=100 + i % 50,
            )
            for i in range(1200)
        ]
        store.ingest_records(records)
        assert store.count() == 1200
        q = Query.build(group_by="workload,block_size",
                        aggregates=["mean:fs", "count"])
        run_query(store, q)  # warm the page cache
        t0 = time.perf_counter()
        res = run_query(store, q)
        elapsed = time.perf_counter() - t0
        assert res.matched == 1200
        assert sum(r["count"] for r in res.rows) == 1200
        assert elapsed < 1.0, f"grouped query took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# pinned history: the store's bytes and every read-side view, by digest
# ---------------------------------------------------------------------------


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def pinned_records() -> list[dict]:
    """48 records over 4 workloads x 3 block sizes, two kernels, and one
    distinct fixed ``ts`` each."""
    recs = []
    for i in range(48):
        w = ("Maxflow/N", "Maxflow/C", "Water/N", "Water/C")[i % 4]
        recs.append(make_record(
            i, workload=w, block_size=(16, 64, 128)[(i // 4) % 3],
            fs=(500 if w.endswith("N") else 60) + i,
            kernel="native" if i % 2 else "python",
            ts=f"2026-08-{1 + i // 4:02d}T{i % 24:02d}:{i:02d}:00+00:00",
        ))
    return recs


def regression_history() -> list[dict]:
    """Two clean baseline keys, one key too short to judge, and one key
    whose newest record doubles its false-sharing misses."""
    recs = []
    for k, (w, fs) in enumerate((("Maxflow/N", 400), ("Water/C", 50),
                                 ("Barnes/N", 120))):
        for i in range(12):
            recs.append(make_record(
                i, workload=w, fs=fs, kernel="python",
                wall_seconds=1.0 + (i % 3) / 100.0,
                ts=f"2026-09-{1 + i:02d}T{k:02d}:00:00+00:00",
            ))
    recs += [
        make_record(i, workload="Fmm/C", fs=70, kernel="native",
                    ts=f"2026-09-1{i}T05:00:00+00:00")
        for i in range(2)
    ]
    recs.append(make_record(
        99, workload="Maxflow/N", fs=800, kernel="python",
        ts="2026-09-20T00:00:00+00:00",
    ))
    return recs


def shard_digest(store: RunStore) -> str:
    return _sha(*(
        f"{p.name}:{p.read_text()}"
        for p in sorted((store.root / "shards").glob("*.jsonl"))
    ))


#: Query.build arguments of the six pinned queries
PINNED_QUERIES = {
    "grouped": dict(group_by="workload,block_size",
                    aggregates=["mean:fs", "count", "p95:wall_seconds"]),
    "equality": dict(where=["workload=Water/C"]),
    "nested": dict(where=["misses.false>=530"],
                      fields="ts,workload,fs,kernel"),
    "window": dict(since="2026-08-04", until="2026-08-09T12",
                   group_by="kernel", aggregates=["count", "sum:refs"]),
    "sort_limit": dict(sort="-fs", limit=5),
    "absent": dict(where=["workload=DoesNotExist"]),
}

PINNED_HISTORY = {
    "shards": "cb156cbd90c09c80453ed52bcb0b909b4a1c147afed89e3a763fb6b4a825c935",
    "grouped": "bb8032f564574b98b24a8aef9e20b0c6af2730e4eeaeed5dc0bbc9b56531dc31",
    "equality": "55455d2f779695461c051d1aa3893fbff940fa4982120daedd5695cab4a1d312",
    "nested": "f0a331f411d10e01ce32798af37e05a1ca504fe2609d0e64536aa7e890c27686",
    "window": "6a0fddc9d57a0f7a313842afae2981ce5bb34a2757e087247d6906a30365ed2e",
    "sort_limit": "0c7e9cc88ac07f09f6323b591bb42308e44c471d4ad22ceba4b48757e27759b5",
    "absent": "83db4562a9b6baf1e2476cf9456de5f1b3518275cfd73a617d483d11399f59a7",
    "check_records": "77b5dc0d4c3e333e65dfcb07c34245f0a496154b22441be8632f2487cd9e8a20",
    "check_store": "77b5dc0d4c3e333e65dfcb07c34245f0a496154b22441be8632f2487cd9e8a20",
    "bench_trajectory": "7a5163070683431975e1128ebba6044158c867418ea98dab5760b4067e4dc7db",
    "dashboard": "4d263ac5971b40f8599adf5ee69b36f811778d777d2e237c4262201395671de0",
}


class TestPinnedHistory:
    @pytest.fixture()
    def pinned(self, store):
        rep = store.ingest_records(pinned_records())
        assert rep.describe() == (
            "ingested 48 of 48 records (0 duplicate, 0 corrupt)"
        )
        return store

    def test_shard_bytes(self, pinned):
        assert shard_digest(pinned) == PINNED_HISTORY["shards"]
        rep = pinned.ingest_records(pinned_records())
        assert rep.describe() == (
            "ingested 0 of 48 records (48 duplicate, 0 corrupt)"
        )
        assert shard_digest(pinned) == PINNED_HISTORY["shards"]
        assert pinned.count() == 48

    @pytest.mark.parametrize("name", sorted(PINNED_QUERIES))
    def test_query_views(self, pinned, name):
        res = run_query(pinned, Query.build(**PINNED_QUERIES[name]))
        views = (str(res.matched), res.to_table(), res.to_json(), res.to_csv())
        assert _sha(*views) == (
            PINNED_HISTORY[name]
        )

    def test_sentinel_views(self, store, tmp_path):
        from repro.obs.sentinel import (
            check_bench_trajectory,
            check_records,
            check_store,
        )

        recs = regression_history()
        assert _sha(check_records(recs).describe()) == (
            PINNED_HISTORY["check_records"]
        )
        store.ingest_records(recs)
        assert _sha(check_store(store).describe()) == (
            PINNED_HISTORY["check_store"]
        )
        slow = [
            {"bench": "grid_warm", "python_seconds": 10.0 + i * 0.01,
             "native_seconds": 1.0}
            for i in range(8)
        ] + [{"bench": "grid_warm", "python_seconds": 20.0,
              "native_seconds": 1.0}]
        stable = [
            {"bench": "grid_warm", "python_seconds": 10.0 + i * 0.01}
            for i in range(8)
        ]
        (tmp_path / "slow.json").write_text(json.dumps(slow))
        (tmp_path / "stable.json").write_text(json.dumps(stable))
        (tmp_path / "bad.json").write_text("{not json")
        reports = [
            check_bench_trajectory(tmp_path / "slow.json",
                                   ("python_seconds", "native_seconds")),
            check_bench_trajectory(tmp_path / "stable.json",
                                   ("python_seconds",)),
            check_bench_trajectory(tmp_path / "nope.json",
                                   ("python_seconds",)),
            check_bench_trajectory(tmp_path / "bad.json",
                                   ("python_seconds",)),
        ]
        assert _sha(*(r.describe() for r in reports)) == (
            PINNED_HISTORY["bench_trajectory"]
        )

    def test_dashboard(self, pinned):
        from repro.obs.dashboard import render_dashboard

        assert _sha(render_dashboard(pinned)) == PINNED_HISTORY["dashboard"]
