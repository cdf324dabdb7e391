"""Performance-engine infrastructure tests: the persistent trace
cache, the per-trace simulation memo, the perf counters, and the parallel
experiment lab's plan resolution."""

import os

import numpy as np
import pytest

from conftest import plant_entry
from repro import perf
from repro.harness.experiments import WorkloadLab, sweep_points
from repro.harness.parallel import default_jobs, resolve_plan
from repro.harness.pipeline import Pipeline
from repro.runtime import run_program, trace_cache
from repro.runtime.trace import Trace, TraceBuffer
from repro.sim import CacheConfig
from repro.sim.simcache import cached_simulate, clear
from repro.workloads.registry import by_name


# ---------------------------------------------------------------------------
# perf counters
# ---------------------------------------------------------------------------


class TestPerf:
    def test_add_and_get(self):
        perf.reset()
        perf.add("x")
        perf.add("x", 2)
        assert perf.get("x") == 3.0
        assert perf.get("missing") == 0.0

    def test_timer_accumulates(self):
        perf.reset()
        with perf.timer("stage"):
            pass
        with perf.timer("stage"):
            pass
        snap = perf.snapshot()
        assert snap["stage.calls"] == 2.0
        assert snap["stage"] >= 0.0

    def test_merge_and_reset(self):
        perf.reset()
        perf.add("a", 1)
        perf.merge({"a": 2.0, "b": 5.0})
        assert perf.get("a") == 3.0 and perf.get("b") == 5.0
        perf.reset()
        assert perf.snapshot() == {}


# ---------------------------------------------------------------------------
# trace buffer / trace
# ---------------------------------------------------------------------------


class TestTrace:
    def test_buffer_roundtrip_and_nbytes(self):
        buf = TraceBuffer()
        buf.append(0, 64, 4, False)
        buf.append(1, 68, 8, True)
        assert buf.nbytes > 0
        tr = buf.freeze()
        assert list(tr) == [(0, 64, 4, False), (1, 68, 8, True)]
        assert tr.nbytes > 0

    def test_fingerprint_content_keyed(self):
        a = TraceBuffer()
        b = TraceBuffer()
        for buf in (a, b):
            buf.append(0, 0, 4, True)
            buf.append(2, 128, 4, False)
        t1, t2 = a.freeze(), b.freeze()
        assert t1.fingerprint == t2.fingerprint
        c = TraceBuffer()
        c.append(0, 0, 4, False)
        c.append(2, 128, 4, False)
        assert c.freeze().fingerprint != t1.fingerprint


# ---------------------------------------------------------------------------
# persistent trace cache
# ---------------------------------------------------------------------------


def small_run(nprocs=2):
    wl = by_name("Pverify")
    pipe = Pipeline(wl.source)
    return pipe, pipe.execute(nprocs)


class TestTraceCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")
        _, vr = small_run()
        key = trace_cache.run_key("src", "plan", 2, 128, 4, 100)
        assert trace_cache.store_run(key, vr.run)
        got = trace_cache.load_run(key)
        assert got is not None
        assert np.array_equal(got.trace.addr, vr.run.trace.addr)
        assert np.array_equal(got.trace.proc, vr.run.trace.proc)
        assert got.work == vr.run.work
        assert got.heap_segments == vr.run.heap_segments
        assert got.output == vr.run.output

    def test_pipeline_hit_skips_interpretation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")
        wl = by_name("Pverify")
        cold = Pipeline(wl.source).execute(2)
        assert not cold.from_cache and cold.interp_seconds > 0
        warm = Pipeline(wl.source).execute(2)
        assert warm.from_cache and warm.interp_seconds == 0.0
        assert np.array_equal(warm.run.trace.addr, cold.run.trace.addr)

    def test_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert trace_cache.cache_dir() is None
        _, vr = small_run()
        assert not trace_cache.store_run("k" * 64, vr.run)

    def test_min_refs_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "10000000")
        _, vr = small_run()
        assert not trace_cache.store_run("k" * 64, vr.run)

    def test_corrupt_entry_dropped(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        key = trace_cache.run_key("s", "p", 2, 128, 4, 100)
        plant_entry(trace_cache.store(), key, b"not an npz")
        perf.reset()
        assert trace_cache.load_run(key) is None
        assert perf.get("trace_cache.corrupt") == 1.0
        assert not trace_cache.entry_path(key).exists()

    def test_truncated_entry_recomputed(self, tmp_path, monkeypatch):
        """A half-written .npz falls back to recomputation, not a crash.

        Truncation is caught by the store's size check before numpy
        ever sees the payload."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")
        _, vr = small_run()
        key = trace_cache.run_key("src", "plan", 2, 128, 4, 100)
        assert trace_cache.store_run(key, vr.run)
        path = trace_cache.entry_path(key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        perf.reset()
        assert trace_cache.load_run(key) is None
        assert perf.get("trace_cache.corrupt") == 1.0
        assert not path.exists()  # the bad entry is gone for good
        # and a fresh store round-trips again
        assert trace_cache.store_run(key, vr.run)
        assert trace_cache.load_run(key) is not None

    def test_stale_key_collision_detected(self, tmp_path, monkeypatch):
        """An entry stored under one key must never satisfy another key
        (file renames / hash-prefix reuse): entries echo their own key
        and the echo is checked on load."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")
        _, vr = small_run()
        key_a = trace_cache.run_key("src-a", "plan", 2, 128, 4, 100)
        key_b = trace_cache.run_key("src-b", "plan", 2, 128, 4, 100)
        assert trace_cache.store_run(key_a, vr.run)
        # masquerade A's payload as B's entry (published properly, so
        # only the key echo inside the npz can catch the swap)
        plant_entry(
            trace_cache.store(), key_b,
            trace_cache.entry_path(key_a).read_bytes(),
        )
        perf.reset()
        assert trace_cache.load_run(key_b) is None
        assert perf.get("trace_cache.corrupt") == 1.0
        # the honest entry is untouched
        assert trace_cache.load_run(key_a) is not None

    def test_missing_meta_fields_rejected(self, tmp_path, monkeypatch):
        """Entries from an older layout — no key echo, no ``sched`` or
        ``phase_marks``, or the retired chunked-shard layout — are
        recomputed by ``load_run`` and raise a one-line ``ReproError``
        from ``load_file``."""
        import io
        import json
        import re

        from repro.errors import ReproError

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")
        _, vr = small_run()
        key = trace_cache.run_key("src", "plan", 2, 128, 4, 100)

        def drop(field):
            def doctor(meta, data):
                del meta[field]
            return doctor

        def chunked(meta, data):
            meta["chunks"] = 1
            for col in ("proc", "addr", "size", "is_write"):
                data[f"{col}_0000"] = data.pop(col)

        cases = [
            (drop("key"), "missing fields ['key']"),
            (drop("sched"), "missing fields ['sched']"),
            (drop("phase_marks"), "missing fields ['phase_marks']"),
            (chunked, "chunked-shard layout"),
        ]
        for doctor, reason in cases:
            assert trace_cache.store_run(key, vr.run)
            path = trace_cache.entry_path(key)
            with np.load(path, allow_pickle=False) as z:
                data = {name: z[name] for name in z.files}
            meta = json.loads(bytes(data["meta"]).decode())
            doctor(meta, data)
            data["meta"] = np.frombuffer(
                json.dumps(meta).encode(), dtype=np.uint8
            )
            # republish so the store sidecar matches the doctored payload
            buf = io.BytesIO()
            np.savez(buf, **data)
            plant_entry(trace_cache.store(), key, buf.getvalue())
            with pytest.raises(ReproError, match=re.escape(reason)) as err:
                trace_cache.load_file(path)
            assert "\n" not in str(err.value)
            perf.reset()
            assert trace_cache.load_run(key) is None
            assert perf.get("trace_cache.corrupt") == 1.0
            assert not path.exists()

    def test_key_sensitivity(self):
        k = trace_cache.run_key("s", "p", 2, 128, 4, 100)
        assert k != trace_cache.run_key("s", "p", 3, 128, 4, 100)
        assert k != trace_cache.run_key("s", "q", 2, 128, 4, 100)
        assert k == trace_cache.run_key("s", "p", 2, 128, 4, 100)

    def test_prune(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")
        _, vr = small_run()  # execute() itself persists one entry
        trace_cache.store_run("a" * 64, vr.run)
        assert trace_cache.prune() >= 1
        assert trace_cache.prune() == 0


# ---------------------------------------------------------------------------
# simulation memo
# ---------------------------------------------------------------------------


class TestSimMemo:
    def test_memo_returns_same_result(self):
        clear()
        tr = Trace(
            proc=np.zeros(6, dtype=np.int32),
            addr=np.arange(6, dtype=np.int64) * 4,
            size=np.full(6, 4, dtype=np.int32),
            is_write=np.zeros(6, dtype=bool),
        )
        cfg = CacheConfig(size=1024, block_size=16, assoc=2)
        perf.reset()
        a = cached_simulate(tr, 2, cfg)
        b = cached_simulate(tr, 2, cfg)
        assert a is b
        assert perf.get("sim_cache.hit") == 1.0
        # A different geometry is a different entry.
        c = cached_simulate(tr, 2, CacheConfig(size=1024, block_size=32, assoc=2))
        assert c is not a


# ---------------------------------------------------------------------------
# parallel lab
# ---------------------------------------------------------------------------


class TestParallelLab:
    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() >= 1

    def test_resolve_plan_labels(self):
        from repro.transform import ALL_KINDS

        wl = by_name("Pverify")
        pipe = Pipeline(wl.source)
        assert resolve_plan(pipe, wl, "N", 2) is None
        full = resolve_plan(pipe, wl, "C", 2)
        assert full is pipe.compiler_plan(2)
        kind = next(
            k for k in sorted(ALL_KINDS)
            if not full.restricted_to({k}).is_empty
        )
        sub = resolve_plan(pipe, wl, f"C[{kind}]", 2)
        assert not sub.is_empty
        for other in sorted(set(ALL_KINDS) - {kind}):
            assert sub.restricted_to({other}).is_empty
        with pytest.raises(ValueError):
            resolve_plan(pipe, wl, "Z", 2)

    def test_sweep_points_versions(self):
        wl = by_name("Pverify")
        pts = sweep_points([wl], (1, 2))
        assert ("Pverify", "N", 1) in pts
        assert all(v in ("N", "C", "P") for _, v, _ in pts)

    def test_prefetch_matches_serial(self, monkeypatch):
        """A prefetched lab and a serial lab must produce identical
        simulation results for the same points."""
        monkeypatch.setenv("REPRO_JOBS", "2")
        wl = by_name("Pverify")
        points = [(wl.name, "N", 2), (wl.name, "C", 2)]
        par = WorkloadLab()
        par.prefetch(points)
        ser = WorkloadLab(jobs=1)
        for name, version, nprocs in points:
            a = par.run(wl, version, nprocs)
            b = ser.run(wl, version, nprocs)
            assert np.array_equal(a.run.trace.addr, b.run.trace.addr)
            assert a.simulate(128).misses == b.simulate(128).misses
