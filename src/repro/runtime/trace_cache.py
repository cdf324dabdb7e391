"""Persistent trace cache: frozen runs stored as ``.npz`` files.

Interpreting a workload is by far the most expensive stage of the
pipeline (the trace is replayed cheaply, many times, at many cache
geometries).  Because the interpreter is fully deterministic, a run is
a pure function of ``(source, transform plan, nprocs, block size,
scheduler quantum, step limit)`` — so the complete
:class:`~repro.runtime.trace.RunResult` can be persisted keyed by a
hash of those inputs, and *repeat benchmark runs skip interpretation
entirely*.

Each entry holds the four trace columns whole (``proc``/``addr``/
``size``/``is_write``) plus a JSON ``meta`` member carrying the scalar
counters.  Entries live in a :class:`TraceStore` rooted at the cache
directory (``repro artifacts --stats/--prune/--fsck`` inspects and
maintains it)::

    <root>/
      store.lock                          fcntl advisory lock for writers
      shards/<0-f>/trace--<key>.npz       the frozen run
      shards/<0-f>/trace--<key>.meta.json sidecar: file, bytes, sha256

* **Content-addressed keys** — a key is the SHA-256 of the run's full
  input identity (:func:`run_key`).  Entries shard by the key's first
  hex digit.
* **Atomic publish** — a payload is written into a temp file in its
  shard and published with ``os.replace``; the sidecar is written the
  same way, *after* the payload.  A reader never observes a partial
  payload: either the sidecar names a fully published file or the
  entry does not exist yet.
* **Concurrent writers** — publishes and evictions serialize on
  ``store.lock`` (``fcntl.flock``), so the parallel experiment lab's
  workers race safely on one key (last writer wins with an identical
  payload) and an eviction sweep never interleaves with a publish.
  Readers take no lock.
* **LRU byte budget** — every read refreshes the payload's mtime, and
  a publish that pushes the store over ``REPRO_TRACE_CACHE_MAX_MB``
  evicts the least recently *used* entries, never the one just
  published.  POSIX ``unlink`` leaves open handles valid, so eviction
  never invalidates an entry a reader already has open.
* **Integrity on read** — the sidecar records the payload's byte count
  and SHA-256.  Reads check the size always, and the full digest under
  ``TraceStore.get(verify=True)`` or :meth:`TraceStore.fsck`.  An
  unusable entry — bad size or digest, undecodable payload, stale key
  echo — is dropped with a logged warning and the run is recomputed;
  it is never an error.

Writes never fail a run either: an unwritable store counts
``trace_cache.store_failed`` and moves on.  Every counter is in the
``trace_cache.*`` family (``hit``, ``miss``, ``store``,
``store_failed``, ``corrupt``, ``evicted``, ``evicted_bytes``), which
is what run manifests persist.

Environment knobs
-----------------

``REPRO_TRACE_CACHE``
    Cache directory.  ``0`` / ``off`` / ``no`` disables persistence
    entirely.  Default: ``~/.cache/repro/traces``.
``REPRO_TRACE_CACHE_MIN``
    Minimum shared-reference count for a run to be persisted
    (default 4096) — keeps unit-test-sized runs from littering the
    cache.
``REPRO_TRACE_CACHE_MAX_MB``
    Size budget for the cache directory, enforced by LRU eviction as
    above (each drop logged at INFO).  Unset/0 = unbounded.

A malformed number in either numeric knob is a one-line error.

Invalidation: keys include :data:`SCHEMA` — bump it whenever the
interpreter's observable behaviour (addresses, scheduling, counters)
changes.  Stale entries are never read because their keys are never
regenerated; ``prune()`` deletes everything for a fresh start.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro import perf
from repro.errors import env_number
from repro.runtime.trace import RunResult, Trace

log = logging.getLogger("repro.trace_cache")

#: Bump when interpreter/layout semantics change observable runs (2:
#: entries self-identify with their key and are validated on load; 3:
#: the scheduler — kind, seed, grain — joins the key, so a steal-mode
#: run can never replay an rr-mode entry or vice versa; 4: runs carry
#: ``phase_marks`` — barrier-release trace indices — which the dynamic
#: mitigation engine needs, so pre-4 entries must re-interpret).
SCHEMA = 4

#: Sidecar schema — bump to invalidate every entry.
META_SCHEMA = 1

#: Metadata fields a well-formed entry must carry.
_REQUIRED_META = (
    "key", "nprocs", "work", "private_refs", "shared_refs",
    "output", "exit_value", "heap_segments", "sched", "phase_marks",
)

_ENV_DIR = "REPRO_TRACE_CACHE"
_ENV_MIN = "REPRO_TRACE_CACHE_MIN"
_ENV_MAX_MB = "REPRO_TRACE_CACHE_MAX_MB"
_DISABLED = {"0", "off", "no", "none", "false"}

_COLUMNS = ("proc", "addr", "size", "is_write")

SHARD_DIGITS = "0123456789abcdef"


def cache_dir() -> Path | None:
    """The active cache directory, or None when persistence is off."""
    raw = os.environ.get(_ENV_DIR)
    if raw is not None and raw.strip().lower() in _DISABLED:
        return None
    if raw:
        return Path(raw)
    return Path.home() / ".cache" / "repro" / "traces"


def min_refs() -> int:
    return env_number(_ENV_MIN, 4096)


def max_bytes() -> int:
    """The eviction budget in bytes (0 = unbounded)."""
    mb = env_number(_ENV_MAX_MB, 0.0, float)
    return int(mb * 1024 * 1024) if mb > 0 else 0


def content_key(*parts: str) -> str:
    """SHA-256 hex key over NUL-joined identity strings."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def run_key(
    source: str,
    plan_desc: str,
    nprocs: int,
    block_size: int,
    quantum: int,
    max_steps: int,
    *,
    sched: str = "rr",
) -> str:
    """Deterministic content key for one interpreted run.

    ``sched`` is the scheduling policy's canonical description
    (:meth:`repro.runtime.stealing.SchedConfig.describe`).  It *must*
    participate in the hash: a randomized-work-stealing run produces a
    different trace for every (seed, grain), and before the scheduler
    joined the key a steal-mode run would silently replay a cached
    round-robin trace.
    """
    return content_key(
        f"schema={SCHEMA}", source, plan_desc,
        f"nprocs={nprocs}", f"block={block_size}",
        f"quantum={quantum}", f"max_steps={max_steps}",
        f"sched={sched}",
    )


@contextmanager
def exclusive_lock(path: Path):
    """Hold an advisory ``flock`` on ``path`` (created if missing) for
    the duration of the block; lockless where flock is unsupported.
    Both :class:`TraceStore` and :class:`repro.obs.store.RunStore`
    serialize their writers through it."""
    fh = open(path, "a+")
    try:
        try:
            import fcntl

            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        except (ImportError, OSError):
            pass
        yield
    finally:
        fh.close()  # releases the flock


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _unlink(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _read_meta(mpath: Path) -> dict | None:
    try:
        meta = json.loads(mpath.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return meta if isinstance(meta, dict) else None


def _payload_of(mpath: Path, meta: dict) -> Path:
    """The payload a sidecar names, kept inside the sidecar's shard so a
    doctored ``file`` field cannot reach (or delete) files elsewhere."""
    return mpath.parent / Path(str(meta.get("file", ""))).name


def _problem(path: Path, meta: dict, verify: bool) -> str | None:
    """Why ``path`` does not match its sidecar, or None when it does."""
    try:
        size = path.stat().st_size
        if size != meta.get("bytes"):
            return f"size {size} != recorded {meta.get('bytes')}"
        if verify and _file_sha256(path) != meta.get("sha256"):
            return "sha256 mismatch"
    except OSError:
        return "payload missing"
    return None


class TraceStore:
    """The 16-shard store holding the cache's entries under ``root``;
    ``max_bytes`` is the LRU byte budget (0 = unbounded)."""

    def __init__(self, root: str | Path, max_bytes: int = 0):
        self.root = Path(root)
        self.max_bytes = max_bytes

    def payload_path(self, key: str) -> Path:
        digit = key[:1].lower()
        shard = digit if digit in SHARD_DIGITS else "0"
        return self.root / "shards" / shard / f"trace--{key}.npz"

    def _meta_path(self, key: str) -> Path:
        return self.payload_path(key).with_suffix(".meta.json")

    def _lock(self):
        self.root.mkdir(parents=True, exist_ok=True)
        return exclusive_lock(self.root / "store.lock")

    def _entries(self) -> list[tuple[Path, Path, dict]]:
        """``(payload, sidecar, meta)`` for every readable sidecar."""
        out = []
        for mpath in sorted(self.root.glob("shards/*/*.meta.json")):
            meta = _read_meta(mpath)
            if meta is not None and "key" in meta:
                out.append((_payload_of(mpath, meta), mpath, meta))
        return out

    def _orphans(self, entries: list) -> list[Path]:
        """Payloads no readable sidecar names: left by a crash between
        the two renames of :meth:`publish`, or by a sidecar removed by
        hand.  In-flight writers' ``.tmp-*`` files never match."""
        named = {path for path, _, _ in entries}
        return [
            path for path in sorted(self.root.glob("shards/*/trace--*.npz"))
            if path not in named
        ]

    def publish(self, key: str, tmp: Path) -> None:
        """Publish the finished temp file ``tmp`` (in ``key``'s shard)
        as ``key``'s payload, then its sidecar, then enforce the byte
        budget — all under the store lock.  Raises ``OSError``."""
        final = self.payload_path(key)
        meta = {
            "schema": META_SCHEMA,
            "namespace": "trace",
            "key": key,
            "file": final.name,
            "bytes": tmp.stat().st_size,
            "sha256": _file_sha256(tmp),
        }
        with self._lock():
            os.replace(tmp, final)
            fd, mtmp = tempfile.mkstemp(
                dir=final.parent, prefix=".tmp-", suffix=".meta.json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(meta, fh)
            os.replace(mtmp, self._meta_path(key))
            self._evict_over_budget(exempt=final)

    def get(self, key: str, *, verify: bool = False) -> Path | None:
        """``key``'s payload with its recency refreshed, or None on a
        miss.  A payload that is missing, does not match its sidecar's
        size, or (under ``verify=True``) its SHA-256, is dropped."""
        mpath = self._meta_path(key)
        meta = _read_meta(mpath)
        if meta is None or meta.get("schema") != META_SCHEMA:
            perf.add("trace_cache.miss")
            return None
        path = _payload_of(mpath, meta)
        problem = _problem(path, meta, verify)
        if problem is not None:
            self.drop_corrupt(key, problem)
            return None
        try:
            os.utime(path, None)
        except OSError:
            pass
        return path

    def drop_corrupt(self, key: str, problem: str) -> None:
        perf.add("trace_cache.corrupt")
        log.warning(
            "trace cache entry %s… is unusable (%s); dropping it and "
            "recomputing the run", key[:12], problem,
        )
        self.delete(key)

    def delete(self, key: str) -> None:
        with self._lock():
            _unlink(self.payload_path(key))
            _unlink(self._meta_path(key))

    def stats(self) -> dict:
        """``{"root", "entries", "orphans", "bytes", "budget_bytes"}``;
        ``bytes`` counts the orphans' payloads too."""
        entries = self._entries()
        orphans = self._orphans(entries)
        orphan_bytes = 0
        for path in orphans:
            try:
                orphan_bytes += path.stat().st_size
            except OSError:
                pass
        return {
            "root": str(self.root),
            "entries": len(entries),
            "orphans": len(orphans),
            "bytes": sum(int(meta.get("bytes", 0)) for *_, meta in entries)
            + orphan_bytes,
            "budget_bytes": self.max_bytes or None,
        }

    def _evict_over_budget(self, exempt: Path) -> None:
        """LRU-evict until the store fits its budget (the caller holds
        the lock).  ``exempt``, the payload just published, is never
        evicted before its first use.  Orphan payloads count against the
        budget and are evicted like entries."""
        if not self.max_bytes:
            return
        aged = []
        entries = self._entries()
        files = [(path, mpath) for path, mpath, _ in entries]
        files += [(path, None) for path in self._orphans(entries)]
        for path, mpath in files:
            try:
                st = path.stat()
            except OSError:
                continue
            aged.append((st.st_mtime, path.name, st.st_size, path, mpath))
        total = sum(size for _, _, size, _, _ in aged)
        evicted: list[str] = []
        for _mtime, name, size, path, mpath in sorted(aged):  # LRU first
            if total <= self.max_bytes:
                break
            if path == exempt:
                continue
            _unlink(path)
            if mpath is not None:
                _unlink(mpath)
            total -= size
            evicted.append(name)
            perf.add("trace_cache.evicted")
            perf.add("trace_cache.evicted_bytes", size)
        if evicted:
            log.info(
                "trace cache over budget (%d MB): evicted %d LRU "
                "entries (%s)", self.max_bytes // (1024 * 1024),
                len(evicted), ", ".join(evicted[:8]),
            )

    def prune(self) -> int:
        """Delete every entry and orphan payload; returns the number
        removed."""
        with self._lock():
            entries = self._entries()
            orphans = self._orphans(entries)
            for path, mpath, _meta in entries:
                _unlink(path)
                _unlink(mpath)
            for path in orphans:
                _unlink(path)
        return len(entries) + len(orphans)

    def fsck(self) -> dict:
        """Re-hash every payload and drop the corrupt entries and the
        orphan payloads.  Returns ``{"checked", "dropped": [payload
        names]}``."""
        dropped: list[str] = []
        with self._lock():
            entries = self._entries()
            for path, mpath, meta in entries:
                if _problem(path, meta, verify=True) is not None:
                    _unlink(path)
                    _unlink(mpath)
                    dropped.append(path.name)
            for path in self._orphans(entries):
                _unlink(path)
                dropped.append(path.name)
        if dropped:
            log.warning(
                "trace cache fsck dropped %d corrupt or orphaned payloads (%s)",
                len(dropped), ", ".join(dropped[:8]),
            )
        return {"checked": len(entries), "dropped": dropped}


def store() -> TraceStore | None:
    """The store at the cache directory, bounded by
    ``REPRO_TRACE_CACHE_MAX_MB``; None when persistence is off."""
    root = cache_dir()
    return None if root is None else TraceStore(root, max_bytes())


def entry_path(key: str) -> Path | None:
    """Where ``key``'s payload lives once published (tests, tooling)."""
    st = store()
    return None if st is None else st.payload_path(key)


def _meta_dict(key: str, run: RunResult) -> dict:
    return {
        "key": key,
        "nprocs": run.nprocs,
        "work": run.work,
        "private_refs": run.private_refs,
        "shared_refs": run.shared_refs,
        "output": run.output,
        "exit_value": run.exit_value,
        "heap_segments": run.heap_segments,
        "sched": run.sched,
        "phase_marks": run.phase_marks,
    }


def _run_from_meta(meta: dict, trace: Trace) -> RunResult:
    return RunResult(
        trace=trace,
        nprocs=int(meta["nprocs"]),
        work={int(k): v for k, v in meta["work"].items()},
        private_refs={int(k): v for k, v in meta["private_refs"].items()},
        shared_refs={int(k): v for k, v in meta["shared_refs"].items()},
        output=list(meta["output"]),
        exit_value=meta["exit_value"],
        heap_segments=[tuple(seg) for seg in meta["heap_segments"]],
        sched=meta["sched"],
        phase_marks=[int(m) for m in meta["phase_marks"]],
    )


def _check_meta(meta: dict, key: str | None) -> None:
    if "chunks" in meta:
        raise ValueError(
            "entry uses the retired chunked-shard layout ('chunks' in meta)"
        )
    missing = [f for f in _REQUIRED_META if f not in meta]
    if missing:
        raise ValueError(f"metadata missing fields {missing}")
    if key is not None and meta["key"] != key:
        raise ValueError(
            f"stale-key collision: entry identifies as {meta['key'][:12]}…, "
            f"requested {key[:12]}…"
        )


def _validated_run(z, key: str | None) -> RunResult:
    """Decode and *validate* one cache entry; raises on any deformity.

    Validation covers the failure modes a shared on-disk cache actually
    sees: truncated ``.npz`` payloads, garbage bytes, entries written by
    an older layout, and stale-key collisions (a file renamed or a hash
    prefix reused for different inputs) — the ``key`` echoed in the
    metadata must match the key being asked for.
    """
    meta = json.loads(bytes(z["meta"]).decode())
    _check_meta(meta, key)
    columns = {name: z[name] for name in _COLUMNS}
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"trace columns disagree on length: {lengths}")
    trace = Trace(
        proc=columns["proc"], addr=columns["addr"],
        size=columns["size"], is_write=columns["is_write"].astype(bool),
    )
    return _run_from_meta(meta, trace)


def load_run(key: str) -> RunResult | None:
    """Fetch a persisted run, or None on miss/corruption/disabled.

    A corrupt, truncated, or stale entry is never fatal: the entry is
    dropped with a logged warning and the caller falls back to
    re-interpreting the run.
    """
    st = store()
    if st is None:
        perf.add("trace_cache.miss")
        return None
    path = st.get(key)
    if path is None:
        return None
    try:
        with np.load(path, allow_pickle=False) as z:
            run = _validated_run(z, key)
    except Exception as e:
        st.drop_corrupt(key, f"{type(e).__name__}: {e}")
        return None
    perf.add("trace_cache.hit")
    return run


def load_file(path: str | Path) -> RunResult:
    """Decode one explicitly named cache entry, validating its shape.

    Unlike :func:`load_run` — where corruption silently falls back to
    re-interpretation — an explicit file is the user's input, so any
    deformity raises a :class:`~repro.errors.ReproError` with the
    reason (the ``repro verify --trace`` path turns it into a one-line
    diagnostic).  The key echo is checked for presence, not value: the
    caller names the file directly rather than deriving it from run
    inputs.
    """
    from repro.errors import ReproError

    p = Path(path)
    if not p.exists():
        raise ReproError(f"trace file {p} does not exist")
    try:
        with np.load(p, allow_pickle=False) as z:
            return _validated_run(z, None)
    except ReproError:
        raise
    except Exception as e:
        raise ReproError(
            f"trace file {p} is not a usable cache entry "
            f"({type(e).__name__}: {e})"
        ) from e


def store_run(key: str, run: RunResult) -> bool:
    """Persist ``run`` under ``key``; returns True when written."""
    st = store()
    if st is None or len(run.trace) < min_refs():
        return False
    meta = json.dumps(_meta_dict(key, run)).encode()
    shard = st.payload_path(key).parent
    tmp = None
    try:
        shard.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=shard, prefix=".tmp-", suffix=".npz")
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                proc=run.trace.proc,
                addr=run.trace.addr,
                size=run.trace.size,
                is_write=run.trace.is_write,
                meta=np.frombuffer(meta, dtype=np.uint8),
            )
        st.publish(key, Path(tmp))
        tmp = None
    except OSError:
        perf.add("trace_cache.store_failed")
        return False
    finally:
        if tmp is not None:
            _unlink(Path(tmp))
    perf.add("trace_cache.store")
    return True


def prune() -> int:
    """Delete every cached run; returns the number removed."""
    st = store()
    if st is None or not st.root.exists():
        return 0
    return st.prune()
