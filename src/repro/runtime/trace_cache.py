"""Persistent trace cache: frozen runs stored as ``.npz`` files.

Interpreting a workload is by far the most expensive stage of the
pipeline (the trace is replayed cheaply, many times, at many cache
geometries).  Because the interpreter is fully deterministic, a run is
a pure function of ``(source, transform plan, nprocs, block size,
scheduler quantum, step limit)`` — so the complete
:class:`~repro.runtime.trace.RunResult` can be persisted keyed by a
hash of those inputs, and *repeat benchmark runs skip interpretation
entirely*.

Storage goes through the content-addressed artifact store
(:mod:`repro.runtime.artifacts`, namespace ``trace``): entries live
under ``<cache dir>/shards/<hex digit>/trace--<key>.npz`` with an
integrity sidecar, published atomically under the store's ``flock`` so
concurrent writers (the parallel experiment lab) can race on the same
key safely and eviction sweeps can never interleave with a publish.
``repro artifacts --stats/--prune/--fsck`` inspects and maintains it.

Each entry holds the four trace columns whole (``proc``/``addr``/
``size``/``is_write``) plus a JSON ``meta`` member carrying the scalar
counters.

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
    Size budget for the cache directory.  When a store pushes the
    total over the budget, least-recently-*used* entries are evicted
    (every cache hit refreshes its entry's mtime) until the directory
    fits, logging what was dropped.  Unset/0 = unbounded.

Invalidation: keys include :data:`SCHEMA` — bump it whenever the
interpreter's observable behaviour (addresses, scheduling, counters)
changes.  Stale entries are never read because their keys are never
regenerated; ``prune()`` deletes everything for a fresh start.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

import numpy as np

from repro import perf
from repro.runtime import artifacts
from repro.runtime.trace import RunResult, Trace

log = logging.getLogger("repro.trace_cache")

#: Bump when interpreter/layout semantics change observable runs (2:
#: entries self-identify with their key and are validated on load; 3:
#: the scheduler — kind, seed, grain — joins the key, so a steal-mode
#: run can never replay an rr-mode entry or vice versa; 4: runs carry
#: ``phase_marks`` — barrier-release trace indices — which the dynamic
#: mitigation engine needs, so pre-4 entries must re-interpret).
SCHEMA = 4

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


def cache_dir() -> Path | None:
    """The active cache directory, or None when persistence is off."""
    raw = os.environ.get(_ENV_DIR)
    if raw is not None and raw.strip().lower() in _DISABLED:
        return None
    if raw:
        return Path(raw)
    return Path.home() / ".cache" / "repro" / "traces"


def min_refs() -> int:
    try:
        return int(os.environ.get(_ENV_MIN, "4096"))
    except ValueError:
        return 4096


def max_bytes() -> int:
    """The eviction budget in bytes (0 = unbounded)."""
    try:
        mb = float(os.environ.get(_ENV_MAX_MB, "0"))
    except ValueError:
        return 0
    return int(mb * 1024 * 1024) if mb > 0 else 0


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
    return artifacts.content_key(
        f"schema={SCHEMA}", source, plan_desc,
        f"nprocs={nprocs}", f"block={block_size}",
        f"quantum={quantum}", f"max_steps={max_steps}",
        f"sched={sched}",
    )


def store() -> artifacts.ArtifactStore | None:
    """The artifact store backing this cache (namespace ``trace``),
    rooted at the cache directory and bounded by
    ``REPRO_TRACE_CACHE_MAX_MB``; None when persistence is off."""
    root = cache_dir()
    if root is None:
        return None
    return artifacts.ArtifactStore(root, max_bytes=max_bytes())


def entry_path(key: str) -> Path | None:
    """Where ``key``'s payload lives once published (tests, tooling)."""
    st = store()
    if st is None:
        return None
    return st._payload_path(artifacts.NS_TRACE, key, ".npz")


def _lookup(key: str) -> Path | None:
    """Resolve ``key`` to a readable payload path (None on miss)."""
    st = store()
    if st is None:
        return None
    info = st.get(artifacts.NS_TRACE, key)
    return info.path if info is not None else None


def _drop(key: str) -> None:
    st = store()
    if st is not None:
        st.delete(artifacts.NS_TRACE, key)


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
    path = _lookup(key)
    if path is None:
        perf.add("trace_cache.miss")
        return None
    try:
        with np.load(path, allow_pickle=False) as z:
            run = _validated_run(z, key)
    except Exception as e:
        # Corrupt or incompatible entry: drop it and re-interpret.
        perf.add("trace_cache.corrupt")
        log.warning(
            "trace cache entry %s is unusable (%s: %s); "
            "recomputing the run", path.name, type(e).__name__, e,
        )
        _drop(key)
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
    writer = st.writer(artifacts.NS_TRACE, key, ".npz")
    if not writer.active:
        perf.add("trace_cache.store_failed")
        return False
    try:
        with open(writer.path, "wb") as fh:
            np.savez(
                fh,
                proc=run.trace.proc,
                addr=run.trace.addr,
                size=run.trace.size,
                is_write=run.trace.is_write,
                meta=np.frombuffer(meta, dtype=np.uint8),
            )
    except OSError:
        perf.add("trace_cache.store_failed")
        writer.abort()
        return False
    if writer.commit() is None:
        perf.add("trace_cache.store_failed")
        return False
    perf.add("trace_cache.store")
    return True


def prune() -> int:
    """Delete every cached run; returns the number removed."""
    st = store()
    if st is None or not st.root.exists():
        return 0
    return st.prune(artifacts.NS_TRACE)
