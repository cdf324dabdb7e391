"""Sharded, indexed store of run-manifest records.

The JSONL run log (``REPRO_RUN_LOG``, :mod:`repro.obs.manifest`) is an
append-only *ingest path*: cheap to write from anywhere, but linear to
query and full of duplicates once experiment suites re-run.  This module
turns those logs into a durable run-record store that the query engine
(:mod:`repro.obs.query`), the regression sentinel
(:mod:`repro.obs.sentinel`), and the dashboard
(:mod:`repro.obs.dashboard`) all read:

Layout (under one root directory)::

    <root>/
      shards/0.jsonl .. f.jsonl    one record per line, "id" included
      index/0.json  .. f.json      per-shard column index (see below)
      ingest.lock                  fcntl advisory lock for writers

* **Content-hash ids** — a record's id is the SHA-256 of its canonical
  JSON (sorted keys, ``id`` excluded).  Re-ingesting the same log — or
  two logs containing the same run — is idempotent: duplicates are
  detected per shard and dropped.
* **Sharding** — records land in one of 16 shards by the first hex
  digit of their id.  Hashes spread uniformly, so shards stay balanced
  without rebalancing logic, and a query can scan shards independently.
* **Column indexes** — each shard keeps a sidecar JSON index: its line
  count, the set of record ids, distinct values of the hot columns
  (``kind``, ``workload``, ``plan``, ``nprocs``, ``block_size``,
  ``kernel``) and the ts range.  Queries use indexes only to *prune*
  shards (answers always come from the shard files themselves), so a
  stale index can cost time but never correctness; an index whose line
  count disagrees with its shard is rebuilt on the spot.
* **Concurrency** — writers serialize on ``ingest.lock``
  (``fcntl.flock``).  Readers take no lock: shards are append-only and
  written line-atomically, so the worst a concurrent reader sees is a
  trailing partial line, which the tolerant parser skips.

Corrupt or truncated input lines are *skipped and counted*, never fatal:
an ingest batch always completes with a report of what it dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.obs import manifest
from repro.runtime.trace_cache import exclusive_lock

#: Default store root when the CLI is not given ``--store``.
STORE_ENV = "REPRO_OBS_STORE"

SHARD_DIGITS = "0123456789abcdef"

#: Columns indexed per shard for query pruning.
INDEXED_COLUMNS = (
    "kind", "workload", "plan", "nprocs", "block_size", "kernel",
)

#: Index sidecar schema version (bump to force rebuilds).
INDEX_SCHEMA = 1


def record_id(rec: dict) -> str:
    """Content hash of ``rec`` (canonical JSON, ``id`` excluded)."""
    body = {k: v for k, v in rec.items() if k != "id"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(slots=True)
class IngestReport:
    """What one ingest batch did (always completes; never raises on bad
    input lines)."""

    scanned: int = 0      # parseable records seen
    ingested: int = 0     # new records written
    duplicates: int = 0   # content-hash collisions with stored records
    corrupt: int = 0      # unparseable / non-object lines skipped
    sources: list[str] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"ingested {self.ingested} of {self.scanned} records "
            f"({self.duplicates} duplicate, {self.corrupt} corrupt)"
        )


def iter_jsonl(path: Path) -> Iterator[tuple[dict | None, str]]:
    """Yield ``(record, raw_line)`` per non-blank line; ``record`` is
    None for corrupt lines (bad JSON or not an object)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            yield None, line
            continue
        yield (rec if isinstance(rec, dict) else None), line


class RunStore:
    """The sharded run-record store rooted at ``root``."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._index_cache: dict[str, dict] = {}

    # -- paths ---------------------------------------------------------------

    def shard_path(self, digit: str) -> Path:
        return self.root / "shards" / f"{digit}.jsonl"

    def index_path(self, digit: str) -> Path:
        return self.root / "index" / f"{digit}.json"

    def _ensure_dirs(self) -> None:
        (self.root / "shards").mkdir(parents=True, exist_ok=True)
        (self.root / "index").mkdir(parents=True, exist_ok=True)

    def _write_lock(self):
        """Serialize writers on ``ingest.lock``."""
        self._ensure_dirs()
        return exclusive_lock(self.root / "ingest.lock")

    # -- ingest --------------------------------------------------------------

    def ingest(self, log_path: str | Path,
               report: Optional[IngestReport] = None) -> IngestReport:
        """Ingest one JSONL manifest log (idempotent; corrupt lines are
        skipped and counted)."""
        report = report if report is not None else IngestReport()
        path = Path(log_path)
        records = []
        for rec, _raw in iter_jsonl(path):
            if rec is None:
                report.corrupt += 1
                continue
            records.append(rec)
        report.sources.append(str(path))
        return self.ingest_records(records, report=report)

    def ingest_records(self, records: Iterable[dict],
                       report: Optional[IngestReport] = None) -> IngestReport:
        """Ingest in-memory records: upgrade to schema 2, assign
        content-hash ids, drop duplicates, append per shard, refresh
        indexes.  One lock round-trip per batch."""
        report = report if report is not None else IngestReport()
        by_shard: dict[str, list[tuple[str, dict]]] = {}
        for rec in records:
            rec = manifest.upgrade_record(rec)
            rec.pop("id", None)
            rid = record_id(rec)
            rec["id"] = rid
            report.scanned += 1
            by_shard.setdefault(rid[0], []).append((rid, rec))
        if not by_shard:
            return report
        with self._write_lock():
            for digit, pairs in sorted(by_shard.items()):
                idx = self._load_index(digit)
                known = set(idx["ids"])
                fresh: list[tuple[str, dict]] = []
                batch_seen: set[str] = set()
                for rid, rec in pairs:
                    if rid in known or rid in batch_seen:
                        report.duplicates += 1
                        continue
                    batch_seen.add(rid)
                    fresh.append((rid, rec))
                if not fresh:
                    continue
                spath = self.shard_path(digit)
                with open(spath, "a", encoding="utf-8") as fh:
                    for rid, rec in fresh:
                        fh.write(json.dumps(rec, sort_keys=True) + "\n")
                        self._index_add(idx, rid, rec)
                report.ingested += len(fresh)
                self._save_index(digit, idx)
        return report

    # -- indexes -------------------------------------------------------------

    @staticmethod
    def _empty_index() -> dict:
        return {
            "schema": INDEX_SCHEMA,
            "lines": 0,
            "ids": [],
            "cols": {c: {} for c in INDEXED_COLUMNS},
            "ts_min": None,
            "ts_max": None,
        }

    @staticmethod
    def _index_add(idx: dict, rid: str, rec: dict) -> None:
        idx["lines"] += 1
        idx["ids"].append(rid)
        for col in INDEXED_COLUMNS:
            val = rec.get(col)
            key = "null" if val is None else str(val)
            bucket = idx["cols"].setdefault(col, {})
            bucket[key] = bucket.get(key, 0) + 1
        ts = rec.get("ts") or ""
        if ts:
            if idx["ts_min"] is None or ts < idx["ts_min"]:
                idx["ts_min"] = ts
            if idx["ts_max"] is None or ts > idx["ts_max"]:
                idx["ts_max"] = ts

    def _count_shard_lines(self, digit: str) -> int:
        spath = self.shard_path(digit)
        if not spath.exists():
            return 0
        n = 0
        with open(spath, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                n += chunk.count(b"\n")
        return n

    def _load_index(self, digit: str, *, verify: bool = True) -> dict:
        """The shard's index, rebuilt from the shard file when missing,
        unreadable, or out of step with the shard's line count."""
        idx = self._index_cache.get(digit)
        if idx is None:
            ipath = self.index_path(digit)
            try:
                idx = json.loads(ipath.read_text(encoding="utf-8"))
                if (
                    not isinstance(idx, dict)
                    or idx.get("schema") != INDEX_SCHEMA
                ):
                    idx = None
            except (OSError, ValueError):
                idx = None
        if verify and idx is not None:
            if idx.get("lines") != self._count_shard_lines(digit):
                idx = None  # stale: shard grew or shrank behind our back
        if idx is None:
            idx = self.rebuild_index(digit)
        self._index_cache[digit] = idx
        return idx

    def rebuild_index(self, digit: str) -> dict:
        """Re-derive the shard's index by scanning it (self-healing)."""
        idx = self._empty_index()
        spath = self.shard_path(digit)
        if spath.exists():
            for rec, _raw in iter_jsonl(spath):
                if rec is None:
                    # count the line so the staleness check stays honest
                    idx["lines"] += 1
                    continue
                rid = rec.get("id") or record_id(rec)
                idx["lines"] -= 1  # _index_add re-counts it
                self._index_add(idx, rid, rec)
        self._index_cache[digit] = idx
        return idx

    def _save_index(self, digit: str, idx: dict) -> None:
        ipath = self.index_path(digit)
        tmp = ipath.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(idx), encoding="utf-8")
        os.replace(tmp, ipath)
        self._index_cache[digit] = idx

    # -- reads ---------------------------------------------------------------

    def count(self) -> int:
        """Stored records across all shards (via the indexes)."""
        return sum(
            len(self._load_index(d)["ids"]) for d in SHARD_DIGITS
        )

    def shard_index(self, digit: str) -> dict:
        """Public read access to a shard's (verified) index."""
        return self._load_index(digit)

    def records(
        self, digits: Iterable[str] = SHARD_DIGITS
    ) -> Iterator[dict]:
        """Iterate stored records shard by shard (corrupt lines are
        skipped; no locks taken)."""
        for digit in digits:
            spath = self.shard_path(digit)
            if not spath.exists():
                continue
            for rec, _raw in iter_jsonl(spath):
                if rec is not None:
                    yield rec

    # -- maintenance ---------------------------------------------------------

    def compact(self) -> dict:
        """Rewrite every shard: drop duplicate ids (first write wins),
        drop corrupt lines, order by ``ts``, rebuild indexes.  Returns
        ``{"records": kept, "dropped": removed_lines}``."""
        kept = dropped = 0
        with self._write_lock():
            for digit in SHARD_DIGITS:
                spath = self.shard_path(digit)
                if not spath.exists():
                    continue
                seen: set[str] = set()
                recs: list[dict] = []
                lines = 0
                for rec, _raw in iter_jsonl(spath):
                    lines += 1
                    if rec is None:
                        continue
                    rid = rec.get("id") or record_id(rec)
                    if rid in seen:
                        continue
                    seen.add(rid)
                    rec["id"] = rid
                    recs.append(rec)
                recs.sort(key=lambda r: r.get("ts") or "")
                tmp = spath.with_suffix(".jsonl.tmp")
                with open(tmp, "w", encoding="utf-8") as fh:
                    for rec in recs:
                        fh.write(json.dumps(rec, sort_keys=True) + "\n")
                os.replace(tmp, spath)
                kept += len(recs)
                dropped += lines - len(recs)
                self.rebuild_index(digit)
                self._save_index(digit, self._index_cache[digit])
        return {"records": kept, "dropped": dropped}


def default_store_root() -> Path:
    """``$REPRO_OBS_STORE`` or ``.repro/store`` under the CWD."""
    raw = os.environ.get(STORE_ENV, "").strip()
    return Path(raw) if raw else Path(".repro") / "store"
