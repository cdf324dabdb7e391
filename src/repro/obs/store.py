"""Sharded store of run-manifest records.

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
      ingest.lock                  fcntl advisory lock for writers

* **Content-hash ids** — a record's id is the SHA-256 of its canonical
  JSON (sorted keys, ``id`` excluded).  Re-ingesting the same log — or
  two logs containing the same run — is idempotent: an ingest batch
  reads the ids of every shard it touches and drops the records already
  there.
* **Sharding** — records land in one of 16 shards by the first hex
  digit of their id.  Hashes spread uniformly, so shards stay balanced
  without rebalancing logic.
* **No side indexes** — the shard files are the only state, so every
  read sees exactly what is on disk (a record appended behind the
  store's back included).  An ``index/`` directory left by an older
  store is ignored.
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

SHARD_DIGITS = "0123456789abcdef"


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

    # -- paths ---------------------------------------------------------------

    def shard_path(self, digit: str) -> Path:
        return self.root / "shards" / f"{digit}.jsonl"

    def _write_lock(self):
        """Serialize writers on ``ingest.lock``."""
        (self.root / "shards").mkdir(parents=True, exist_ok=True)
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
        """Ingest in-memory records: upgrade to the current manifest
        schema, assign content-hash ids, drop duplicates, append per
        shard.  One lock round-trip per batch."""
        report = report if report is not None else IngestReport()
        by_shard: dict[str, list[dict]] = {}
        for rec in records:
            rec = manifest.upgrade_record(rec)
            rec.pop("id", None)
            rec["id"] = record_id(rec)
            report.scanned += 1
            by_shard.setdefault(rec["id"][0], []).append(rec)
        if not by_shard:
            return report
        with self._write_lock():
            for digit, recs in sorted(by_shard.items()):
                known = self._shard_ids(digit)
                fresh: list[dict] = []
                for rec in recs:
                    if rec["id"] in known:
                        report.duplicates += 1
                        continue
                    known.add(rec["id"])
                    fresh.append(rec)
                if not fresh:
                    continue
                with open(self.shard_path(digit), "a", encoding="utf-8") as fh:
                    for rec in fresh:
                        fh.write(json.dumps(rec, sort_keys=True) + "\n")
                report.ingested += len(fresh)
        return report

    # -- reads ---------------------------------------------------------------

    def count(self) -> int:
        """Stored records across all shards."""
        return sum(1 for _rec in self.records())

    def _shard_ids(self, digit: str) -> set[str]:
        """The ids of the records in one shard."""
        return {
            rec.get("id") or record_id(rec) for rec in self.records((digit,))
        }

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
        drop corrupt lines, order by ``ts``.  Returns
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
        return {"records": kept, "dropped": dropped}


def default_store_root() -> Path:
    """The store root when the CLI is not given ``--store``:
    ``.repro/store`` under the CWD."""
    return Path(".repro") / "store"
