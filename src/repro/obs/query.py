"""Query engine over the run-record store.

Answers the questions run history exists for — "mean false-sharing
misses per workload and block size over the last week", "how did the
trace-cache hit rate move across the last 50 runs" — with three
composable pieces:

* **Filters** — ``field OP value`` triples over record fields, with
  dotted paths into nested dicts and comparison/substring operators.
* **Time window** — ``since``/``until`` bounds over the record ``ts``,
  absolute (ISO-8601 prefix) or relative (``7d``, ``24h``, ``90m``).
* **Group-by + aggregate** — group rows by any fields and reduce any
  numeric field with count/sum/mean/min/max/std/p50/p95.

Field paths resolve *longest-match first* at every dict level, because
perf-counter names themselves contain dots: ``perf.trace_cache.hit``
finds ``rec["perf"]["trace_cache.hit"]``.  Short aliases cover the
common metrics (``fs`` → ``misses.false``, ``wall`` →
``wall_seconds``).

The engine reads shard files through :class:`~repro.obs.store.RunStore`
and uses the per-shard column indexes only to skip shards that cannot
match an equality filter or the time window — pruning is a performance
hint, never a source of truth.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import time as _time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Iterable, Iterator, Optional, Sequence

from repro.obs.store import INDEXED_COLUMNS, SHARD_DIGITS, RunStore

#: Short names for the metrics people actually query.
ALIASES = {
    "fs": "misses.false",
    "fs_misses": "misses.false",
    "cold": "misses.cold",
    "replace": "misses.replace",
    "true": "misses.true",
    "wall": "wall_seconds",
    # fields of records written by the retired streamed boundary
    "stall": "stream.stall_seconds",
    "queue_high_water": "stream.queue_high_water",
}

#: Filter operators, longest first so ``>=`` wins over ``>``.
_OPS = ("!=", ">=", "<=", "~", "=", ">", "<")

AGG_FUNCS = ("count", "sum", "mean", "min", "max", "std", "p50", "p95")


class QueryError(ValueError):
    """A malformed filter/aggregate/window specification."""


def canonical_field(name: str) -> str:
    return ALIASES.get(name.strip(), name.strip())


def get_field(rec: dict, path: str):
    """Resolve a dotted ``path`` against ``rec``, longest-match first.

    ``perf.trace_cache.hit`` must find ``rec["perf"]["trace_cache.hit"]``
    even though the counter key itself contains a dot — so at each dict
    level the longest joinable prefix of the remaining parts that is an
    actual key wins.  Returns None when nothing matches.
    """
    parts = canonical_field(path).split(".")

    def walk(obj, parts):
        if not parts:
            return obj
        if not isinstance(obj, dict):
            return None
        for cut in range(len(parts), 0, -1):
            key = ".".join(parts[:cut])
            if key in obj:
                got = walk(obj[key], parts[cut:])
                if got is not None:
                    return got
        return None

    return walk(rec, parts)


def _coerce(raw: str):
    """A filter literal as int, then float, then bare string."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


@dataclass(slots=True)
class Filter:
    field: str
    op: str
    value: object

    @classmethod
    def parse(cls, spec: str) -> "Filter":
        """``workload=Maxflow/N``, ``block_size>=64``, ``plan~pad`` ..."""
        for op in _OPS:
            i = spec.find(op)
            if i > 0:
                fieldname = canonical_field(spec[:i])
                raw = spec[i + len(op):].strip()
                return cls(fieldname, "==" if op == "=" else op, _coerce(raw))
        raise QueryError(
            f"bad filter {spec!r} (want field<op>value with one of "
            f"{', '.join(_OPS)})"
        )

    def matches(self, rec: dict) -> bool:
        got = get_field(rec, self.field)
        want = self.value
        if self.op == "~":
            return got is not None and str(want).lower() in str(got).lower()
        if got is None:
            return False
        # numeric comparison when both sides are numbers; string otherwise
        if isinstance(got, bool):
            got = int(got)
        if not isinstance(got, (int, float)) or not isinstance(
            want, (int, float)
        ):
            got, want = str(got), str(want)
        if self.op == "==":
            return got == want
        if self.op == "!=":
            return got != want
        try:
            if self.op == ">":
                return got > want
            if self.op == ">=":
                return got >= want
            if self.op == "<":
                return got < want
            if self.op == "<=":
                return got <= want
        except TypeError:
            return False
        raise QueryError(f"unknown operator {self.op!r}")


_REL_WINDOW = re.compile(r"^(\d+(?:\.\d+)?)\s*([smhdw])$")
_REL_SECONDS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 7 * 86400}


def parse_when(raw: str, *, now: Optional[datetime] = None) -> str:
    """A window bound as a comparable ISO timestamp string.

    Accepts an ISO-8601 prefix (``2026-08``, ``2026-08-07T12:00:00``)
    verbatim, or a relative age (``7d``, ``24h``, ``90m``, ``30s``,
    ``2w``) resolved against ``now`` (UTC).  Record timestamps are
    UTC ISO-8601 with second precision, so plain string comparison is
    chronological.
    """
    s = raw.strip()
    m = _REL_WINDOW.match(s.lower())
    if m:
        now = now or datetime.now(timezone.utc)
        dt = now - timedelta(
            seconds=float(m.group(1)) * _REL_SECONDS[m.group(2)]
        )
        return dt.isoformat(timespec="seconds")
    if not s or not s[0].isdigit():
        raise QueryError(f"bad time bound {raw!r} (ISO prefix or e.g. 7d)")
    return s


@dataclass(slots=True)
class Aggregate:
    func: str
    field: str  # "*" for count

    @classmethod
    def parse(cls, spec: str) -> "Aggregate":
        """``count``, ``mean:misses.false``, ``p95:wall_seconds`` ..."""
        func, _, fieldname = spec.strip().partition(":")
        func = func.strip().lower()
        if func not in AGG_FUNCS:
            raise QueryError(
                f"unknown aggregate {func!r} (want one of "
                f"{', '.join(AGG_FUNCS)})"
            )
        fieldname = canonical_field(fieldname) if fieldname else "*"
        if func != "count" and fieldname == "*":
            raise QueryError(f"aggregate {func!r} needs a field: {func}:<field>")
        return cls(func, fieldname)

    @property
    def label(self) -> str:
        return self.func if self.field == "*" else f"{self.func}({self.field})"

    def reduce(self, values: list[float], n_rows: int) -> float | int | None:
        if self.func == "count":
            return n_rows
        if not values:
            return None
        if self.func == "sum":
            return _nice(sum(values))
        if self.func == "mean":
            return _nice(sum(values) / len(values))
        if self.func == "min":
            return _nice(min(values))
        if self.func == "max":
            return _nice(max(values))
        if self.func == "std":
            mu = sum(values) / len(values)
            return _nice(
                math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))
            )
        if self.func == "p50":
            return _nice(percentile(values, 0.50))
        if self.func == "p95":
            return _nice(percentile(values, 0.95))
        raise QueryError(f"unknown aggregate {self.func!r}")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (values need not be sorted)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return float(xs[lo])
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _nice(x: float) -> float | int:
    """Round for display-stable output; keep exact ints exact."""
    if isinstance(x, int):
        return x
    if float(x).is_integer():
        return int(x)
    return round(float(x), 6)


@dataclass(slots=True)
class Query:
    """One question against the store (all parts optional)."""

    where: list[Filter] = field(default_factory=list)
    since: Optional[str] = None   # ISO prefix or relative age
    until: Optional[str] = None
    group_by: list[str] = field(default_factory=list)
    aggregates: list[Aggregate] = field(default_factory=list)
    fields: list[str] = field(default_factory=list)  # row projection
    sort: Optional[str] = None    # column name, "-col" for descending
    limit: Optional[int] = None

    @classmethod
    def build(
        cls,
        *,
        where: Iterable[str] = (),
        since: Optional[str] = None,
        until: Optional[str] = None,
        group_by: Optional[str] = None,
        aggregates: Iterable[str] = (),
        fields: Optional[str] = None,
        sort: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> "Query":
        """Build from CLI-shaped string specs."""
        q = cls(
            where=[Filter.parse(w) for w in where],
            since=parse_when(since) if since else None,
            until=parse_when(until) if until else None,
            group_by=[
                canonical_field(g)
                for g in (group_by or "").split(",")
                if g.strip()
            ],
            aggregates=[Aggregate.parse(a) for a in aggregates],
            fields=[
                canonical_field(f)
                for f in (fields or "").split(",")
                if f.strip()
            ],
            sort=sort,
            limit=limit,
        )
        if q.group_by and not q.aggregates:
            q.aggregates = [Aggregate("count", "*")]
        return q


@dataclass(slots=True)
class QueryResult:
    columns: list[str]
    rows: list[dict]
    #: records examined / matched, shards skipped via indexes, seconds
    scanned: int = 0
    matched: int = 0
    shards_pruned: int = 0
    seconds: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {"columns": self.columns, "rows": self.rows}, indent=2
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=self.columns)
        w.writeheader()
        for row in self.rows:
            w.writerow({c: row.get(c, "") for c in self.columns})
        return buf.getvalue()

    def to_table(self) -> str:
        cols = self.columns
        cells = [
            [_fmt_cell(row.get(c)) for c in cols] for row in self.rows
        ]
        widths = [
            max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
            for i, c in enumerate(cols)
        ]
        lines = [
            "  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for r in cells:
            lines.append(
                "  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip()
            )
        return "\n".join(lines)


def _fmt_cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:g}"
    return str(v)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _shard_can_match(idx: dict, query: Query) -> bool:
    """False only when the index *proves* no record can match."""
    if not idx["ids"]:
        return False
    if query.since and idx.get("ts_max") and idx["ts_max"] < query.since:
        return False
    if query.until and idx.get("ts_min") and idx["ts_min"] > query.until:
        return False
    for f in query.where:
        if f.op == "==" and f.field in INDEXED_COLUMNS:
            if str(f.value) not in idx["cols"].get(f.field, {}):
                return False
    return True


def _in_window(rec: dict, query: Query) -> bool:
    ts = str(rec.get("ts") or "")
    if query.since and ts < query.since:
        return False
    if query.until and ts > query.until:
        return False
    return True


def scan(store: RunStore, query: Query) -> Iterator[dict]:
    """Matching records, shard by shard (index-pruned)."""
    for digit in SHARD_DIGITS:
        idx = store.shard_index(digit)
        if not _shard_can_match(idx, query):
            continue
        for rec in store.records([digit]):
            if not _in_window(rec, query):
                continue
            if all(f.matches(rec) for f in query.where):
                yield rec


def run_query(store: RunStore, query: Query) -> QueryResult:
    """Execute ``query`` against ``store``."""
    t0 = _time.perf_counter()
    pruned = 0
    matched: list[dict] = []
    scanned = 0
    for digit in SHARD_DIGITS:
        idx = store.shard_index(digit)
        if not _shard_can_match(idx, query):
            pruned += 1
            continue
        for rec in store.records([digit]):
            scanned += 1
            if not _in_window(rec, query):
                continue
            if all(f.matches(rec) for f in query.where):
                matched.append(rec)

    if query.group_by:
        result = _grouped(matched, query)
    else:
        result = _projected(matched, query)
    result.scanned = scanned
    result.matched = len(matched)
    result.shards_pruned = pruned
    result.seconds = _time.perf_counter() - t0
    return result


def _numeric(v) -> Optional[float]:
    if isinstance(v, bool):
        return float(v)
    if isinstance(v, (int, float)):
        return float(v)
    return None


def _grouped(records: list[dict], query: Query) -> QueryResult:
    groups: dict[tuple, list[dict]] = {}
    for rec in records:
        key = []
        for g in query.group_by:
            v = get_field(rec, g)
            key.append(v if isinstance(v, (str, int, float, bool)) or v is None
                       else _fmt_cell(v))
        groups.setdefault(tuple(key), []).append(rec)
    rows: list[dict] = []
    for key, recs in groups.items():
        row = dict(zip(query.group_by, key))
        for agg in query.aggregates:
            values = [
                x
                for x in (
                    _numeric(get_field(r, agg.field)) for r in recs
                )
                if x is not None
            ] if agg.field != "*" else []
            row[agg.label] = agg.reduce(values, len(recs))
        rows.append(row)
    columns = list(query.group_by) + [a.label for a in query.aggregates]
    rows.sort(key=lambda r: tuple(str(r.get(g, "")) for g in query.group_by))
    return _sorted_limited(columns, rows, query)


#: Default projection for ungrouped queries.
DEFAULT_FIELDS = (
    "ts", "kind", "workload", "plan", "nprocs", "block_size",
    "kernel", "misses.false", "wall_seconds",
)


def _projected(records: list[dict], query: Query) -> QueryResult:
    fields = query.fields or list(DEFAULT_FIELDS)
    rows = []
    for rec in records:
        rows.append({f: get_field(rec, f) for f in fields})
    rows.sort(key=lambda r: str(r.get("ts", "")))
    return _sorted_limited(fields, rows, query)


def _sorted_limited(
    columns: list[str], rows: list[dict], query: Query
) -> QueryResult:
    if query.sort:
        col = canonical_field(query.sort.lstrip("-"))
        numeric = all(
            isinstance(r.get(col), (int, float)) or r.get(col) is None
            for r in rows
        )

        def key(r):
            v = r.get(col)
            if v is None:
                return (1, 0 if numeric else "")
            return (0, float(v) if numeric else str(v))

        rows.sort(key=key, reverse=query.sort.startswith("-"))
    if query.limit is not None:
        rows = rows[: query.limit]
    return QueryResult(columns=columns, rows=rows)
