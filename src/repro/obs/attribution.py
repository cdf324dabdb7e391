"""Per-structure false-sharing attribution views.

The simulator tags every miss with its cache block and every
false-sharing miss with the ``(invalidating writer, missing processor)``
pair that ping-ponged the block (:mod:`repro.sim.coherence`).  This
module folds those tags through the layout's region map into the
source-level views the paper's evaluation works in:

* :func:`fs_table` / :func:`render_fs_table` — per-structure miss
  breakdown whose counts sum *exactly* to the simulator's totals (the
  sum is checked, not assumed);
* :func:`render_pair_breakdown` — which processor pairs falsely share
  each structure;
* :func:`render_heatmap` — the hottest cache lines with every structure
  resident on them (a straddling line *is* the layout bug);
* :func:`render_prediction_diff` — observed sharing diffed against the
  Stage-3 RSD predictions via
  :func:`repro.analysis.report.validation_report`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.layout.regions import RegionMap
from repro.sim.coherence import SimResult
from repro.sim.metrics import attribute, block_heatmap


@dataclass(slots=True)
class AttributionRow:
    name: str
    misses: int
    false_sharing: int
    #: (writer, misser) -> count
    pairs: dict[tuple[int, int], int]

    @property
    def other(self) -> int:
        return self.misses - self.false_sharing

    @property
    def top_pair(self) -> tuple[int, int] | None:
        if not self.pairs:
            return None
        return max(self.pairs.items(), key=lambda kv: (kv[1], kv[0]))[0]


@dataclass(slots=True)
class Attribution:
    """The attribution table plus the totals it was checked against."""

    rows: list[AttributionRow]
    total_misses: int
    total_fs: int

    def row(self, name: str) -> AttributionRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def fs_by_structure(self) -> dict[str, int]:
        return {r.name: r.false_sharing for r in self.rows}


def fs_table(result: SimResult, regions: RegionMap) -> Attribution:
    """Fold a simulation's miss tags into per-structure rows.

    Raises :class:`AssertionError` if the folded counts do not sum
    exactly to the simulator's reported totals — attribution must be an
    accounting identity, not an estimate.
    """
    by_structure, by_pairs = attribute(result, regions)
    rows = [
        AttributionRow(
            name=name,
            misses=rec.total,
            false_sharing=rec.false_sharing,
            pairs=by_pairs.get(name, {}),
        )
        for name, rec in by_structure.items()
    ]
    rows.sort(key=lambda r: (-r.false_sharing, -r.misses, r.name))
    att = Attribution(
        rows=rows,
        total_misses=result.total_misses,
        total_fs=result.misses.false_sharing,
    )
    folded_misses = sum(r.misses for r in rows)
    folded_fs = sum(r.false_sharing for r in rows)
    folded_pairs = sum(sum(r.pairs.values()) for r in rows)
    assert folded_misses == att.total_misses, (
        f"attribution lost misses: {folded_misses} != {att.total_misses}"
    )
    assert folded_fs == folded_pairs == att.total_fs, (
        f"attribution lost FS misses: {folded_fs}/{folded_pairs} != {att.total_fs}"
    )
    return att


def _pair_str(pair: tuple[int, int] | None) -> str:
    if pair is None:
        return "—"
    return f"P{pair[0]}→P{pair[1]}"


def render_fs_table(
    result: SimResult, regions: RegionMap, limit: int = 0
) -> str:
    """The per-structure false-sharing table (totals row checked)."""
    att = fs_table(result, regions)
    rows = att.rows[:limit] if limit else att.rows
    shown_misses = sum(r.misses for r in rows)
    shown_fs = sum(r.false_sharing for r in rows)
    lines = [
        "per-structure miss attribution:",
        f"  {'structure':<28} {'misses':>8} {'false':>8} {'other':>8}  hottest pair",
    ]
    for r in rows:
        lines.append(
            f"  {r.name:<28} {r.misses:>8} {r.false_sharing:>8} "
            f"{r.other:>8}  {_pair_str(r.top_pair)}"
        )
    if len(rows) < len(att.rows):
        rest_m = att.total_misses - shown_misses
        rest_f = att.total_fs - shown_fs
        lines.append(
            f"  {'(other structures)':<28} {rest_m:>8} {rest_f:>8} "
            f"{rest_m - rest_f:>8}"
        )
    lines.append(
        f"  {'TOTAL':<28} {att.total_misses:>8} {att.total_fs:>8} "
        f"{att.total_misses - att.total_fs:>8}  (= simulator totals)"
    )
    return "\n".join(lines)


def render_pair_breakdown(
    result: SimResult, regions: RegionMap, limit: int = 8, pairs_per: int = 4
) -> str:
    """Per-structure, per-processor-pair false-sharing breakdown."""
    att = fs_table(result, regions)
    lines = ["false-sharing processor pairs (writer→misser):"]
    shown = 0
    for r in att.rows:
        if not r.pairs or (limit and shown >= limit):
            continue
        shown += 1
        ranked = sorted(r.pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        parts = [
            f"{_pair_str(p)}:{n}" for p, n in ranked[:pairs_per]
        ]
        more = len(ranked) - pairs_per
        if more > 0:
            parts.append(f"(+{more} pairs)")
        lines.append(
            f"  {r.name:<28} {r.false_sharing:>8}  {'  '.join(parts)}"
        )
    if shown == 0:
        lines.append("  (no false-sharing misses)")
    return "\n".join(lines)


def render_heatmap(
    result: SimResult, regions: RegionMap, limit: int = 16
) -> str:
    """The hottest cache lines: address, residents, misses, FS pairs."""
    bs = result.config.block_size
    rows = block_heatmap(result, regions, limit=limit)
    lines = [
        f"cache-line heatmap ({bs}-byte blocks, top {len(rows)} by misses):",
        f"  {'block':>8} {'addr':>12} {'misses':>7} {'false':>7}  "
        f"{'hot pair':<10} residents",
    ]
    for r in rows:
        lines.append(
            f"  {r.block:>8} {r.block * bs:>#12x} {r.misses:>7} "
            f"{r.false_sharing:>7}  "
            f"{_pair_str(r.top_pair):<10} {' + '.join(r.names)}"
        )
    if not rows:
        lines.append("  (no misses recorded)")
    return "\n".join(lines)


def render_prediction_diff(pa, plan, result: SimResult, regions: RegionMap) -> str:
    """Observed per-structure false sharing diffed against the static
    analysis's transformation targets (the paper's validation view)."""
    from repro.analysis.report import validation_report

    att = fs_table(result, regions)
    return validation_report(pa, plan, att.fs_by_structure)
