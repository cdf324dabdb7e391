"""Reverse address mapping: which data structure owns an address?

Used to validate that the static analysis pinpoints the structures
responsible for false sharing (the paper compares its per-structure
analysis against simulation profiles showing "the number of false
sharing misses per data structure") and to produce per-structure miss
attributions in reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.layout.datalayout import (
    ARENA_BASE,
    ARENA_STRIDE,
    GROUP_BASE,
    HEAP_BASE,
    SYNC_BASE,
    DataLayout,
)


@dataclass(slots=True)
class Segment:
    start: int
    size: int
    name: str

    @property
    def end(self) -> int:
        return self.start + self.size


class RegionMap:
    """Sorted-interval lookup from address to data-structure name."""

    def __init__(self, segments: list[Segment]):
        segs = sorted(segments, key=lambda s: s.start)
        merged: list[Segment] = []
        for s in segs:
            if merged and merged[-1].name == s.name and merged[-1].end >= s.start:
                merged[-1] = Segment(
                    merged[-1].start,
                    max(merged[-1].end, s.end) - merged[-1].start,
                    s.name,
                )
            else:
                merged.append(s)
        self.segments = merged
        # columnar mirrors for the vectorized lookup
        self._starts_np = np.asarray([s.start for s in merged], dtype=np.int64)
        self._ends_np = np.asarray([s.end for s in merged], dtype=np.int64)
        self._names_np = np.asarray([s.name for s in merged], dtype=object)

    def name_of(self, addr: int) -> str:
        return self.names_of_many(np.array([addr]))[0]

    def names_of_many(self, addrs: np.ndarray) -> np.ndarray:
        """The structure name of every address of an int64 array — the
        attribution folds resolve every missed block base at once."""
        addrs = np.asarray(addrs, dtype=np.int64)
        out = np.empty(len(addrs), dtype=object)
        sync = addrs >= SYNC_BASE
        out[sync] = "(sync)"
        arena = (
            ~sync
            & (addrs >= ARENA_BASE)
            & (addrs < ARENA_BASE + 130 * ARENA_STRIDE)
        )
        if arena.any():
            pids = (addrs[arena] - ARENA_BASE) // ARENA_STRIDE - 1
            out[arena] = [f"(arena:{p})" for p in pids]
        rest = ~(sync | arena)
        if rest.any():
            ra = addrs[rest]
            if len(self._starts_np):
                idx = np.searchsorted(self._starts_np, ra, side="right") - 1
                safe = np.maximum(idx, 0)
                in_seg = (idx >= 0) & (ra < self._ends_np[safe])
            else:
                idx = np.zeros(len(ra), dtype=np.int64)
                in_seg = np.zeros(len(ra), dtype=bool)
            sub = np.where(
                ra >= HEAP_BASE,
                "(heap)",
                np.where(ra >= GROUP_BASE, "(group)", "(unknown)"),
            ).astype(object)
            sub[in_seg] = self._names_np[idx[in_seg]]
            out[rest] = sub
        return out

    def names_in_range(self, lo: int, hi: int) -> list[str]:
        """Every structure name overlapping ``[lo, hi)``, in address
        order (duplicates removed).

        A cache block that straddles two structures is exactly the
        layout-induced false-sharing situation, so the heatmap view
        names *all* residents of a line, not just the one at its base.
        """
        names: list[str] = []
        i = max(int(np.searchsorted(self._starts_np, lo, side="right")) - 1, 0)
        while i < len(self.segments) and self.segments[i].start < hi:
            seg = self.segments[i]
            if seg.end > lo and seg.name not in names:
                names.append(seg.name)
            i += 1
        base = self.name_of(lo)
        if base not in names:
            # no segment overlaps, or the base address falls in a
            # synthetic region ((sync), (arena:N), ...) that the segment
            # list does not cover
            names.insert(0, base)
        return names


def build_region_map(
    layout: DataLayout,
    heap_segments: list[tuple[int, int, str]] | None = None,
) -> RegionMap:
    """Build the reverse map for a layout, optionally including the heap
    segments the interpreter recorded at alloc() time."""
    segs: list[Segment] = []
    for name, info in layout.globals.items():
        segs.append(Segment(info.base, info.size, name))
    for member in layout.group_members():
        segs.extend(Segment(addr, member.size, member.label) for addr in member.table)
    for addr, size, label in heap_segments or []:
        segs.append(Segment(addr, size, label))
    return RegionMap(segs)
