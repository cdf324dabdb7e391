"""Aggregation helpers over simulation results: per-structure miss
attribution and block-size sweeps (the raw material of Figure 3,
Table 2 and the section-5 headline statistics)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.layout.regions import RegionMap
from repro.runtime.trace import RunResult
from repro.sim.coherence import SimResult
from repro.sim.simcache import cached_simulate


@dataclass(slots=True)
class StructureMisses:
    name: str
    false_sharing: int = 0
    total: int = 0

    @property
    def other(self) -> int:
        return self.total - self.false_sharing


def _block_names(
    by_block: dict, regions: RegionMap, bs: int
) -> "np.ndarray":
    """Resolve every block base in one vectorized pass (the per-address
    bisect dominated attribution cost on large miss maps)."""
    blocks = np.fromiter(by_block.keys(), dtype=np.int64, count=len(by_block))
    return regions.names_of_many(blocks * bs)


def attribute_misses(
    result: SimResult, regions: RegionMap
) -> dict[str, StructureMisses]:
    """Fold per-block miss counts into per-data-structure counts."""
    bs = result.config.block_size
    out: dict[str, StructureMisses] = {}
    folds = (
        (result.miss_by_block, "total"),
        (result.fs_by_block, "false_sharing"),
    )
    for by_block, attr in folds:
        if not by_block:
            continue
        names = _block_names(by_block, regions, bs)
        counts = np.fromiter(
            by_block.values(), dtype=np.int64, count=len(by_block)
        )
        uniq, inverse = np.unique(names, return_inverse=True)
        sums = np.bincount(inverse, weights=counts)
        for name, total in zip(uniq.tolist(), sums.tolist()):
            rec = out.get(name)
            if rec is None:
                rec = out[name] = StructureMisses(name)
            setattr(rec, attr, getattr(rec, attr) + int(total))
    return out


def top_fs_structures(
    result: SimResult, regions: RegionMap, n: int = 5
) -> list[StructureMisses]:
    """The n structures with the most false-sharing misses."""
    attributed = attribute_misses(result, regions)
    ranked = sorted(
        attributed.values(), key=lambda s: s.false_sharing, reverse=True
    )
    return ranked[:n]


def attribute_fs_pairs(
    result: SimResult, regions: RegionMap
) -> dict[str, dict[tuple[int, int], int]]:
    """Per-structure false-sharing misses broken down by processor pair.

    The pair is ``(invalidating writer, missing processor)`` — who wrote
    the block out from under whom.  Counts fold
    ``SimResult.fs_pair_by_block`` through the region map, so the grand
    total equals ``result.misses.false_sharing`` exactly.
    """
    bs = result.config.block_size
    out: dict[str, dict[tuple[int, int], int]] = {}
    if not result.fs_pair_by_block:
        return out
    names = _block_names(result.fs_pair_by_block, regions, bs)
    for name, pairs in zip(names, result.fs_pair_by_block.values()):
        rec = out.setdefault(name, {})
        for pair, count in pairs.items():
            rec[pair] = rec.get(pair, 0) + count
    return out


@dataclass(slots=True)
class BlockHotspot:
    """One cache line's miss profile (a row of the heatmap table)."""

    block: int
    #: structures overlapping the line (layout view, not just misses)
    names: tuple[str, ...]
    misses: int
    false_sharing: int
    #: hottest (writer, misser) pair and its count, if any FS occurred
    top_pair: tuple[int, int] | None = None
    top_pair_count: int = 0

    @property
    def addr(self) -> int:
        return self.block  # scaled by callers that know the block size


def block_heatmap(
    result: SimResult, regions: RegionMap, limit: int = 20
) -> list[BlockHotspot]:
    """The ``limit`` hottest cache lines by miss count, with the
    structures they overlap and the dominant false-sharing pair."""
    bs = result.config.block_size
    rows: list[BlockHotspot] = []
    ranked = sorted(
        result.miss_by_block.items(), key=lambda kv: (-kv[1], kv[0])
    )
    for block, count in ranked[:limit]:
        pairs = result.fs_pair_by_block.get(block, {})
        top_pair, top_count = None, 0
        if pairs:
            top_pair, top_count = max(
                pairs.items(), key=lambda kv: (kv[1], kv[0])
            )
        rows.append(
            BlockHotspot(
                block=block,
                names=tuple(regions.names_in_range(block * bs, (block + 1) * bs)),
                misses=count,
                false_sharing=result.fs_by_block.get(block, 0),
                top_pair=top_pair,
                top_pair_count=top_count,
            )
        )
    return rows


def simulate_run(
    run: RunResult,
    block_size: int,
    *,
    machine=None,
    word_invalidate: bool = False,
    engine: str | None = None,
) -> SimResult:
    """Simulate a run's trace at one block size, counting the run's
    private references into the miss-rate denominator.

    The cache shape and coherence protocol come from the active
    :class:`~repro.machine.models.MachineModel` (``machine`` — a model,
    a registry name, or None to resolve ``REPRO_MACHINE``; the default
    ksr2 reproduces the original hard-coded 32 KB / 4-way / MSI
    geometry exactly).

    Routed through the fast-path engine and the per-trace result memo
    (:mod:`repro.sim.simcache`); set ``engine="reference"`` to force
    the original one-reference-at-a-time simulator."""
    from repro.machine.models import resolve_machine

    config = resolve_machine(machine).cache_config(block_size)
    extra = sum(run.private_refs.values())
    return cached_simulate(
        run.trace, run.nprocs, config, extra_refs=extra,
        word_invalidate=word_invalidate, engine=engine,
    )


@dataclass(slots=True)
class BlockSizeSweep:
    """Miss statistics across block sizes for one run."""

    block_sizes: list[int]
    results: dict[int, SimResult] = field(default_factory=dict)

    @property
    def fs_fraction_by_size(self) -> dict[int, float]:
        return {
            bs: (
                r.misses.false_sharing / r.total_misses
                if r.total_misses
                else 0.0
            )
            for bs, r in self.results.items()
        }


def sweep_block_sizes(
    run: RunResult,
    block_sizes: list[int],
    *,
    machine=None,
) -> BlockSizeSweep:
    sweep = BlockSizeSweep(block_sizes=list(block_sizes))
    for bs in block_sizes:
        sweep.results[bs] = simulate_run(run, bs, machine=machine)
    return sweep
