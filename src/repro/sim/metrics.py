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


def _run_starts(*cols: np.ndarray) -> np.ndarray:
    """Where each run of equal rows of the non-empty ``cols`` starts."""
    new = np.zeros(len(cols[0]), dtype=bool)
    new[0] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return np.flatnonzero(new)


def attribute(
    result: SimResult, regions: RegionMap
) -> tuple[dict[str, StructureMisses], dict[str, dict[tuple[int, int], int]]]:
    """Per-structure miss counts, and each structure's false-sharing
    misses by ``(invalidating writer, missing processor)`` pair — who
    wrote the block out from under whom — from one region lookup.  The
    folds are exact: the totals equal the simulator's."""
    b, p = result.blocks, result.pairs
    if not len(b.block):
        return {}, {}
    # blocks are sorted by address, so a structure's blocks are a few
    # runs of its name
    names = regions.names_of_many(b.block * result.config.block_size)
    start = _run_starts(names)
    structs = sorted(set(names[start].tolist()))
    row = np.repeat(
        np.searchsorted(np.array(structs, dtype=object), names[start]),
        np.diff(start, append=len(names)),
    )
    total = np.bincount(row, weights=b.misses, minlength=len(structs))
    fs = np.bincount(row, weights=b.false_sharing, minlength=len(structs))
    by_structure = {
        name: StructureMisses(name, int(f), int(t))
        for name, t, f in zip(structs, total.tolist(), fs.tolist())
    }
    by_pairs: dict[str, dict[tuple[int, int], int]] = {}
    if len(p.block):
        # a false-sharing miss is a miss, so every pair's block is a row
        struct = row[np.searchsorted(b.block, p.block)]
        order = np.lexsort((p.misser, p.writer, struct))
        keys = (struct[order], p.writer[order], p.misser[order])
        first = _run_starts(*keys)
        counts = np.add.reduceat(p.count[order], first)
        for s, w, m, n in zip(*(k[first].tolist() for k in keys), counts.tolist()):
            by_pairs.setdefault(structs[s], {})[(w, m)] = n
    return by_structure, by_pairs


def attribute_misses(
    result: SimResult, regions: RegionMap
) -> dict[str, StructureMisses]:
    """Fold per-block miss counts into per-data-structure counts."""
    return attribute(result, regions)[0]


def top_fs_structures(
    result: SimResult, regions: RegionMap, n: int = 5
) -> list[StructureMisses]:
    """The n structures with the most false-sharing misses."""
    attributed = attribute_misses(result, regions)
    ranked = sorted(
        attributed.values(), key=lambda s: s.false_sharing, reverse=True
    )
    return ranked[:n]


@dataclass(slots=True)
class BlockHotspot:
    """One cache line's miss profile (a row of the heatmap table)."""

    block: int
    #: structures overlapping the line (layout view, not just misses)
    names: tuple[str, ...]
    misses: int
    false_sharing: int
    #: hottest (writer, misser) pair, if any FS occurred
    top_pair: tuple[int, int] | None = None


def block_heatmap(
    result: SimResult, regions: RegionMap, limit: int = 20
) -> list[BlockHotspot]:
    """The ``limit`` hottest cache lines by miss count, with the
    structures they overlap and the dominant false-sharing pair."""
    bs = result.config.block_size
    b, p = result.blocks, result.pairs
    hot = np.lexsort((b.block, -b.misses))[:limit]
    blocks = b.block[hot]
    lo = np.searchsorted(p.block, blocks, side="left").tolist()
    hi = np.searchsorted(p.block, blocks, side="right").tolist()
    rows: list[BlockHotspot] = []
    for block, misses, fs, i, j in zip(
        blocks.tolist(), b.misses[hot].tolist(),
        b.false_sharing[hot].tolist(), lo, hi,
    ):
        top_pair = None
        if i < j:
            _, top_pair = max(zip(
                p.count[i:j].tolist(),
                zip(p.writer[i:j].tolist(), p.misser[i:j].tolist()),
            ))
        rows.append(
            BlockHotspot(
                block=block,
                names=tuple(regions.names_in_range(block * bs, (block + 1) * bs)),
                misses=misses,
                false_sharing=fs,
                top_pair=top_pair,
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
