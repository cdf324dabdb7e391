"""Trace-driven multiprocessor simulation with write-invalidate
coherence and miss classification.

Miss classes
------------

``cold``
    First reference to the block by this cache.
``replace``
    The block was previously evicted for capacity/conflict reasons.
``true``
    Invalidation miss where the missing access touches a word some other
    processor wrote while this cache did not hold the block — the
    communication was necessary.
``false``
    Invalidation miss where the accessed word was *not* remotely
    modified since this cache lost the block: the miss exists only
    because unrelated data share the cache block.  This is the paper's
    false-sharing miss [EJ91, TLH94].

Word granularity for the write log is 4 bytes (the smallest scalar).
Upgrades (S→M writes) invalidate remote copies but are not misses.

The protocol core operates on pre-split ``(proc, block, word range)``
events so the same state machine serves both the reference path
(:func:`simulate_trace`, which splits each reference as it goes) and the
vectorized fast path (:mod:`repro.sim.engine`, which consumes the
precomputed streams of :mod:`repro.sim.events`).  An event may carry a
``rep`` count: the reference counter and the logical clock advance by
the full run length before the event is applied once, which keeps
compacted simulations bit-identical to the reference (see
``repro/sim/events.py`` for the argument).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro.errors import SimulationError
from repro.runtime.trace import Trace
from repro.sim.cache import (
    Cache, CacheConfig, EXCLUSIVE, INVALID, MODIFIED, SHARED,
)

WORD = 4

COLD = "cold"
REPLACE = "replace"
TRUE_SHARING = "true"
FALSE_SHARING = "false"

#: Column indices of the per-processor miss-count matrix.
_COLD = 0
_REPLACE = 1
_TRUE = 2
_FALSE = 3

#: Loss causes recorded per (proc, block).
_EVICT = 0
_INVAL = 1

#: Placeholder "no processor" for eviction loss records (pid -1 is the
#: serial parent, so it cannot double as the sentinel).
_NO_PROC = -2


@dataclass(slots=True)
class MissCounts:
    cold: int = 0
    replace: int = 0
    true_sharing: int = 0
    false_sharing: int = 0

    @property
    def total(self) -> int:
        return self.cold + self.replace + self.true_sharing + self.false_sharing

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.cold, self.replace, self.true_sharing, self.false_sharing)


class PerProcCounts(Mapping):
    """Read-only mapping ``pid -> MissCounts`` over the simulator's
    preallocated ``(nprocs, 4)`` count matrix.

    The matrix row for pid ``p`` is ``p + 1`` (row 0 is the serial
    parent, pid -1).  ``MissCounts`` values are materialized on access;
    the matrix itself is the single source of truth.
    """

    __slots__ = ("_counts", "_pids")

    def __init__(self, counts: np.ndarray, pids: tuple[int, ...]):
        self._counts = counts
        self._pids = pids

    def __getitem__(self, pid: int) -> MissCounts:
        if pid not in self._pids:
            raise KeyError(pid)
        row = self._counts[pid + 1]
        return MissCounts(int(row[0]), int(row[1]), int(row[2]), int(row[3]))

    def __iter__(self) -> Iterator[int]:
        return iter(self._pids)

    def __len__(self) -> int:
        return len(self._pids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerProcCounts({dict(self)!r})"


def canonical_rows(cols, positive: int) -> list[np.ndarray]:
    """The rows of ``cols`` whose column ``positive`` is > 0, sorted by
    the columns before it (which identify a row), as read-only int64
    columns: the Python core's insertion order and the C kernel's hash
    order become one order, and :mod:`repro.sim.simcache` shares one
    result between callers."""
    rows = np.asarray(cols, dtype=np.int64)
    rows = rows[:, rows[positive] > 0]
    keys = rows[positive - 1::-1]
    # keys identify a row, so one key needs no stable (slower) sort
    rows = rows[:, np.argsort(keys[0]) if positive == 1 else np.lexsort(keys)]
    rows.flags.writeable = False
    return list(rows)


class BlockMisses(NamedTuple):
    """Misses per cache block: one row per block with a miss, sorted by
    block (for data-structure attribution)."""

    block: np.ndarray
    misses: np.ndarray
    false_sharing: np.ndarray

    @classmethod
    def of(cls, *cols) -> "BlockMisses":
        return cls(*canonical_rows(cols, 1))


class FSPairs(NamedTuple):
    """False-sharing misses per (block, invalidating writer, missing
    processor): one row per triple with a miss, sorted by all three.
    Per block the counts sum to its ``false_sharing`` (the attribution
    layer's per-processor-pair breakdown is folded from this)."""

    block: np.ndarray
    writer: np.ndarray
    misser: np.ndarray
    count: np.ndarray

    @classmethod
    def of(cls, *cols) -> "FSPairs":
        return cls(*canonical_rows(cols, 3))


@dataclass(slots=True)
class SimResult:
    """Outcome of simulating one trace on one cache configuration."""

    config: CacheConfig
    nprocs: int
    refs: int
    misses: MissCounts
    invalidations: int
    writebacks: int
    upgrades: int
    #: per-processor miss counts (a read-only mapping view)
    per_proc: Mapping
    blocks: BlockMisses
    pairs: FSPairs
    #: extra references counted toward the denominator but not simulated
    extra_refs: int = 0
    #: wall-clock seconds spent in the simulation (instrumentation)
    sim_seconds: float = 0.0
    #: which path produced this result ("reference" | "fast" | "dynamic",
    #: the last for :func:`repro.dynamic.mitigate`'s phase-by-phase run)
    engine: str = "reference"
    #: which protocol core ran the event loop ("python" | "native")
    kernel: str = "python"

    @property
    def total_misses(self) -> int:
        return self.misses.total

    @property
    def miss_rate(self) -> float:
        denom = self.refs + self.extra_refs
        return self.total_misses / denom if denom else 0.0

    @property
    def fs_miss_rate(self) -> float:
        denom = self.refs + self.extra_refs
        return self.misses.false_sharing / denom if denom else 0.0


class CoherenceSim:
    """Write-invalidate multiprocessor cache simulator.

    ``word_invalidate=True`` models the hardware alternative of Dubois
    et al. [DSR+93]: invalidations are performed per *word* instead of
    per block, so a remote copy stays usable unless the words it
    actually reads were overwritten.  This eliminates false-sharing
    misses entirely (they become hits on still-valid words) at the cost
    of an invalid bit per word and more invalidation traffic — the
    paper's section 6 comparison point.
    """

    def __init__(self, nprocs: int, config: CacheConfig,
                 *, word_invalidate: bool = False):
        self.nprocs = nprocs
        self.config = config
        self.word_invalidate = word_invalidate
        #: MESI adds the Exclusive state: a read miss with no other
        #: valid holder installs E, a write hit on E upgrades to M
        #: silently (no invalidation broadcast, no upgrade transaction),
        #: and a remote read miss demotes E→S *without* a writeback.
        #: Miss classification is untouched — E only changes which
        #: transitions cost bus transactions.
        self.mesi = config.protocol == "mesi"
        if self.mesi and word_invalidate:
            raise SimulationError(
                "word-granularity invalidation is modelled for the "
                "paper's MSI protocol only (got protocol='mesi')"
            )
        #: (proc, block) -> set of invalidated word indices (word mode)
        self.stale_words: dict[tuple[int, int], set[int]] = {}
        self.caches: dict[int, Cache] = {}
        #: block -> set of procs with a copy (incl. MODIFIED owner)
        self.sharers: dict[int, set[int]] = {}
        #: (proc, block) blocks this proc has ever had
        self.ever: set[tuple[int, int]] = set()
        #: (proc, block) -> (cause, time, by-whom) of last loss; the
        #: third element names the invalidating writer (or _NO_PROC for
        #: evictions) so false-sharing misses can be attributed to the
        #: processor pair that ping-ponged the block
        self.lost: dict[tuple[int, int], tuple[int, int, int]] = {}
        #: block -> {word_index: (writer, time)}
        self.write_log: dict[int, dict[int, tuple[int, int]]] = {}
        self.time = 0
        self.invalidations = 0
        self.writebacks = 0
        self.upgrades = 0
        #: preallocated per-processor miss counts; row = pid + 1 (row 0
        #: is the serial parent), columns = cold/replace/true/false
        self._proc_counts = np.zeros((nprocs + 1, 4), dtype=np.int64)
        self._pids_seen: list[int] = []
        #: per-block accounting, folded into columns once by result():
        #: block -> misses, block -> FS misses, and
        #: (block, invalidating writer, missing proc) -> FS misses
        self.block_misses: dict[int, int] = {}
        self.block_fs: dict[int, int] = {}
        self.fs_pairs: dict[tuple[int, int, int], int] = {}
        self.refs = 0

    # -- accounting views ---------------------------------------------------------

    @property
    def misses(self) -> MissCounts:
        """Aggregate miss counts across processors."""
        total = self._proc_counts.sum(axis=0)
        return MissCounts(
            int(total[_COLD]), int(total[_REPLACE]),
            int(total[_TRUE]), int(total[_FALSE]),
        )

    @property
    def per_proc(self) -> PerProcCounts:
        return PerProcCounts(self._proc_counts, tuple(self._pids_seen))

    def _cache(self, proc: int) -> Cache:
        c = self.caches.get(proc)
        if c is None:
            c = self.caches[proc] = Cache(self.config)
            self._pids_seen.append(proc)
            if proc + 1 >= len(self._proc_counts):
                grown = np.zeros((proc + 2, 4), dtype=np.int64)
                grown[: len(self._proc_counts)] = self._proc_counts
                self._proc_counts = grown
        return c

    # -- core access ------------------------------------------------------------

    def access(self, proc: int, addr: int, size: int, is_write: bool) -> None:
        """Simulate one reference (split across blocks if it straddles)."""
        bs = self.config.block_size
        span = max(size, 1)
        first = addr // bs
        last = (addr + span - 1) // bs
        for block in range(first, last + 1):
            lo = max(addr, block * bs)
            hi = min(addr + span, (block + 1) * bs)
            self._access_block(
                proc, block, lo // WORD, (hi + WORD - 1) // WORD, is_write
            )

    def _access_block(
        self, proc: int, block: int, w_lo: int, w_hi: int, is_write: bool,
        rep: int = 1,
    ) -> None:
        """Apply one pre-split event; ``rep`` advances the reference
        counter and clock by a full compacted run first."""
        self.refs += rep
        self.time += rep
        cache = self._cache(proc)
        state = cache.state(block)
        if state == INVALID:
            self._miss(proc, cache, block, w_lo, w_hi, is_write)
        elif self.word_invalidate and self._touches_stale(proc, block, w_lo, w_hi):
            # word-granularity mode: the block is resident but a word
            # this access needs was remotely overwritten — genuine
            # communication, never false sharing
            self._proc_counts[proc + 1, _TRUE] += 1
            self.block_misses[block] = self.block_misses.get(block, 0) + 1
            self.stale_words.pop((proc, block), None)  # refetch refreshes
            cache.touch(block)
            if is_write:
                self._invalidate_others(proc, block, w_lo, w_hi)
                cache.set_state(block, MODIFIED)
        else:
            cache.touch(block)
            if is_write and state == SHARED:
                self._invalidate_others(proc, block, w_lo, w_hi)
                cache.set_state(block, MODIFIED)
                self.upgrades += 1
            elif is_write and state == EXCLUSIVE:
                # MESI silent upgrade: no other cache holds the block,
                # so no invalidation broadcast and no upgrade
                # transaction is needed
                cache.set_state(block, MODIFIED)
            elif is_write and self.word_invalidate:
                # word mode: several caches may hold dirty copies with
                # disjoint dirty words; every write pushes word
                # invalidations to the other holders
                self._invalidate_others(proc, block, w_lo, w_hi)
        if is_write:
            self._log_write(proc, block, w_lo, w_hi)

    def _touches_stale(self, proc: int, block: int, w_lo: int, w_hi: int) -> bool:
        stale = self.stale_words.get((proc, block))
        if not stale:
            return False
        return any(w in stale for w in range(w_lo, w_hi))

    def _log_write(self, proc: int, block: int, w_lo: int, w_hi: int) -> None:
        log = self.write_log.setdefault(block, {})
        entry = (proc, self.time)
        for w in range(w_lo, w_hi):
            log[w] = entry

    def _classify(self, proc: int, block: int, w_lo: int, w_hi: int) -> int:
        key = (proc, block)
        if key not in self.ever:
            return _COLD
        cause, t_lost, _by = self.lost.get(key, (_EVICT, 0, _NO_PROC))
        if cause == _EVICT:
            return _REPLACE
        log = self.write_log.get(block)
        if log:
            for w in range(w_lo, w_hi):
                entry = log.get(w)
                # >= : the write that caused the invalidation is logged at
                # exactly t_lost and is true communication.
                if entry is not None and entry[1] >= t_lost and entry[0] != proc:
                    return _TRUE
        return _FALSE

    def _miss(
        self, proc: int, cache: Cache, block: int,
        w_lo: int, w_hi: int, is_write: bool,
    ) -> None:
        kind = self._classify(proc, block, w_lo, w_hi)
        self._proc_counts[proc + 1, kind] += 1
        if kind == _FALSE:
            self.block_fs[block] = self.block_fs.get(block, 0) + 1
            # FALSE implies the copy was lost to an invalidation, so the
            # loss record names the writer: attribute the ping-pong pair.
            key = (block, self.lost[(proc, block)][2], proc)
            self.fs_pairs[key] = self.fs_pairs.get(key, 0) + 1
        self.block_misses[block] = self.block_misses.get(block, 0) + 1
        self.ever.add((proc, block))
        self.stale_words.pop((proc, block), None)  # a fill refreshes all words
        if is_write:
            self._invalidate_others(proc, block, w_lo, w_hi)
            new_state = MODIFIED
        else:
            # demote a remote MODIFIED copy to SHARED (writeback); under
            # MESI a remote EXCLUSIVE copy also demotes, but clean — no
            # writeback
            others_valid = False
            for other in self.sharers.get(block, ()):  # at most one M/E holder
                oc = self.caches.get(other)
                if oc is None or other == proc:
                    continue
                ostate = oc.state(block)
                if ostate == MODIFIED:
                    oc.set_state(block, SHARED)
                    self.writebacks += 1
                    others_valid = True
                elif ostate == EXCLUSIVE:
                    oc.set_state(block, SHARED)
                    others_valid = True
                elif ostate != INVALID:
                    others_valid = True
            # MESI: a read miss with no other valid holder installs E
            new_state = EXCLUSIVE if self.mesi and not others_valid else SHARED
        victim = cache.insert(block, new_state)
        self.sharers.setdefault(block, set()).add(proc)
        if victim is not None:
            vblock, vstate = victim
            if vstate == MODIFIED:
                self.writebacks += 1
            self.lost[(proc, vblock)] = (_EVICT, self.time, _NO_PROC)
            holders = self.sharers.get(vblock)
            if holders is not None:
                holders.discard(proc)

    def _invalidate_others(
        self, proc: int, block: int,
        w_lo: int | None = None, w_hi: int | None = None,
    ) -> None:
        holders = self.sharers.get(block)
        if not holders:
            return
        if self.word_invalidate and w_lo is not None and w_hi is not None:
            words = set(range(w_lo, w_hi))
            for other in list(holders):
                if other == proc:
                    continue
                oc = self.caches.get(other)
                if oc is None or oc.state(block) == INVALID:
                    holders.discard(other)
                    continue
                # per-word invalidation: the copy stays resident, only
                # the written words go stale
                self.stale_words.setdefault((other, block), set()).update(words)
                self.invalidations += 1
            return
        for other in list(holders):
            if other == proc:
                continue
            oc = self.caches.get(other)
            if oc is None:
                continue
            state = oc.invalidate(block)
            if state != INVALID:
                self.invalidations += 1
                if state == MODIFIED:
                    self.writebacks += 1
                self.lost[(other, block)] = (_INVAL, self.time, proc)
            holders.discard(other)

    # -- driver -------------------------------------------------------------------

    def result(self, extra_refs: int = 0, *, sim_seconds: float = 0.0,
               engine: str = "reference") -> SimResult:
        bm = self.block_misses
        pairs = np.array(list(self.fs_pairs), dtype=np.int64).reshape(-1, 3)
        return SimResult(
            config=self.config,
            nprocs=self.nprocs,
            refs=self.refs,
            misses=self.misses,
            invalidations=self.invalidations,
            writebacks=self.writebacks,
            upgrades=self.upgrades,
            per_proc=self.per_proc,
            blocks=BlockMisses.of(
                list(bm), list(bm.values()),
                [self.block_fs.get(b, 0) for b in bm],
            ),
            pairs=FSPairs.of(*pairs.T, list(self.fs_pairs.values())),
            extra_refs=extra_refs,
            sim_seconds=sim_seconds,
            engine=engine,
        )


def simulate_trace(
    trace: Trace,
    nprocs: int,
    config: CacheConfig,
    *,
    extra_refs: int = 0,
    word_invalidate: bool = False,
) -> SimResult:
    """Run the **reference** coherence simulation over a frozen trace,
    one reference at a time.

    ``extra_refs`` adds untraced (always-hit private) references to the
    miss-rate denominator, matching how the paper's miss rates are
    normalized to all memory references.  ``word_invalidate`` switches
    to the Dubois et al. [DSR+93] per-word invalidation hardware.

    The vectorized fast path lives in
    :func:`repro.sim.engine.simulate_events`; this function remains the
    ground truth it is validated against.
    """
    import time as _time

    t0 = _time.perf_counter()
    sim = CoherenceSim(nprocs, config, word_invalidate=word_invalidate)
    access = sim.access
    for proc, addr, size, is_write in trace:
        access(proc, addr, size, is_write)
    return sim.result(
        extra_refs=extra_refs,
        sim_seconds=_time.perf_counter() - t0,
        engine="reference",
    )
