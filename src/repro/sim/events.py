"""Vectorized trace-to-event precomputation for the fast simulation path.

The reference simulator (:func:`repro.sim.coherence.simulate_trace`)
does per-reference Python arithmetic: block split of straddling
accesses, byte→block and byte→word index math, one method call per
reference.  This module moves *all* of that arithmetic into numpy,
producing a columnar :class:`EventStream` of pre-split
``(proc, block, word_lo, word_hi, is_write)`` events the coherence
protocol can consume directly.

On top of the split, consecutive events that provably cannot change the
coherence state (MSI or MESI), the LRU order, or the per-word write log
are run-length compacted: each kept event carries a ``repeat`` count
that advances the simulator's reference counter and logical clock by
the full run, so the simulation output stays **bit-identical** to the
reference path.

Compaction rules
----------------

An event is folded into its immediate predecessor when both touch the
same ``(proc, block)`` — i.e. the two references are adjacent in the
*global interleaved* trace, so no other process can intervene — and:

* **read after anything** (block-invalidate mode): the block is
  resident and MRU after the predecessor, so the read is a guaranteed
  hit with no protocol side effects;
* **write after a write to the same words** (block-invalidate mode):
  the block is MODIFIED after the first write, so the second only
  re-logs the same words at a later clock value — unobservable, because
  no other process's loss timestamp can land between two adjacent
  events of the same process;
* **read after a read of the same words** (word-invalidate mode): the
  predecessor either verified those words fresh or refetched the block,
  so the repeat cannot touch a stale word.

Writes are never folded in word-invalidate mode — there every write
pushes per-word invalidations (and bumps the invalidation counter) to
every other holder, which a folded event would miss.

This is exactly the traffic the spin-synchronization and array-walk
idioms generate (barrier probes, lock test-and-test-and-set, sequential
sweeps within a block), which is why compaction removes a large
fraction of simulated events on the lock-heavy workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import perf
from repro.runtime.trace import Trace

#: Word granularity of the write log (bytes) — keep in sync with
#: :data:`repro.sim.coherence.WORD`.
WORD = 4


@dataclass(slots=True, eq=False)
class EventStream:
    """Pre-split, optionally compacted, columnar event stream for one
    (trace, block size) pair."""

    block_size: int
    #: True when compaction used the word-invalidate-safe rules only
    word_granularity: bool
    proc: np.ndarray      # int64
    block: np.ndarray     # int64
    w_lo: np.ndarray      # int64, inclusive word index
    w_hi: np.ndarray      # int64, exclusive word index
    is_write: np.ndarray  # bool
    repeat: np.ndarray    # int64, >= 1
    #: total underlying block accesses (== the reference path's ``refs``)
    n_refs: int

    def __len__(self) -> int:
        return len(self.block)

    def slice(self, start: int, stop: int) -> "EventStream":
        """A zero-copy view of events ``[start:stop)`` (``n_refs`` is
        recomputed from the slice's repeat counts)."""
        rep = self.repeat[start:stop]
        return EventStream(
            block_size=self.block_size,
            word_granularity=self.word_granularity,
            proc=self.proc[start:stop],
            block=self.block[start:stop],
            w_lo=self.w_lo[start:stop],
            w_hi=self.w_hi[start:stop],
            is_write=self.is_write[start:stop],
            repeat=rep,
            n_refs=int(rep.sum()),
        )


def build_events(
    trace: Trace,
    block_size: int,
    *,
    word_granularity: bool = False,
    compact: bool = True,
) -> EventStream:
    """Precompute the split event stream of ``trace`` at ``block_size``.

    ``word_granularity`` selects the conservative compaction rules that
    stay bit-identical under ``word_invalidate=True`` simulation.
    """
    with perf.timer("events.build"):
        return _build(trace, block_size, word_granularity, compact)


def _empty_stream(bs: int, word_granularity: bool) -> EventStream:
    empty = np.empty(0, dtype=np.int64)
    return EventStream(
        block_size=bs, word_granularity=word_granularity,
        proc=empty, block=empty, w_lo=empty, w_hi=empty,
        is_write=np.empty(0, dtype=bool), repeat=empty, n_refs=0,
    )


def _split_columns(proc_col, addr_col, size_col, write_col, bs: int):
    """Vectorized block split of raw trace columns into pre-split event
    columns ``(proc, block, w_lo, w_hi, is_write)``."""
    n = len(addr_col)
    addr = addr_col.astype(np.int64, copy=False)
    size = np.maximum(size_col.astype(np.int64, copy=False), 1)
    end = addr + size
    first = addr // bs
    last = (end - 1) // bs
    extra = last - first

    if extra.any():
        # Expand straddling references into one event per touched block.
        reps = extra + 1
        total = int(reps.sum())
        idx = np.repeat(np.arange(n, dtype=np.int64), reps)
        group_start = np.cumsum(reps) - reps
        within = np.arange(total, dtype=np.int64) - np.repeat(group_start, reps)
        block = first[idx] + within
        lo = np.maximum(addr[idx], block * bs)
        hi = np.minimum(end[idx], (block + 1) * bs)
        proc = proc_col[idx].astype(np.int64, copy=False)
        is_write = write_col[idx]
    else:
        block = first
        lo = addr
        hi = end
        proc = proc_col.astype(np.int64, copy=False)
        is_write = np.asarray(write_col, dtype=bool)

    w_lo = lo // WORD
    w_hi = (hi + WORD - 1) // WORD
    return proc, block, w_lo, w_hi, is_write


def _drop_mask(proc, block, w_lo, w_hi, is_write, word_granularity: bool):
    """``drop[i]`` marks event ``i + 1`` foldable into event ``i``
    (see the module docstring for the compaction rules)."""
    same_pb = (proc[1:] == proc[:-1]) & (block[1:] == block[:-1])
    same_words = (w_lo[1:] == w_lo[:-1]) & (w_hi[1:] == w_hi[:-1])
    wr_cur = is_write[1:]
    wr_prev = is_write[:-1]
    if word_granularity:
        return same_pb & same_words & ~wr_cur & ~wr_prev
    return same_pb & (~wr_cur | (wr_prev & same_words))


def _build(
    trace: Trace, bs: int, word_granularity: bool, compact: bool
) -> EventStream:
    if len(trace) == 0:
        return _empty_stream(bs, word_granularity)

    proc, block, w_lo, w_hi, is_write = _split_columns(
        trace.proc, trace.addr, trace.size, trace.is_write, bs
    )

    m = len(block)
    perf.add("events.split_refs", m)
    if not compact or m < 2:
        repeat = np.ones(m, dtype=np.int64)
        return EventStream(
            block_size=bs, word_granularity=word_granularity,
            proc=proc, block=block, w_lo=w_lo, w_hi=w_hi,
            is_write=is_write, repeat=repeat, n_refs=m,
        )

    drop = _drop_mask(proc, block, w_lo, w_hi, is_write, word_granularity)
    keep = np.empty(m, dtype=bool)
    keep[0] = True
    np.logical_not(drop, out=keep[1:])
    kept = np.flatnonzero(keep)
    repeat = np.diff(np.append(kept, m))
    perf.add("events.compacted_refs", m - len(kept))
    return EventStream(
        block_size=bs, word_granularity=word_granularity,
        proc=proc[kept], block=block[kept],
        w_lo=w_lo[kept], w_hi=w_hi[kept],
        is_write=is_write[kept], repeat=repeat, n_refs=m,
    )
