"""Metamorphic / invariant checks for the coherence simulators.

Every property here is something the paper's miss classification makes
*provable*, independent of which program produced the trace:

* **word-granularity kills false sharing** — at 4-byte (one-word)
  blocks every invalidation that causes a later miss must have written
  the very word missed on, so the miss classifies as true sharing;
  ``false_sharing == 0`` whenever ``block_size == WORD``;
* **miss classes partition the misses** — cold + replace + true +
  false equals the total, per processor and in aggregate, and the
  per-block / per-pair breakdowns re-sum to the class totals;
* **false sharing is conserved per block** — each block's pair counts
  sum to its false-sharing count, the pair blocks are exactly the
  blocks with false sharing, and no processor falsely shares with
  itself;
* **cold misses count first touches** — exactly one cold miss per
  distinct (processor, block) pair referenced in the trace;
* **engine equivalence** — the vectorized fast engine and the
  reference simulator agree event-for-event on every counter;
* **schedule independence** — two executions of the same program under
  different schedules (round-robin vs randomized work stealing, or two
  steal seeds) must emit the same *write profile*: the multiset of
  (address, size) write references.  Every write the generated
  programs perform — data stores, lock test-and-set and release,
  barrier-arrival RMWs — happens a schedule-invariant number of times;
  only spin-probe *reads* vary with the interleaving, which is why the
  profile counts writes, not references.  When the program is
  additionally race-free (:func:`repro.verify.progen
  .is_schedule_deterministic`), its output, exit value, and hence
  final shared state must match too.

Violations are returned as plain strings (empty list = all good) so
the fuzzer can fold them into a verdict alongside the oracle's.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.trace import RunResult, Trace
from repro.sim.coherence import WORD, CacheConfig, SimResult, simulate_trace
from repro.sim.engine import simulate_trace_fast

#: Block sizes exercised per generated program (word-size block first —
#: that one carries the FS==0 proof obligation).
DEFAULT_BLOCK_SIZES = (4, 32, 128)


def distinct_proc_blocks(trace: Trace, block_size: int) -> int:
    """Number of distinct (processor, block) pairs the trace touches,
    counting every block a straddling reference spills into."""
    if len(trace) == 0:
        return 0
    addr = trace.addr.astype(np.int64)
    proc = trace.proc.astype(np.int64)
    size = trace.size.astype(np.int64)
    lo = addr // block_size
    hi = (addr + size - 1) // block_size
    pairs = {p for p in zip(proc.tolist(), lo.tolist())}
    span = hi > lo
    if span.any():
        for p, a, b in zip(
            proc[span].tolist(), lo[span].tolist(), hi[span].tolist()
        ):
            for blk in range(a, b + 1):
                pairs.add((p, blk))
    return len(pairs)


def _compare_results(a: SimResult, b: SimResult, label: str) -> list[str]:
    """Field-by-field disagreement between two SimResults."""
    out: list[str] = []
    if a.misses.as_tuple() != b.misses.as_tuple():
        out.append(
            f"{label}: miss classes {a.misses.as_tuple()} vs {b.misses.as_tuple()}"
        )
    for name in ("refs", "invalidations", "writebacks", "upgrades"):
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            out.append(f"{label}: {name} {va} vs {vb}")
    pa = {p: a.per_proc[p].as_tuple() for p in a.per_proc}
    pb = {p: b.per_proc[p].as_tuple() for p in b.per_proc}
    if pa != pb:
        diffs = [p for p in pa if pa[p] != pb.get(p)]
        out.append(f"{label}: per-proc misses differ on procs {diffs}")
    for rec in ("blocks", "pairs"):
        ra, rb = getattr(a, rec), getattr(b, rec)
        for name, x, y in zip(ra._fields, ra, rb):
            if not np.array_equal(x, y):
                out.append(f"{label}: {rec}.{name} differs")
    return out


def check_result_internal(res: SimResult, trace: Trace, label: str) -> list[str]:
    """Self-consistency of one simulation result."""
    out: list[str] = []
    m = res.misses
    if m.total != m.cold + m.replace + m.true_sharing + m.false_sharing:
        out.append(f"{label}: miss classes do not sum to total")
    agg = [0, 0, 0, 0]
    for p in res.per_proc:  # includes pid -1, the serial parent
        for i, v in enumerate(res.per_proc[p].as_tuple()):
            agg[i] += v
    if tuple(agg) != m.as_tuple():
        out.append(
            f"{label}: per-proc misses sum to {tuple(agg)}, global {m.as_tuple()}"
        )
    blocks, pairs = res.blocks, res.pairs
    if int(blocks.misses.sum()) != m.total:
        out.append(f"{label}: block miss counts do not sum to total misses")
    if int(blocks.false_sharing.sum()) != m.false_sharing:
        out.append(f"{label}: block FS counts do not sum to false_sharing")
    # false sharing is conserved per block (so the pairs sum to the total)
    shared = blocks.false_sharing > 0
    pair_blocks, first = np.unique(pairs.block, return_index=True)
    if not np.array_equal(pair_blocks, blocks.block[shared]):
        out.append(f"{label}: the pair blocks are not the blocks with FS")
    elif len(first) and not np.array_equal(
        np.add.reduceat(pairs.count, first), blocks.false_sharing[shared]
    ):
        out.append(f"{label}: pair counts do not sum to their block's FS")
    if (pairs.writer == pairs.misser).any():
        out.append(f"{label}: a false-sharing pair's writer is its misser")
    if res.config.block_size == WORD and m.false_sharing != 0:
        out.append(
            f"{label}: {m.false_sharing} false-sharing misses at "
            f"{WORD}-byte blocks (must be 0)"
        )
    expect_cold = distinct_proc_blocks(trace, res.config.block_size)
    if m.cold != expect_cold:
        out.append(
            f"{label}: cold misses {m.cold}, distinct (proc, block) "
            f"pairs {expect_cold}"
        )
    return out


def check_trace(
    trace: Trace,
    nprocs: int,
    *,
    block_sizes: tuple[int, ...] = DEFAULT_BLOCK_SIZES,
    cache_size: int = 32 * 1024,
    assoc: int = 4,
) -> list[str]:
    """Run every simulator invariant over one trace.

    For each block size the trace is simulated by both engines; the two
    results must agree with each other and each must satisfy the
    classification invariants.
    """
    violations: list[str] = []
    for bs in block_sizes:
        config = CacheConfig(size=cache_size, block_size=bs, assoc=assoc)
        ref = simulate_trace(trace, nprocs, config)
        fast = simulate_trace_fast(trace, nprocs, config)
        label = f"bs={bs}"
        violations += _compare_results(ref, fast, f"{label} fast-vs-reference")
        violations += check_result_internal(ref, trace, f"{label} reference")
        violations += check_result_internal(fast, trace, f"{label} fast")
    return violations


# ---------------------------------------------------------------------------
# Schedule independence
# ---------------------------------------------------------------------------

#: Cap on per-address diffs carried in one violation message.
_PROFILE_DIFF_LIMIT = 6


def write_profile(trace: Trace) -> dict[tuple[int, int], int]:
    """Multiset of (address, size) **write** references in a trace.

    The schedule decides which processor issues each write and in what
    order, but never whether it happens: data stores are in the
    program, and the synchronization writes (lock TAS on acquire, the
    release store, the barrier-arrival RMW) occur exactly once per
    acquire/release/arrival.  Spin probes — the only schedule-varying
    traffic — are reads, so they are excluded by construction.
    """
    if len(trace) == 0:
        return {}
    w = np.asarray(trace.is_write, dtype=bool)
    if not w.any():
        return {}
    pairs = np.stack(
        [trace.addr[w], trace.size[w].astype(np.int64)], axis=1
    )
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    return {
        (int(a), int(s)): int(c)
        for (a, s), c in zip(uniq.tolist(), counts.tolist())
    }


def _describe_addr(addr: int, regions) -> str:
    if regions is None:
        return f"{addr:#x}"
    try:
        return f"{addr:#x} ({regions.name_of(addr)})"
    except Exception:
        return f"{addr:#x}"


def check_schedule_independence(
    base: RunResult,
    other: RunResult,
    *,
    deterministic: bool,
    label: str = "sched",
    regions=None,
) -> list[str]:
    """Metamorphic comparison of two runs of one program under two
    schedules (same source, same layout, same nprocs).

    Always required: identical write profiles — see
    :func:`write_profile`.  When ``deterministic`` (the program is
    race-free, so every schedule reaches the same final state):
    identical output and exit value.  The generated programs print
    checksums of every shared global after the join, so the output
    comparison doubles as a final-shared-state comparison.

    ``regions`` (a :class:`~repro.layout.regions.RegionMap`, optional)
    turns raw addresses in violation messages into structure names.
    """
    out: list[str] = []
    pa, pb = write_profile(base.trace), write_profile(other.trace)
    if pa != pb:
        diffs = []
        for key in sorted(set(pa) | set(pb)):
            ca, cb = pa.get(key, 0), pb.get(key, 0)
            if ca != cb:
                diffs.append((key, ca, cb))
        shown = ", ".join(
            f"{_describe_addr(a, regions)}+{s}: {ca} vs {cb}"
            for (a, s), ca, cb in diffs[:_PROFILE_DIFF_LIMIT]
        )
        more = len(diffs) - _PROFILE_DIFF_LIMIT
        out.append(
            f"{label}: write profile differs at {len(diffs)} addresses "
            f"[{shown}{f', +{more} more' if more > 0 else ''}]"
        )
    if deterministic:
        if base.output != other.output:
            out.append(
                f"{label}: output differs "
                f"({base.output!r} vs {other.output!r}) on a race-free "
                "program"
            )
        if base.exit_value != other.exit_value:
            out.append(
                f"{label}: exit value {base.exit_value!r} vs "
                f"{other.exit_value!r} on a race-free program"
            )
    return out
