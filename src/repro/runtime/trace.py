"""Memory reference traces.

The SPMD interpreter plays the role of the paper's inline tracing tool
[EKKL90]: it records every shared-data reference each process makes, in
global interleaved order, as ``(proc, addr, size, is_write)``.  Private
(stack) references are counted but not traced — with 32 KB caches and
the restricted model's tiny frames they are effectively always hits, and
the cache simulator accounts for them in the miss-rate denominator.

Storage is columnar end to end: :class:`TraceBuffer` appends into
compact ``array`` columns (machine ints, not ``PyObject`` lists), and
:meth:`TraceBuffer.freeze` turns them into the immutable numpy-backed
:class:`Trace` with a single buffer copy per column.  The frozen arrays
feed the vectorized event precomputation in :mod:`repro.sim.events`
without any per-reference Python arithmetic.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field

import numpy as np

#: Chunk length used by :meth:`Trace.__iter__` — bounds the transient
#: Python-object materialization to ~4×CHUNK objects instead of 4×len.
_ITER_CHUNK = 65_536


class TraceBuffer:
    """Append-only columnar buffer of shared memory references."""

    __slots__ = ("procs", "addrs", "sizes", "writes")

    def __init__(self):
        self.procs = array("i")
        self.addrs = array("q")
        self.sizes = array("i")
        self.writes = array("b")

    def append(self, proc: int, addr: int, size: int, is_write: bool) -> None:
        self.procs.append(proc)
        self.addrs.append(addr)
        self.sizes.append(size)
        self.writes.append(1 if is_write else 0)

    def __len__(self) -> int:
        return len(self.addrs)

    @property
    def nbytes(self) -> int:
        """Bytes held by the four columns."""
        return sum(
            a.buffer_info()[1] * a.itemsize
            for a in (self.procs, self.addrs, self.sizes, self.writes)
        )

    def freeze(self) -> "Trace":
        # np.frombuffer would alias the (still growable) array buffers;
        # one explicit copy per column detaches the frozen trace.
        return Trace(
            proc=np.frombuffer(self.procs.tobytes(), dtype=np.int32),
            addr=np.frombuffer(self.addrs.tobytes(), dtype=np.int64),
            size=np.frombuffer(self.sizes.tobytes(), dtype=np.int32),
            is_write=np.frombuffer(self.writes.tobytes(), dtype=np.int8).view(
                np.bool_
            ),
        )


@dataclass(slots=True, eq=False)
class Trace:
    """An immutable trace as parallel numpy arrays."""

    proc: np.ndarray
    addr: np.ndarray
    size: np.ndarray
    is_write: np.ndarray
    #: lazily computed content hash (see :meth:`fingerprint`)
    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.addr)

    def __iter__(self):
        # Chunked: near-``tolist`` speed without materializing four
        # full-length Python lists per iteration.
        n = len(self.addr)
        for start in range(0, n, _ITER_CHUNK):
            stop = min(start + _ITER_CHUNK, n)
            yield from zip(
                self.proc[start:stop].tolist(),
                self.addr[start:stop].tolist(),
                self.size[start:stop].tolist(),
                self.is_write[start:stop].tolist(),
            )

    @property
    def nbytes(self) -> int:
        """Bytes held by the four columns (memory reporting)."""
        return (
            self.proc.nbytes
            + self.addr.nbytes
            + self.size.nbytes
            + self.is_write.nbytes
        )

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the trace.

        Used as the memoization key for simulation results and event
        streams: two traces with the same fingerprint produce identical
        simulations at every cache geometry.
        """
        fp = self._fingerprint
        if fp is None:
            h = hashlib.sha1()
            h.update(str(len(self.addr)).encode())
            for arr in (self.proc, self.addr, self.size, self.is_write):
                h.update(np.ascontiguousarray(arr).tobytes())
            fp = self._fingerprint = h.hexdigest()
        return fp


@dataclass(slots=True)
class RunResult:
    """Everything produced by one SPMD execution."""

    trace: Trace
    nprocs: int
    #: per-process interpreted-operation counts (compute cost proxy)
    work: dict[int, int]
    #: per-process counts of untraced private references
    private_refs: dict[int, int]
    #: per-process shared reference counts
    shared_refs: dict[int, int]
    #: lines collected from print()
    output: list[str] = field(default_factory=list)
    #: main's return value
    exit_value: int | None = None
    #: (addr, size, label) of heap allocations, for miss attribution
    heap_segments: list[tuple[int, int, str]] = field(default_factory=list)
    #: scheduling counters (:meth:`Scheduler.stats`): None under the
    #: deterministic round-robin, a dict with steal/migration counts
    #: under randomized work stealing
    sched: dict | None = None
    #: trace indices at which a barrier released: reference ``i`` with
    #: ``phase_marks[k-1] <= i < phase_marks[k]`` executed in phase ``k``.
    #: Empty for barrier-free programs.
    phase_marks: list[int] = field(default_factory=list)
