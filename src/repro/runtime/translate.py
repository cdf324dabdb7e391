"""Translated runs: one interpretation serves every indirection-free layout.

Group & transpose, pad & align and lock (or record) padding only move
data; only indirection changes the code's references.  The restricted
model makes "only move" exact:

* the checker forbids pointer arithmetic and lets pointers compare only
  with ``==``/``!=``, so an address never reaches a branch, an index or
  a stored value except through an equality a one-to-one relabelling
  preserves;
* scheduling points are statement boundaries, and the steal scheduler's
  RNG consumes only spawn and blocking order
  (:mod:`repro.runtime.stealing`), so the interleaving, the per-process
  work and private-reference counts and the phase marks do not depend on
  where data lives.

So a run under layout B is the run under layout A with every traced
address relabelled.  :func:`translate_run` takes the distinct traced
addresses of A's run, turns each into logical coordinates with
:meth:`~repro.layout.datalayout.DataLayout.locate`, materializes those
coordinates in B and applies the result as one gather.  The heap
segments are rebuilt by replaying the allocation sequence with B's sizes
through the one heap-placement rule
(:meth:`~repro.layout.datalayout.DataLayout.heap_place`) the interpreter
allocates with.  Every other :class:`RunResult` field is copied.

:func:`run_program` keeps the first interpreted run of an
indirection-free layout on the :class:`CheckedProgram` (as a
:class:`Source`) and translates every later indirection-free layout
with the same (nprocs, quantum, max_steps, schedule) from it.  It
interprets instead — counting ``interp.translate_fallback`` and
``interp.translate_fallback.<reason>`` — when :class:`Untranslatable`
names one of :data:`FALLBACK_REASONS`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.lang import astnodes as A
from repro.lang import ctypes as T
from repro.lang.checker import CheckedProgram
from repro.layout.datalayout import HEAP_BASE, DataLayout, HeapObject, Location
from repro.runtime.trace import RunResult, Trace

#: Why a run could not be translated (the counter-name suffixes):
#:
#: * ``pointer_print`` — the program prints a pointer-typed value, so
#:   its output names addresses;
#: * ``address_of`` — the program takes an address other than as the
#:   argument of ``lock``/``unlock``; indexing such a pointer steps by
#:   the element size, not by the layout's stride;
#: * ``overlap`` — a layout has overlapping objects (only
#:   ``REPRO_VERIFY_BREAK=pad_align`` builds one);
#: * ``unmapped`` — a traced address maps to no object or field;
#: * ``not_injective`` — the target map is not one-to-one on the traced
#:   addresses;
#: * ``unknown_heap_type`` — a heap label names a type no ``alloc`` site
#:   of the program allocates.
FALLBACK_REASONS = (
    "pointer_print",
    "address_of",
    "overlap",
    "unmapped",
    "not_injective",
    "unknown_heap_type",
)


#: What a source keeps after its first translation: the distinct traced
#: addresses in ascending order, the coordinates of each, and each
#: allocation's (type, element count).
Located = tuple[np.ndarray, list[Location], list[tuple[T.CType, int]]]


class Untranslatable(Exception):
    """Translation does not apply; ``reason`` is one of
    :data:`FALLBACK_REASONS`."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _program_facts(checked: CheckedProgram) -> tuple[dict[str, T.CType], Optional[str]]:
    """(heap label -> allocated type, the reason no run of the program
    can be translated or None), from one walk over the AST."""
    heap_types: dict[str, T.CType] = {}
    lock_args: set[int] = set()
    exprs: list[A.Expr] = []
    for node in [*checked.program.globals, *(f.body for f in checked.program.funcs)]:
        exprs.extend(A.walk_exprs(node))
    blocker: Optional[str] = None
    for e in exprs:
        if isinstance(e, A.Call) and e.name in ("lock", "unlock"):
            lock_args.update(id(a) for a in e.args)
        elif isinstance(e, A.Call) and e.name == "print":
            if any(isinstance(a.ty, T.PointerType) for a in e.args):
                blocker = "pointer_print"
        elif isinstance(e, A.Alloc) and e.elem_type is not None:
            heap_types[f"heap:{e.type_name}"] = e.elem_type
    if blocker is None and any(
        isinstance(e, A.UnOp) and e.op == "&" and id(e) not in lock_args
        for e in exprs
    ):
        blocker = "address_of"
    return heap_types, blocker


class Source:
    """An interpreted run kept as the translation source for one
    program at one (nprocs, quantum, max_steps, schedule).

    It keeps the run's plan, not its layout: a layout holds the compiled
    program, which holds this source, and that cycle would keep every
    pass's runs alive until the cyclic collector ran.  Nothing is
    computed until the first translation; the traced addresses are then
    located once and reused for every target layout.
    """

    __slots__ = ("plan", "block_size", "nprocs", "run", "_located")

    def __init__(self, layout: DataLayout, run: RunResult):
        self.plan = layout.plan
        self.block_size = layout.block_size
        self.nprocs = layout.nprocs
        self.run = run
        self._located: Optional[Located] = None

    def located(self, checked: CheckedProgram) -> Located:
        """The run's traced addresses located in its own layout; raises
        :class:`Untranslatable` when they cannot be."""
        if self._located is None:
            self._located = self._locate(checked)
        return self._located

    def _locate(self, checked: CheckedProgram) -> Located:
        heap_types, blocker = _program_facts(checked)
        if blocker is not None:
            raise Untranslatable(blocker)
        layout = DataLayout(
            checked, self.plan, block_size=self.block_size, nprocs=self.nprocs
        )
        if layout.overlapping():
            raise Untranslatable("overlap")
        heap: list[HeapObject] = []
        for addr, size, label in self.run.heap_segments:
            ty = heap_types.get(label)
            if ty is None:
                raise Untranslatable("unknown_heap_type")
            heap.append((addr, size, ty))
        uniq = np.unique(self.run.trace.addr)
        locs: list[Location] = []
        for addr in uniq.tolist():
            loc = layout.locate(addr, heap)
            if loc is None:
                raise Untranslatable("unmapped")
            locs.append(loc)
        allocs = [(ty, size // layout.sizeof(ty)) for _, size, ty in heap]
        return uniq, locs, allocs


def translate_run(source: Source, target: DataLayout) -> RunResult:
    """The run ``source`` would have produced under ``target`` (an
    indirection-free layout of the same program); raises
    :class:`Untranslatable` when that cannot be shown exactly."""
    uniq, locs, allocs = source.located(target.checked)
    if target.overlapping():
        raise Untranslatable("overlap")
    target_heap: list[HeapObject] = []
    cursor = HEAP_BASE
    for ty, count in allocs:
        addr, size = target.heap_place(cursor, ty, count)
        target_heap.append((addr, size, ty))
        cursor = addr + size
    mapped = np.fromiter(
        (target.address(loc, target_heap) for loc in locs),
        dtype=np.int64,
        count=len(locs),
    )
    if len(np.unique(mapped)) != len(mapped):
        raise Untranslatable("not_injective")
    run = source.run
    return RunResult(
        trace=Trace(
            proc=run.trace.proc,
            addr=mapped[np.searchsorted(uniq, run.trace.addr)],
            size=run.trace.size,
            is_write=run.trace.is_write,
        ),
        nprocs=run.nprocs,
        work=dict(run.work),
        private_refs=dict(run.private_refs),
        shared_refs=dict(run.shared_refs),
        output=list(run.output),
        exit_value=run.exit_value,
        heap_segments=[
            (addr, size, label)
            for (addr, size, _), (_, _, label) in zip(target_heap, run.heap_segments)
        ],
        sched=None if run.sched is None else dict(run.sched),
        phase_marks=list(run.phase_marks),
    )
