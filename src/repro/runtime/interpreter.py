"""The SPMD interpreter: executes restricted parallel-C programs on P
logical processors and emits the memory-reference trace.

Semantics
---------

* globals are shared; locals/params are per-process (private stack);
* ``create(f, e)`` spawns a worker; ``wait_for_end()`` joins; workers
  synchronize with ``barrier()`` and ``lock``/``unlock``;
* scheduling is deterministic round-robin at statement granularity
  (see :mod:`repro.runtime.scheduler`);
* every shared reference goes through the
  :class:`~repro.layout.datalayout.DataLayout`, so running the same
  program under the unoptimized and transformed layouts produces exactly
  the address streams the two program versions would generate —
  including the indirection transformation's extra pointer loads and the
  spin traffic of contended locks.

Indirection protocol
--------------------

For a field the plan moved to per-process arenas, the record holds a
pointer cell (the adjusted struct layout re-types the field).  On first
access the accessing process installs an arena slot; a record first
touched by the serial parent (main) is *migrated* to the first worker
that touches it — modelling the per-process setup code the
source-to-source compiler emits (see DESIGN.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import RuntimeFault, SourceLocation
from repro.lang import astnodes as A
from repro.lang import ctypes as T
from repro.lang.checker import CheckedProgram
from repro.layout.datalayout import (
    BARRIER_ADDR,
    HEAP_BASE,
    DataLayout,
)
from repro.runtime.builtins import PURE_IMPLS
from repro.runtime.scheduler import Proc, Scheduler
from repro.runtime.stealing import SchedConfig, StealScheduler, resolve_sched
from repro.runtime.trace import RunResult, TraceBuffer

#: Private (per-process stack) storage starts here; anything below is shared.
PRIVATE_BASE = 0x1_0000_0000
PRIVATE_STRIDE = 0x0100_0000

_POINTER_SIZE = 8


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


@dataclass(slots=True)
class StaticPlace:
    """An lvalue still expressed as (global, concrete steps); resolved to
    an address through the layout only when accessed, so transformed
    layouts apply."""

    base: str
    steps: list
    ty: T.CType


@dataclass(slots=True)
class RawPlace:
    """An lvalue at a known address (through pointers or private data)."""

    addr: int
    ty: T.CType


Place = StaticPlace | RawPlace


def _default_for(ty: T.CType):
    if isinstance(ty, T.DoubleType):
        return 0.0
    return 0


class Interpreter:
    """One program execution at one process count under one layout."""

    def __init__(
        self,
        checked: CheckedProgram,
        layout: DataLayout,
        nprocs: int,
        *,
        quantum: int = 4,
        max_steps: int = 200_000_000,
        sched: SchedConfig | None = None,
    ):
        self.checked = checked
        self.layout = layout
        self.nprocs = nprocs
        self.mem: dict[int, object] = {}
        self.trace = TraceBuffer()
        #: execution model: None resolves REPRO_SCHED/_SEED/_GRAIN
        self.sched_config = sched if sched is not None else resolve_sched()
        if self.sched_config.kind == "steal":
            self.sched: Scheduler = StealScheduler(
                nprocs,
                seed=self.sched_config.seed,
                grain=self.sched_config.grain,
                quantum=quantum,
                max_steps=max_steps,
            )
        else:
            self.sched = Scheduler(quantum=quantum, max_steps=max_steps)
        #: trace indices of barrier releases (phase boundaries): the
        #: number of references emitted before each release.
        self.phase_marks: list[int] = []
        self.sched.on_barrier_release = lambda: self.phase_marks.append(
            len(self.trace)
        )
        self.heap_cursor = HEAP_BASE
        self.arena_cursors: dict[int, int] = {}
        #: pointer-cell addr -> owning pid (indirection bookkeeping)
        self.indirect_owner: dict[int, int] = {}
        self.output: list[str] = []
        self.exit_value: Optional[int] = None
        #: (addr, size, label) for alloc()ed objects, for miss attribution
        self.heap_segments: list[tuple[int, int, str]] = []
        self._spawned = 0
        self._procs_by_pid: dict[int, Proc] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        main_proc = Proc(pid=-1)
        main_proc.priv_cursor = PRIVATE_BASE
        main_proc.gen = self._main_gen(main_proc)
        self.sched.add(main_proc)
        self._procs_by_pid[-1] = main_proc
        self.sched.run()
        return RunResult(
            trace=self.trace.freeze(),
            nprocs=self.nprocs,
            work={p.pid: p.work for p in self.sched.procs},
            private_refs={p.pid: p.private_refs for p in self.sched.procs},
            shared_refs={p.pid: p.shared_refs for p in self.sched.procs},
            output=self.output,
            exit_value=self.exit_value,
            heap_segments=list(self.heap_segments),
            sched=self.sched.stats(),
            phase_marks=list(self.phase_marks),
        )

    def _main_gen(self, proc: Proc) -> Iterator:
        main = self.checked.symtab.funcs["main"].defn
        try:
            yield from self._call_function(proc, main, [])
        except _Return as r:  # pragma: no cover - _call_function catches
            self.exit_value = r.value

    # ------------------------------------------------------------------
    # memory primitives
    # ------------------------------------------------------------------

    def _ref(self, proc: Proc, addr: int, size: int, is_write: bool) -> None:
        if addr >= PRIVATE_BASE:
            proc.private_refs += 1
        else:
            proc.shared_refs += 1
            self.trace.append(proc.cpu, addr, size, is_write)

    def _load_raw(self, proc: Proc, addr: int, ty: T.CType):
        self._ref(proc, addr, self._scalar_size(ty), False)
        return self.mem.get(addr, _default_for(ty))

    def _store_raw(self, proc: Proc, addr: int, ty: T.CType, value) -> None:
        self._ref(proc, addr, self._scalar_size(ty), True)
        self.mem[addr] = value

    @staticmethod
    def _scalar_size(ty: T.CType) -> int:
        if isinstance(ty, (T.ArrayType, T.StructType)):  # pragma: no cover
            return 8
        return ty.size

    # ------------------------------------------------------------------
    # places
    # ------------------------------------------------------------------

    def _materialize(self, place: Place) -> tuple[int, T.CType]:
        if isinstance(place, RawPlace):
            return place.addr, place.ty
        addr, ty = self.layout.materialize(place.base, place.steps)
        return addr, ty

    def _load_place(self, proc: Proc, place: Place):
        addr, ty = self._materialize(place)
        return self._load_raw(proc, addr, ty)

    # ------------------------------------------------------------------
    # lvalue evaluation (generators: calls inside indices may synchronize)
    # ------------------------------------------------------------------

    def _eval_place(self, proc: Proc, frame: dict, e: A.Expr) -> Iterator:
        """Yield-driven evaluation of an lvalue to a Place (generator
        *returns* the Place)."""
        proc.work += 1
        if isinstance(e, A.Ident):
            sym = self.checked.symtab.ident_symbols.get(id(e))
            if sym is not None and sym.is_shared:
                return StaticPlace(e.name, [], sym.type)
            cell = frame.get(e.name)
            if cell is None:
                raise RuntimeFault(f"unbound local {e.name!r}", e.loc)
            return RawPlace(cell[0], cell[1])
        if isinstance(e, A.Index):
            base = yield from self._eval_place(proc, frame, e.base)
            idx = yield from self._eval(proc, frame, e.index)
            idx = int(idx)
            bty = base.ty
            if isinstance(bty, T.ArrayType):
                if not (0 <= idx < bty.dims[0]):
                    raise RuntimeFault(
                        f"index {idx} out of bounds [0, {bty.dims[0]}) ", e.loc
                    )
                inner = (
                    T.ArrayType(bty.elem, bty.dims[1:])
                    if len(bty.dims) > 1
                    else bty.elem
                )
                if isinstance(base, StaticPlace):
                    return StaticPlace(
                        base.base, base.steps + [("idx", idx)], inner
                    )
                return RawPlace(
                    base.addr + idx * self.layout.sizeof(inner), inner
                )
            if isinstance(bty, T.PointerType):
                ptr = self._load_place(proc, base)
                self._check_ptr(ptr, e)
                target = bty.target
                return RawPlace(
                    int(ptr) + idx * self.layout.sizeof(target), target
                )
            raise RuntimeFault(f"cannot index {bty}", e.loc)  # pragma: no cover
        if isinstance(e, A.Member):
            base = yield from self._eval_place(proc, frame, e.base)
            if e.arrow:
                ptr = self._load_place(proc, base)
                self._check_ptr(ptr, e)
                bty = base.ty
                assert isinstance(bty, T.PointerType)
                struct = bty.target
                assert isinstance(struct, T.StructType)
                base = RawPlace(int(ptr), struct)
            else:
                struct = base.ty
                assert isinstance(struct, T.StructType)
            return self._apply_field(proc, base, struct, e.name, e)
        if isinstance(e, A.UnOp) and e.op == "*":
            base = yield from self._eval_place(proc, frame, e.operand)
            ptr = self._load_place(proc, base)
            self._check_ptr(ptr, e)
            bty = base.ty
            assert isinstance(bty, T.PointerType)
            return RawPlace(int(ptr), bty.target)
        raise RuntimeFault(
            f"not an lvalue: {type(e).__name__}", e.loc
        )  # pragma: no cover - checker rejects

    def _check_ptr(self, ptr, e: A.Expr) -> None:
        if not ptr:
            raise RuntimeFault("null pointer dereference", e.loc)

    def _apply_field(
        self, proc: Proc, place: Place, struct: T.StructType, fname: str, e: A.Expr
    ) -> Place:
        fld = self.layout.field_of(struct.name, fname)
        if self.layout.is_indirected(struct.name, fname):
            base_addr, _ = self._materialize(place)
            cell = base_addr + fld.offset
            assert isinstance(fld.type, T.PointerType)
            orig_ty = fld.type.target
            slot = self.mem.get(cell, 0)
            self._ref(proc, cell, _POINTER_SIZE, False)  # pointer load
            if not slot:
                slot = self._arena_alloc(proc.pid, orig_ty, struct.name, fname)
                self.mem[cell] = slot
                self.indirect_owner[cell] = proc.pid
                self._ref(proc, cell, _POINTER_SIZE, True)
            elif (
                proc.pid >= 0
                and self.indirect_owner.get(cell) == -1
            ):
                # migrate from main's staging arena to this worker's arena
                new_slot = self._arena_alloc(
                    proc.pid, orig_ty, struct.name, fname
                )
                value = self._load_raw(proc, int(slot), orig_ty)
                self._store_raw(proc, new_slot, orig_ty, value)
                self.mem[cell] = new_slot
                self.indirect_owner[cell] = proc.pid
                self._ref(proc, cell, _POINTER_SIZE, True)
                slot = new_slot
            return RawPlace(int(slot), orig_ty)
        if isinstance(place, StaticPlace):
            return StaticPlace(place.base, place.steps + [("field", fname)], fld.type)
        return RawPlace(place.addr + fld.offset, fld.type)

    def _arena_alloc(
        self, pid: int, ty: T.CType, struct_name: str, field_name: str
    ) -> int:
        key = (pid, struct_name, field_name)
        cursor = self.arena_cursors.get(key)
        if cursor is None:
            cursor = self.layout.arena_region(pid, struct_name, field_name)
        size = self.layout.sizeof(ty)
        align = max(self.layout.alignof(ty), 1)
        cursor = (cursor + align - 1) // align * align
        self.arena_cursors[key] = cursor + size
        return cursor

    # ------------------------------------------------------------------
    # expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, proc: Proc, frame: dict, e: A.Expr) -> Iterator:
        proc.work += 1
        if isinstance(e, A.IntLit):
            return e.value
        if isinstance(e, A.FloatLit):
            return e.value
        if isinstance(e, (A.Ident, A.Index, A.Member)):
            place = yield from self._eval_place(proc, frame, e)
            return self._load_place(proc, place)
        if isinstance(e, A.BinOp):
            return (yield from self._eval_binop(proc, frame, e))
        if isinstance(e, A.UnOp):
            if e.op == "-":
                v = yield from self._eval(proc, frame, e.operand)
                return -v
            if e.op == "!":
                v = yield from self._eval(proc, frame, e.operand)
                return 0 if v else 1
            if e.op == "*":
                place = yield from self._eval_place(proc, frame, e)
                return self._load_place(proc, place)
            if e.op == "&":
                place = yield from self._eval_place(proc, frame, e.operand)
                addr, _ = self._materialize(place)
                return addr
        if isinstance(e, A.Call):
            return (yield from self._eval_call(proc, frame, e))
        if isinstance(e, A.Alloc):
            count = 1
            if e.count is not None:
                count = int((yield from self._eval(proc, frame, e.count)))
                if count < 0:
                    raise RuntimeFault("negative alloc_array count", e.loc)
            return self._alloc_obj(e, count)
        raise RuntimeFault(f"cannot evaluate {type(e).__name__}", e.loc)  # pragma: no cover

    def _alloc_obj(self, e: A.Alloc, count: int) -> int:
        assert e.elem_type is not None
        addr, size = self.layout.heap_place(self.heap_cursor, e.elem_type, count)
        self.heap_cursor = addr + size
        self.heap_segments.append((addr, size, f"heap:{e.type_name}"))
        return addr

    def _eval_binop(self, proc: Proc, frame: dict, e: A.BinOp) -> Iterator:
        op = e.op
        if op == "&&":
            left = yield from self._eval(proc, frame, e.left)
            if not left:
                return 0
            right = yield from self._eval(proc, frame, e.right)
            return 1 if right else 0
        if op == "||":
            left = yield from self._eval(proc, frame, e.left)
            if left:
                return 1
            right = yield from self._eval(proc, frame, e.right)
            return 1 if right else 0
        a = yield from self._eval(proc, frame, e.left)
        b = yield from self._eval(proc, frame, e.right)
        return self._binop_value(e.op, a, b, e.ty, e.loc)

    @staticmethod
    def _binop_value(op: str, a, b, ty: T.CType, loc: SourceLocation):
        """Strict (non-short-circuit) binary arithmetic of a ``BinOp`` or
        a compound assignment; ``ty`` is the result type (``/`` truncates
        toward zero on ints)."""
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise RuntimeFault("division by zero", loc)
            if isinstance(ty, T.IntType):
                q = abs(a) // abs(b)
                return q if (a >= 0) == (b >= 0) else -q
            return a / b
        if op == "%":
            if b == 0:
                raise RuntimeFault("modulo by zero", loc)
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            return a - q * b
        if op == "==":
            return 1 if a == b else 0
        if op == "!=":
            return 1 if a != b else 0
        if op == "<":
            return 1 if a < b else 0
        if op == "<=":
            return 1 if a <= b else 0
        if op == ">":
            return 1 if a > b else 0
        if op == ">=":
            return 1 if a >= b else 0
        raise RuntimeFault(f"unknown operator {op!r}", loc)  # pragma: no cover

    # ------------------------------------------------------------------
    # calls and synchronization
    # ------------------------------------------------------------------

    def _eval_call(self, proc: Proc, frame: dict, e: A.Call) -> Iterator:
        name = e.name
        impl = PURE_IMPLS.get(name)
        if impl is not None:
            args = []
            for a in e.args:
                args.append((yield from self._eval(proc, frame, a)))
            return impl(*args)
        if name == "nprocs":
            return self.nprocs
        if name == "print":
            parts = []
            for a in e.args:
                parts.append(str((yield from self._eval(proc, frame, a))))
            self.output.append(" ".join(parts))
            return None
        if name == "barrier":
            yield from self._builtin_barrier(proc)
            return None
        if name == "lock":
            yield from self._builtin_lock(proc, frame, e.args[0], acquire=True)
            return None
        if name == "unlock":
            yield from self._builtin_lock(proc, frame, e.args[0], acquire=False)
            return None
        if name == "create":
            pid_val = yield from self._eval(proc, frame, e.args[1])
            target = e.args[0]
            assert isinstance(target, A.Ident)
            self._spawn(target.name, int(pid_val))
            return None
        if name == "wait_for_end":
            yield from self._builtin_join(proc)
            return None
        fsym = self.checked.symtab.funcs.get(name)
        if fsym is None:  # pragma: no cover - checker rejects
            raise RuntimeFault(f"unknown function {name!r}", e.loc)
        args = []
        for a in e.args:
            args.append((yield from self._eval(proc, frame, a)))
        return (yield from self._call_function(proc, fsym.defn, args))

    def _spawn(self, func_name: str, pid_val: int) -> None:
        fn = self.checked.symtab.funcs[func_name].defn
        # cpu starts at pid (owner-computes); only the stealing
        # scheduler ever moves it, so rr traces are unchanged.
        worker = Proc(pid=pid_val, cpu=pid_val)
        worker.priv_cursor = PRIVATE_BASE + (pid_val + 2) * PRIVATE_STRIDE
        worker.gen = self._worker_gen(worker, fn, pid_val)
        self.sched.add(worker)
        self._procs_by_pid[pid_val] = worker
        self._spawned += 1

    def _worker_gen(self, proc: Proc, fn: A.FuncDef, arg: int) -> Iterator:
        yield  # first step happens under the scheduler, not at spawn time
        yield from self._call_function(proc, fn, [arg])

    def _builtin_barrier(self, proc: Proc) -> Iterator:
        # arrive: RMW on the barrier word
        self._ref(proc, BARRIER_ADDR, 8, False)
        self._ref(proc, BARRIER_ADDR, 8, True)
        gen = self.sched.barrier_arrive(proc.pid)
        while self.sched.barrier_generation == gen:
            proc.blocked_on = ("barrier", gen)
            yield
            proc.blocked_on = None
            if self.sched.barrier_generation == gen:
                self._ref(proc, BARRIER_ADDR, 8, False)  # spin probe
        # observe the release
        self._ref(proc, BARRIER_ADDR, 8, False)

    def _builtin_lock(
        self, proc: Proc, frame: dict, arg: A.Expr, acquire: bool
    ) -> Iterator:
        if isinstance(arg, A.UnOp) and arg.op == "&":
            place = yield from self._eval_place(proc, frame, arg.operand)
            addr, _ = self._materialize(place)
        else:
            addr = int((yield from self._eval(proc, frame, arg)))
        if not acquire:
            owner = self.sched.locks.get(addr)
            if owner != proc.pid:
                raise RuntimeFault(
                    f"unlock of lock at {addr:#x} not held by pid {proc.pid}"
                )
            del self.sched.locks[addr]
            self._ref(proc, addr, 8, True)
            return
        while True:
            owner = self.sched.locks.get(addr)
            if owner is None:
                self.sched.locks[addr] = proc.pid
                # test-and-set: read + write
                self._ref(proc, addr, 8, False)
                self._ref(proc, addr, 8, True)
                return
            if owner == proc.pid:
                raise RuntimeFault(f"recursive lock at {addr:#x}")
            self._ref(proc, addr, 8, False)  # contended probe
            proc.blocked_on = ("lock", addr)
            yield
            proc.blocked_on = None

    def _builtin_join(self, proc: Proc) -> Iterator:
        while any(not p.done for p in self.sched.workers()):
            proc.blocked_on = ("join",)
            yield
            proc.blocked_on = None

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _call_function(self, proc: Proc, fn: A.FuncDef, args: list) -> Iterator:
        frame: dict[str, tuple[int, T.CType]] = {}
        for param, value in zip(fn.params, args):
            addr = self._frame_alloc(proc, param.type)
            frame[param.name] = (addr, param.type)
            self.mem[addr] = value
        try:
            yield from self._exec_block(proc, frame, fn.body)
        except _Return as r:
            if fn.name == "main":
                self.exit_value = r.value
            return r.value
        if fn.name == "main":
            self.exit_value = 0
        return _default_for(fn.ret) if not isinstance(fn.ret, T.VoidType) else None

    def _frame_alloc(self, proc: Proc, ty: T.CType) -> int:
        size = max(self.layout.sizeof(ty), 1)
        align = max(self.layout.alignof(ty), 1)
        proc.priv_cursor = (proc.priv_cursor + align - 1) // align * align
        addr = proc.priv_cursor
        proc.priv_cursor += size
        return addr

    def _exec_block(self, proc: Proc, frame: dict, block: A.Block) -> Iterator:
        for stmt in block.body:
            yield from self._exec_stmt(proc, frame, stmt)

    def _exec_stmt(self, proc: Proc, frame: dict, stmt: A.Stmt) -> Iterator:
        yield  # statement boundary: scheduling point
        proc.work += 1
        if isinstance(stmt, A.Block):
            yield from self._exec_block(proc, frame, stmt)
        elif isinstance(stmt, A.VarDecl):
            addr = self._frame_alloc(proc, stmt.type)
            frame[stmt.name] = (addr, stmt.type)
            if stmt.init is not None:
                value = yield from self._eval(proc, frame, stmt.init)
                self.mem[addr] = self._coerce(stmt.type, value)
                proc.private_refs += 1
            else:
                self.mem[addr] = _default_for(stmt.type)
        elif isinstance(stmt, A.Assign):
            yield from self._exec_assign(proc, frame, stmt)
        elif isinstance(stmt, A.ExprStmt):
            yield from self._eval(proc, frame, stmt.expr)
        elif isinstance(stmt, A.If):
            cond = yield from self._eval(proc, frame, stmt.cond)
            if cond:
                yield from self._exec_stmt(proc, frame, stmt.then)
            elif stmt.orelse is not None:
                yield from self._exec_stmt(proc, frame, stmt.orelse)
        elif isinstance(stmt, A.While):
            while True:
                cond = yield from self._eval(proc, frame, stmt.cond)
                if not cond:
                    break
                try:
                    yield from self._exec_stmt(proc, frame, stmt.body)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, A.For):
            if stmt.init is not None:
                yield from self._exec_stmt(proc, frame, stmt.init)
            while True:
                if stmt.cond is not None:
                    cond = yield from self._eval(proc, frame, stmt.cond)
                    if not cond:
                        break
                try:
                    yield from self._exec_stmt(proc, frame, stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.update is not None:
                    yield from self._exec_stmt(proc, frame, stmt.update)
        elif isinstance(stmt, A.Return):
            value = None
            if stmt.value is not None:
                value = yield from self._eval(proc, frame, stmt.value)
            raise _Return(value)
        elif isinstance(stmt, A.Break):
            raise _Break()
        elif isinstance(stmt, A.Continue):
            raise _Continue()
        else:  # pragma: no cover
            raise RuntimeFault(f"cannot execute {type(stmt).__name__}", stmt.loc)

    def _exec_assign(self, proc: Proc, frame: dict, stmt: A.Assign) -> Iterator:
        value = yield from self._eval(proc, frame, stmt.value)
        place = yield from self._eval_place(proc, frame, stmt.target)
        if stmt.op:
            old = self._load_place(proc, place)
            value = self._binop_value(stmt.op, old, value, place.ty, stmt.loc)
        addr, ty = self._materialize(place)
        self._store_raw(proc, addr, ty, self._coerce(ty, value))

    @staticmethod
    def _coerce(ty: T.CType, value):
        if isinstance(ty, T.DoubleType) and isinstance(value, int):
            return float(value)
        return value


def run_program(
    checked: CheckedProgram,
    layout: DataLayout,
    nprocs: int,
    *,
    quantum: int = 4,
    max_steps: int = 200_000_000,
    sched: SchedConfig | None = None,
) -> RunResult:
    """Execute a checked program under ``layout`` with ``nprocs`` worker
    processes and return the trace and counters.

    ``sched`` selects the execution model (round-robin or randomized
    work stealing — see :mod:`repro.runtime.stealing`); None resolves
    the ``REPRO_SCHED`` family of environment knobs.

    The first interpreted run of an indirection-free layout is kept on
    ``checked``; a later indirection-free layout at the same (nprocs,
    quantum, max_steps, schedule) is translated from it instead of
    interpreted (:mod:`repro.runtime.translate`).  ``interp.runs`` and
    ``interp.seconds`` count interpretations, ``interp.translated`` and
    ``interp.translate_fallback`` the two translation outcomes."""
    from repro import perf
    from repro.obs import spans as obs
    from repro.runtime.translate import Source, Untranslatable, translate_run

    sched = sched if sched is not None else resolve_sched()
    key = (nprocs, quantum, max_steps, sched.describe())
    source = None if layout.indirected else checked.run_memo.get(key)
    if source is not None:
        with obs.span("interp.translate", nprocs=nprocs):
            try:
                result = translate_run(source, layout)
            except Untranslatable as exc:
                perf.add("interp.translate_fallback")
                perf.add(f"interp.translate_fallback.{exc.reason}")
            else:
                perf.add("interp.translated")
                return result
    interp = Interpreter(
        checked, layout, nprocs,
        quantum=quantum, max_steps=max_steps, sched=sched,
    )
    t0 = time.perf_counter()
    with obs.span("interp.run", nprocs=nprocs) as sp:
        result = interp.run()
        if sp is not None:
            sp.meta["trace_len"] = len(result.trace)
    perf.add("interp.seconds", time.perf_counter() - t0)
    perf.add("interp.runs")
    if not layout.indirected and key not in checked.run_memo:
        checked.run_memo[key] = Source(layout, result)
    return result
