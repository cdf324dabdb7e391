"""The SPMD interpreter: executes restricted parallel-C programs on P
logical processors and emits the memory-reference trace.

Semantics
---------

* globals are shared; locals/params are per-process (private stack),
  keyed by declaration, not name, so a block's ``int x`` shadows only there;
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

Lowering
--------

On its first call in a run, each function is lowered into closures
bound to the run's memory, trace, layout and scheduler (see
docs/PERFORMANCE.md, "The lowered interpreter").  Only statements and
the expression nodes on a path to a yielding call are generators; every
statement yields once at its boundary (the scheduling point) and every
evaluated AST node counts one unit of ``proc.work``.

Indirection protocol
--------------------

For a field the plan moved to per-process arenas, the record holds a
pointer cell (the adjusted struct layout re-types the field).  On first
access the accessing process installs an arena slot; a record first
touched by the serial parent (main) is *migrated* to the first worker
that touches it — modelling the per-process setup code the
source-to-source compiler emits (see DESIGN.md and
:meth:`Interpreter._lower_field`).
"""

from __future__ import annotations

import operator
import time
from typing import Iterator, NamedTuple, Optional

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

#: statement signals; a ``return`` is the 1-tuple of its value
_BREAK = object()
_CONTINUE = object()


def _default_for(ty: T.CType):
    return 0.0 if isinstance(ty, T.DoubleType) else 0


def _scalar_size(ty: T.CType) -> int:
    return 8 if isinstance(ty, (T.ArrayType, T.StructType)) else ty.size


def _oob(idx: int, dim: int, loc: SourceLocation) -> RuntimeFault:
    return RuntimeFault(f"index {idx} out of bounds [0, {dim})", loc)


def _gen_node(combine, *children):
    """A generator node: evaluates the ``(fn, gen)`` children in order,
    then returns ``combine(proc, *values)``."""

    def gen(p, fr):
        vals = []
        for fn, g in children:
            vals.append((yield from fn(p, fr)) if g else fn(p, fr))
        return combine(p, *vals)

    return gen


def _local_addr(sym, loc: SourceLocation):
    key, name = id(sym), sym.name
    def fn(p, fr):
        try:
            return fr[key]
        except KeyError:
            raise RuntimeFault(f"unbound local {name!r}", loc) from None

    return fn


class _Place(NamedTuple):
    """A lowered lvalue.  ``kind`` is "static" (the global ``target``
    reached through ``steps``: ``("field", name)``, ``("idx", n)``, or
    ``("idx", (fn, gen, dim, loc))`` for an index computed at run time),
    "local" (the local or parameter symbol ``target``) or "raw" (``target`` is
    a closure returning the address).  Only a static place is known to
    lie below :data:`PRIVATE_BASE` before it is resolved."""

    kind: str
    target: object
    steps: list
    ty: T.CType
    #: AST nodes every resolution visits
    work: int
    #: whether resolving it can yield
    gen: bool
    loc: Optional[SourceLocation] = None


#: the strict binary operators but ``/`` and ``%``, on values (a
#: comparison gives 1 or 0) ...
_STRICT = {
    "-": operator.sub, "*": operator.mul, "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
#: ... and as closure factories over the operand closures
_BINOPS = {
    "+": lambda L, R: lambda p, fr: L(p, fr) + R(p, fr),
    "-": lambda L, R: lambda p, fr: L(p, fr) - R(p, fr),
    "*": lambda L, R: lambda p, fr: L(p, fr) * R(p, fr),
    "==": lambda L, R: lambda p, fr: 1 if L(p, fr) == R(p, fr) else 0,
    "!=": lambda L, R: lambda p, fr: 1 if L(p, fr) != R(p, fr) else 0,
    "<": lambda L, R: lambda p, fr: 1 if L(p, fr) < R(p, fr) else 0,
    "<=": lambda L, R: lambda p, fr: 1 if L(p, fr) <= R(p, fr) else 0,
    ">": lambda L, R: lambda p, fr: 1 if L(p, fr) > R(p, fr) else 0,
    ">=": lambda L, R: lambda p, fr: 1 if L(p, fr) >= R(p, fr) else 0,
}


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
        #: number of references emitted before each release.  The hook
        #: holds the list and the buffer, not the interpreter, so that a
        #: finished run is freed by refcount.
        self.phase_marks: list[int] = []
        marks, trace = self.phase_marks, self.trace
        self.sched.on_barrier_release = lambda: marks.append(len(trace))
        self.heap_cursor = HEAP_BASE
        self.arena_cursors: dict[int, int] = {}
        #: pointer-cell addr -> owning pid (indirection bookkeeping)
        self.indirect_owner: dict[int, int] = {}
        self.output: list[str] = []
        self.exit_value: Optional[int] = None
        #: (addr, size, label) for alloc()ed objects, for miss attribution
        self.heap_segments: list[tuple[int, int, str]] = []
        #: function name -> lowered function, filled on first call and
        #: emptied when the run ends (call sites and bodies refer to
        #: each other through it)
        self._funcs: dict[str, object] = {}
        self._emit = (
            trace.procs.append, trace.addrs.append,
            trace.sizes.append, trace.writes.append,
        )

    # -- public API --------------------------------------------------------

    def run(self) -> RunResult:
        main_proc = Proc(pid=-1)
        main_proc.priv_cursor = PRIVATE_BASE
        main_proc.gen = self._main_gen(main_proc)
        self.sched.add(main_proc)
        try:
            self.sched.run()
        finally:
            self._funcs.clear()
            for p in self.sched.procs:
                p.gen = None
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
        yield from self._function("main")(proc, [])

    # -- memory primitives -------------------------------------------------

    def _ref(self, proc: Proc, addr: int, size: int, is_write: bool) -> None:
        if addr >= PRIVATE_BASE:
            proc.private_refs += 1
        else:
            proc.shared_refs += 1
            self.trace.append(proc.cpu, addr, size, is_write)

    def _loader(self, ty: T.CType):
        """``ld(proc, addr)``: one load of a ``ty`` scalar."""
        mem, size, dflt = self.mem, _scalar_size(ty), _default_for(ty)
        pa, aa, sa, wa = self._emit

        def ld(p, a):
            if a >= PRIVATE_BASE:
                p.private_refs += 1
            else:
                p.shared_refs += 1
                pa(p.cpu); aa(a); sa(size); wa(0)
            return mem.get(a, dflt)

        return ld

    def _storer(self, ty: T.CType):
        """``st(proc, addr, value)``: one store of a ``ty`` scalar (an
        int stored to a double is converted)."""
        mem, size, dbl = self.mem, _scalar_size(ty), isinstance(ty, T.DoubleType)
        pa, aa, sa, wa = self._emit

        def st(p, a, v):
            if a >= PRIVATE_BASE:
                p.private_refs += 1
            else:
                p.shared_refs += 1
                pa(p.cpu); aa(a); sa(size); wa(1)
            mem[a] = float(v) if dbl and isinstance(v, int) else v

        return st

    # -- places ------------------------------------------------------------

    def _lower_place(self, e: A.Expr) -> _Place:
        if isinstance(e, A.Ident):
            sym = self.checked.symtab.ident_symbols.get(id(e))
            if sym is not None and sym.is_shared:
                return _Place("static", e.name, [], sym.type, 1, False)
            return _Place("local", sym, [], sym.type, 1, False, e.loc)
        if isinstance(e, A.Index):
            base = self._lower_place(e.base)
            I, wi, gi = self._lower_expr(e.index)
            bty, work, gen, loc = base.ty, 1 + base.work + wi, base.gen or gi, e.loc
            if isinstance(bty, T.PointerType):
                return self._deref(base, e, work, bty.target, I, gi)
            if not isinstance(bty, T.ArrayType):  # pragma: no cover
                raise RuntimeFault(f"cannot index {bty}", loc)
            dim = bty.dims[0]
            inner = T.ArrayType(bty.elem, bty.dims[1:]) if len(bty.dims) > 1 else bty.elem
            if base.kind == "static":
                const = isinstance(e.index, A.IntLit) and 0 <= e.index.value < dim
                step = e.index.value if const else (I, gi, dim, loc)
                steps = base.steps + [("idx", step)]
                return base._replace(steps=steps, ty=inner, work=work, gen=gen)
            B, esize = self._realize(base)[0], self.layout.sizeof(inner)

            def index(p, a, i):
                i = int(i)
                if not 0 <= i < dim:
                    raise _oob(i, dim, loc)
                return a + i * esize

            fn = _gen_node(index, (B, base.gen), (I, gi)) if gen else (
                lambda p, fr: index(p, B(p, fr), I(p, fr)))
            return _Place("raw", fn, None, inner, work, gen)
        if isinstance(e, A.Member):
            base = self._lower_place(e.base)
            work = 1 + base.work
            if e.arrow:
                struct = base.ty.target
                base = self._deref(base, e, work, struct)
            else:
                struct = base.ty
                base = base._replace(work=work)
            return self._lower_field(base, struct, e.name)
        if isinstance(e, A.UnOp) and e.op == "*":
            base = self._lower_place(e.operand)
            return self._deref(base, e, 1 + base.work, base.ty.target)
        raise RuntimeFault(f"not an lvalue: {type(e).__name__}", e.loc)  # pragma: no cover

    def _deref(self, base: _Place, e, work: int, target, I=None, gi=False) -> _Place:
        """The ``target`` that the pointer at ``base`` points to, ``I``
        elements on: the base place first, then the index, then the
        pointer load."""
        B, ty, _, bgen, _ = self._realize(base)
        ld, loc = self._loader(ty), e.loc
        tsize = self.layout.sizeof(target) if I is not None else 0

        def deref(p, a, i=0):
            i = int(i)
            ptr = ld(p, a)
            if not ptr:
                raise RuntimeFault("null pointer dereference", loc)
            return int(ptr) + i * tsize

        gen = bgen or gi
        if gen:
            fn = _gen_node(deref, (B, bgen), *([(I, gi)] if I is not None else []))
        elif I is None:
            fn = lambda p, fr: deref(p, B(p, fr))  # noqa: E731
        else:
            fn = lambda p, fr: deref(p, B(p, fr), I(p, fr))  # noqa: E731
        return _Place("raw", fn, None, target, work, gen)

    def _lower_field(self, base: _Place, struct: T.StructType, fname: str) -> _Place:
        """Field ``fname`` of the ``struct`` at ``base``.  An indirected
        field loads its pointer cell, then installs an arena slot on
        first touch (a cell write) or migrates main's slot to the first
        worker that touches it (slot load, slot store, cell write), and
        addresses the slot."""
        fld = self.layout.field_of(struct.name, fname)
        indirected = self.layout.is_indirected(struct.name, fname)
        if base.kind == "static" and not indirected:
            return base._replace(steps=base.steps + [("field", fname)], ty=fld.type)
        B, off = self._realize(base)[0], fld.offset
        if not indirected:
            fn = _gen_node(lambda p, a: a + off, (B, True)) if base.gen else (
                lambda p, fr: B(p, fr) + off)
            return _Place("raw", fn, None, fld.type, base.work, base.gen)
        assert isinstance(fld.type, T.PointerType)
        ty = fld.type.target
        size, dflt = _scalar_size(ty), _default_for(ty)
        mem, owner, ref = self.mem, self.indirect_owner, self._ref
        arena_alloc, key = self._arena_alloc, (struct.name, fname)

        def slot_of(p, base_addr):
            cell = base_addr + off
            slot = mem.get(cell, 0)
            ref(p, cell, _POINTER_SIZE, False)  # pointer load
            if not slot:
                slot = arena_alloc(p.pid, ty, *key)
                mem[cell] = slot
                owner[cell] = p.pid
                ref(p, cell, _POINTER_SIZE, True)
            elif p.pid >= 0 and owner.get(cell) == -1:
                # migrate from main's staging arena to this worker's arena
                new_slot = arena_alloc(p.pid, ty, *key)
                ref(p, int(slot), size, False)
                value = mem.get(int(slot), dflt)
                ref(p, new_slot, size, True)
                mem[new_slot] = value
                mem[cell] = new_slot
                owner[cell] = p.pid
                ref(p, cell, _POINTER_SIZE, True)
                slot = new_slot
            return int(slot)

        fn = _gen_node(slot_of, (B, True)) if base.gen else (
            lambda p, fr: slot_of(p, B(p, fr)))
        return _Place("raw", fn, None, ty, base.work, base.gen)

    def _realize(self, place: _Place) -> tuple:
        """(fn, ty, work, gen, const) of a place: ``fn(proc,
        frame)`` returns its address (a generator returning it when
        ``gen``); ``const`` is the address when it never changes."""
        if place.kind == "raw":
            fn, const, ty = place.target, None, place.ty
        elif place.kind == "local":
            fn, const, ty = _local_addr(place.target, place.loc), None, place.ty
        else:
            fn, const, ty = self._static_resolver(place.target, place.steps)
        return fn, ty, place.work, place.gen, const

    def _static_resolver(self, base: str, steps: list) -> tuple:
        """(fn, const, ty) for the global ``base`` reached through
        ``steps``, lowered onto its placement (``layout.lower``):
        ``const`` for a constant path; otherwise each run-time index is
        bounds-checked as it is evaluated, in source order, and the
        address is ``const + Σ i·stride`` (through the member's table
        for a group member)."""
        m = self.layout.lower(base, steps)
        levels = [v for kind, v in steps if kind == "idx" and isinstance(v, tuple)]
        if not levels:
            addr = m.at()
            return (lambda p, fr: addr), addr, m.ty
        at = m.at
        if any(gen for _, gen, _, _ in levels):
            def checked(I, gen, dim, loc):
                def check(p, i):
                    if not 0 <= int(i) < dim:
                        raise _oob(int(i), dim, loc)
                    return int(i)
                return _gen_node(check, (I, gen))

            fn = _gen_node(lambda p, *js: at(js), *((checked(*lv), True) for lv in levels))
            return fn, None, m.ty
        const, table, flat = m.const, m.table, m.flat
        if len(levels) == 1:
            I, _, dim, loc = levels[0]
            (s,) = m.strides or (0,)
            if table is None:
                def fn(p, fr):
                    i = int(I(p, fr))
                    if not 0 <= i < dim:
                        raise _oob(i, dim, loc)
                    return const + i * s
            else:
                (f,) = m.flat_strides or (0,)

                def fn(p, fr):
                    i = int(I(p, fr))
                    if not 0 <= i < dim:
                        raise _oob(i, dim, loc)
                    return table[flat + i * f] + const + i * s
            return fn, None, m.ty

        def fn(p, fr):
            js = []
            for I, _, dim, loc in levels:
                i = int(I(p, fr))
                if not 0 <= i < dim:
                    raise _oob(i, dim, loc)
                js.append(i)
            return at(js)
        return fn, None, m.ty

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

    # -- expressions -------------------------------------------------------

    def _lower_expr(self, e: A.Expr) -> tuple:
        """(fn, work, gen): ``fn(proc, frame)`` returns the value (a
        generator returning it when ``gen``); ``work`` counts the nodes
        every evaluation visits."""
        if isinstance(e, (A.IntLit, A.FloatLit)):
            v = e.value
            return (lambda p, fr: v), 1, False
        if isinstance(e, (A.Ident, A.Index, A.Member)) or (
            isinstance(e, A.UnOp) and e.op == "*"
        ):
            fn, work, gen = self._lower_load(self._lower_place(e))
            return fn, 1 + work, gen
        if isinstance(e, A.BinOp):
            return self._lower_binop(e)
        if isinstance(e, A.UnOp) and e.op == "&":
            fn, _, work, gen, _ = self._realize(self._lower_place(e.operand))
            return fn, 1 + work, gen
        if isinstance(e, A.UnOp) and e.op in ("-", "!"):
            X, work, gen = self._lower_expr(e.operand)
            op = (lambda p, v: -v) if e.op == "-" else (lambda p, v: 0 if v else 1)
            fn = _gen_node(op, (X, True)) if gen else (lambda p, fr: op(p, X(p, fr)))
            return fn, 1 + work, gen
        if isinstance(e, A.Call):
            fn, work, gen = self._lower_call(e)
            return fn, 1 + work, gen
        if isinstance(e, A.Alloc):
            alloc = self._alloc_obj
            if e.count is None:
                return (lambda p, fr: alloc(e, 1)), 1, False
            C, work, gen = self._lower_expr(e.count)

            def sized(p, count):
                count = int(count)
                if count < 0:
                    raise RuntimeFault("negative alloc_array count", e.loc)
                return alloc(e, count)

            if gen:
                return _gen_node(sized, (C, True)), 1 + work, True
            return (lambda p, fr: sized(p, C(p, fr))), 1 + work, False
        raise RuntimeFault(f"cannot evaluate {type(e).__name__}", e.loc)  # pragma: no cover

    def _lower_load(self, place: _Place) -> tuple:
        """(fn, work, gen) loading the scalar at ``place``."""
        mem, dflt = self.mem, _default_for(place.ty)
        if place.kind == "local":
            key, name, loc = id(place.target), place.target.name, place.loc

            def fn(p, fr):
                try:
                    a = fr[key]
                except KeyError:
                    raise RuntimeFault(f"unbound local {name!r}", loc) from None
                p.private_refs += 1
                return mem.get(a, dflt)
            return fn, place.work, False
        B, ty, work, gen, const = self._realize(place)
        if gen:
            return _gen_node(self._loader(ty), (B, True)), work, True
        if place.kind != "static":
            ld = self._loader(ty)
            return (lambda p, fr: ld(p, B(p, fr))), work, False
        size, dflt = _scalar_size(ty), _default_for(ty)
        pa, aa, sa, wa = self._emit
        def fn(p, fr):
            a = B(p, fr) if const is None else const
            p.shared_refs += 1
            pa(p.cpu); aa(a); sa(size); wa(0)
            return mem.get(a, dflt)
        return fn, work, False

    def _lower_binop(self, e: A.BinOp) -> tuple:
        L, wl, gl = self._lower_expr(e.left)
        R, wr, gr = self._lower_expr(e.right)
        op, gen = e.op, gl or gr
        if op in ("&&", "||"):
            # the right operand's nodes count only when it is evaluated
            stop = op == "||"
            if gen:
                def fn(p, fr):
                    if bool((yield from L(p, fr)) if gl else L(p, fr)) is stop:
                        return int(stop)
                    p.work += wr
                    return 1 if ((yield from R(p, fr)) if gr else R(p, fr)) else 0
            else:
                def fn(p, fr):
                    if bool(L(p, fr)) is stop:
                        return int(stop)
                    p.work += wr
                    return 1 if R(p, fr) else 0
            return fn, 1 + wl, gen
        binop, ty, loc = self._binop_value, e.ty, e.loc
        if gen:
            fn = _gen_node(lambda p, a, b: binop(op, a, b, ty, loc), (L, gl), (R, gr))
        elif op not in _BINOPS:
            fn = lambda p, fr: binop(op, L(p, fr), R(p, fr), ty, loc)  # noqa: E731
        else:
            fn = _BINOPS[op](L, R)
        return fn, 1 + wl + wr, gen

    def _alloc_obj(self, e: A.Alloc, count: int) -> int:
        assert e.elem_type is not None
        addr, size = self.layout.heap_place(self.heap_cursor, e.elem_type, count)
        self.heap_cursor = addr + size
        self.heap_segments.append((addr, size, f"heap:{e.type_name}"))
        return addr

    @staticmethod
    def _binop_value(op: str, a, b, ty: T.CType, loc: SourceLocation):
        """Strict (non-short-circuit) binary arithmetic of a ``BinOp`` or
        a compound assignment; ``ty`` is the result type (``/`` truncates
        toward zero on ints)."""
        if op == "+":
            return a + b
        if op not in ("/", "%"):
            v = _STRICT[op](a, b)
            return int(v) if isinstance(v, bool) else v
        if b == 0:
            raise RuntimeFault(("division" if op == "/" else "modulo") + " by zero", loc)
        if op == "/" and not isinstance(ty, T.IntType):
            return a / b
        q = abs(a) // abs(b)
        q = q if (a >= 0) == (b >= 0) else -q
        return q if op == "/" else a - q * b

    # -- calls and synchronization -----------------------------------------

    def _lower_call(self, e: A.Call) -> tuple:
        """(fn, work, gen) of a call, without the call node's own unit."""
        name, loc = e.name, e.loc
        if name == "nprocs":
            n = self.nprocs
            return (lambda p, fr: n), 0, False
        if name in ("barrier", "wait_for_end"):
            return (self._barrier if name == "barrier" else self._join), 0, True
        if name in ("lock", "unlock"):
            return self._lower_lock(e)
        if name == "create":
            V, work, gen = self._lower_expr(e.args[1])
            spawn, target = self._spawn, e.args[0].name
            if gen:
                return _gen_node(lambda p, v: spawn(target, int(v)), (V, True)), work, True
            return (lambda p, fr: spawn(target, int(V(p, fr)))), work, False
        args = [self._lower_expr(a) for a in e.args]
        work, gen = sum(w for _, w, _ in args), any(g for _, _, g in args)
        kids, fns = [(f, g) for f, _, g in args], [f for f, _, _ in args]
        impl = PURE_IMPLS.get(name)
        if name == "print":
            out = self.output.append
            impl = lambda *vals: out(" ".join(map(str, vals)))  # noqa: E731
        if impl is not None:
            if gen:
                fn = _gen_node(lambda p, *vals: impl(*vals), *kids)
            elif len(fns) == 1:
                f0 = fns[0]
                fn = lambda p, fr: impl(f0(p, fr))  # noqa: E731
            else:
                fn = lambda p, fr: impl(*[f(p, fr) for f in fns])  # noqa: E731
            return fn, work, gen
        if name not in self.checked.symtab.funcs:  # pragma: no cover - checker rejects
            raise RuntimeFault(f"unknown function {name!r}", loc)
        funcs, function = self._funcs, self._function
        vals = _gen_node(lambda p, *vals: list(vals), *kids) if gen else None

        def fn(p, fr):
            args = (yield from vals(p, fr)) if gen else [f(p, fr) for f in fns]
            return (yield from (funcs.get(name) or function(name))(p, args))
        return fn, work, True

    def _lower_lock(self, e: A.Call) -> tuple:
        """``lock``/``unlock`` of ``&place`` (the place's address) or of
        an address value."""
        arg, loc = e.args[0], e.loc
        if isinstance(arg, A.UnOp) and arg.op == "&":
            X, _, work, gen, _ = self._realize(self._lower_place(arg.operand))
        else:
            X, work, gen = self._lower_expr(arg)
        if e.name == "unlock":
            unlock = self._unlock
            if gen:
                return _gen_node(lambda p, a: unlock(p, a, loc), (X, True)), work, True
            return (lambda p, fr: unlock(p, X(p, fr), loc)), work, False
        lock = self._lock

        def fn(p, fr):
            yield from lock(p, (yield from X(p, fr)) if gen else X(p, fr), loc)
        return fn, work, True

    def _spawn(self, func_name: str, pid_val: int) -> None:
        # cpu starts at pid (owner-computes); only the stealing
        # scheduler ever moves it, so rr traces are unchanged.
        worker = Proc(pid=pid_val, cpu=pid_val)
        worker.priv_cursor = PRIVATE_BASE + (pid_val + 2) * PRIVATE_STRIDE
        worker.gen = self._worker_gen(worker, func_name, pid_val)
        self.sched.add(worker)

    def _worker_gen(self, proc: Proc, func_name: str, arg: int) -> Iterator:
        yield  # first step happens under the scheduler, not at spawn time
        yield from self._function(func_name)(proc, [arg])

    def _barrier(self, proc: Proc, frame=None) -> Iterator:
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

    def _lock(self, proc: Proc, addr: int, loc: SourceLocation) -> Iterator:
        addr = int(addr)
        while True:
            owner = self.sched.locks.get(addr)
            if owner is None:
                self.sched.locks[addr] = proc.pid
                # test-and-set: read + write
                self._ref(proc, addr, 8, False)
                self._ref(proc, addr, 8, True)
                return
            if owner == proc.pid:
                raise RuntimeFault(f"recursive lock at {addr:#x}", loc)
            self._ref(proc, addr, 8, False)  # contended probe
            proc.blocked_on = ("lock", addr)
            yield
            proc.blocked_on = None

    def _unlock(self, proc: Proc, addr: int, loc: SourceLocation) -> None:
        addr = int(addr)
        if self.sched.locks.get(addr) != proc.pid:
            raise RuntimeFault(
                f"unlock of lock at {addr:#x} not held by pid {proc.pid}", loc
            )
        del self.sched.locks[addr]
        self._ref(proc, addr, 8, True)

    def _join(self, proc: Proc, frame=None) -> Iterator:
        while any(not p.done for p in self.sched.workers()):
            proc.blocked_on = ("join",)
            yield
            proc.blocked_on = None

    # -- functions and statements ------------------------------------------

    def _function(self, name: str):
        """The lowered function ``name``: ``fn(proc, args)`` is a
        generator returning the call's value."""
        fn = self._funcs.get(name)
        if fn is None:
            fn = self._funcs[name] = self._lower_function(
                self.checked.symtab.funcs[name].defn
            )
        return fn

    def _lower_function(self, fn: A.FuncDef):
        decls = self.checked.symtab.decl_symbols
        params = [(id(decls[id(p)]), *self._slot(p.type)) for p in fn.params]
        body = self._lower_block(fn.body.body, 0)
        mem, is_main, interp = self.mem, fn.name == "main", self
        ret = None if isinstance(fn.ret, T.VoidType) else _default_for(fn.ret)

        def call(p, args):
            fr = {}
            for (key, size, align), value in zip(params, args):
                addr = (p.priv_cursor + align - 1) // align * align
                p.priv_cursor = addr + size
                fr[key] = addr
                mem[addr] = value
            sig = yield from body(p, fr)
            if is_main:
                interp.exit_value = 0 if sig is None else sig[0]
            return ret if sig is None else sig[0]

        return call

    def _slot(self, ty: T.CType) -> tuple[int, int]:
        """(size, alignment) of a stack slot holding a ``ty``."""
        return max(self.layout.sizeof(ty), 1), max(self.layout.alignof(ty), 1)

    def _lower_block(self, stmts: list, work: int):
        """A generator running ``stmts`` after counting ``work``."""
        seq = tuple(map(self._lower_stmt, stmts))

        def block(p, fr):
            p.work += work
            for gen, f in seq:
                yield
                sig = (yield from f(p, fr)) if gen else f(p, fr)
                if sig is not None:
                    return sig
            return None

        return block

    def _lower_stmt(self, s: A.Stmt) -> tuple:
        """(gen, fn): ``fn(proc, frame)`` runs the statement after its
        boundary yield and returns None, _BREAK, _CONTINUE or a
        ``return``'s 1-tuple."""
        if isinstance(s, A.Block):
            return True, self._lower_block(s.body, 1)
        if isinstance(s, A.Assign):
            return self._lower_assign(s)
        if isinstance(s, A.VarDecl):
            return self._lower_vardecl(s)
        if isinstance(s, A.If):
            return True, self._lower_if(s)
        if isinstance(s, (A.While, A.For)):
            return True, self._lower_loop(s)
        if isinstance(s, (A.Break, A.Continue)) or (
            isinstance(s, A.Return) and s.value is None
        ):
            sig = {A.Break: _BREAK, A.Continue: _CONTINUE}.get(type(s), (None,))

            def signal(p, fr):
                p.work += 1
                return sig
            return False, signal
        if not isinstance(s, (A.ExprStmt, A.Return)):  # pragma: no cover
            raise RuntimeFault(f"cannot execute {type(s).__name__}", s.loc)
        X, work, gen = self._lower_expr(s.expr if isinstance(s, A.ExprStmt) else s.value)
        work += 1

        def finish(p, v):
            p.work += work
            return (v,) if isinstance(s, A.Return) else None

        if gen:
            return True, _gen_node(finish, (X, True))
        return False, lambda p, fr: finish(p, X(p, fr))

    def _lower_vardecl(self, s: A.VarDecl) -> tuple:
        """Bind the declaration to a fresh stack slot, then store the value."""
        key = id(self.checked.symtab.decl_symbols[id(s)])
        mem, (size, align) = self.mem, self._slot(s.type)
        dbl, dflt = isinstance(s.type, T.DoubleType), _default_for(s.type)

        def bind(p, fr):
            addr = (p.priv_cursor + align - 1) // align * align
            p.priv_cursor = addr + size
            fr[key] = addr
            return addr

        if s.init is None:
            def fn(p, fr):
                p.work += 1
                mem[bind(p, fr)] = dflt
            return False, fn
        X, work, gen = self._lower_expr(s.init)
        work += 1

        def store(p, addr, v):
            p.work += work
            mem[addr] = float(v) if dbl and isinstance(v, int) else v
            p.private_refs += 1

        if gen:
            return True, _gen_node(store, (bind, False), (X, True))
        return False, lambda p, fr: store(p, bind(p, fr), X(p, fr))

    def _lower_assign(self, s: A.Assign) -> tuple:
        """The value first, then the target place; a compound assignment
        loads the target before the store."""
        V, wv, gv = self._lower_expr(s.value)
        place = self._lower_place(s.target)
        B, ty, wp, gp, const = self._realize(place)
        work, op, loc, mem = 1 + wv + wp, s.op, s.loc, self.mem
        binop, dbl, dflt = self._binop_value, isinstance(ty, T.DoubleType), _default_for(ty)
        if gv or gp or place.kind == "raw":
            ld, st = self._loader(ty), self._storer(ty)

            def assign(p, v, a):
                p.work += work
                st(p, a, binop(op, ld(p, a), v, ty, loc) if op else v)

            if gv or gp:
                return True, _gen_node(assign, (V, gv), (B, gp))
            return False, lambda p, fr: assign(p, V(p, fr), B(p, fr))
        if place.kind == "local":
            key, name, nloc = id(place.target), place.target.name, place.loc

            def fn(p, fr):
                p.work += work
                v = V(p, fr)
                try:
                    a = fr[key]
                except KeyError:
                    raise RuntimeFault(f"unbound local {name!r}", nloc) from None
                if op:
                    p.private_refs += 1
                    v = binop(op, mem.get(a, dflt), v, ty, loc)
                p.private_refs += 1
                mem[a] = float(v) if dbl and isinstance(v, int) else v
            return False, fn
        size = _scalar_size(ty)
        pa, aa, sa, wa = self._emit

        def fn(p, fr):
            p.work += work
            v = V(p, fr)
            a = B(p, fr) if const is None else const
            if op:
                p.shared_refs += 1
                pa(p.cpu); aa(a); sa(size); wa(0)
                v = binop(op, mem.get(a, dflt), v, ty, loc)
            p.shared_refs += 1
            pa(p.cpu); aa(a); sa(size); wa(1)
            mem[a] = float(v) if dbl and isinstance(v, int) else v
        return False, fn

    def _lower_if(self, s: A.If):
        C, work, cgen = self._lower_expr(s.cond)
        work += 1
        then = self._lower_stmt(s.then)
        orelse = self._lower_stmt(s.orelse) if s.orelse is not None else None

        def fn(p, fr):
            p.work += work
            branch = then if ((yield from C(p, fr)) if cgen else C(p, fr)) else orelse
            if branch is None:
                return None
            yield
            gen, f = branch
            return (yield from f(p, fr)) if gen else f(p, fr)

        return fn

    def _lower_loop(self, s):
        """``while`` and ``for``: the body block runs inline; ``break``
        leaves the loop, ``continue`` goes on to the update."""
        is_for = isinstance(s, A.For)
        init = self._lower_stmt(s.init) if is_for and s.init is not None else None
        update = self._lower_stmt(s.update) if is_for and s.update is not None else None
        C, wc, cgen = self._lower_expr(s.cond) if s.cond is not None else (None, 0, False)
        block = isinstance(s.body, A.Block)
        seq = tuple(map(self._lower_stmt, s.body.body if block else [s.body]))

        def fn(p, fr):
            p.work += 1
            if init is not None:
                yield
                (yield from init[1](p, fr)) if init[0] else init[1](p, fr)
            while True:
                if C is not None:
                    p.work += wc
                    if not ((yield from C(p, fr)) if cgen else C(p, fr)):
                        return None
                if block:  # the body block's own boundary
                    yield
                    p.work += 1
                for gen, f in seq:
                    yield
                    sig = (yield from f(p, fr)) if gen else f(p, fr)
                    if sig is not None:
                        if sig is _BREAK:
                            return None
                        if sig is _CONTINUE:
                            break
                        return sig
                if update is not None:
                    yield
                    (yield from update[1](p, fr)) if update[0] else update[1](p, fr)

        return fn


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
