"""Stage 3: interprocedural summary side-effect analysis with bounded
regular section descriptors and static profiling.

For every shared-data access in the program this pass produces an
:class:`AccessEntry` — *which* data structure (a :class:`Target`), the
array section touched (an :class:`~repro.rsd.descriptor.RSD`), whether it
is a read or a write, the estimated execution frequency (stage 3's
static profiling), the phase (stage 2) and the set of processes that can
perform it (stage 1).

The traversal virtually inlines calls: the call graph is acyclic in the
restricted model, so walking callee bodies with actual-parameter
bindings gives fully context-sensitive summaries (a strict refinement of
the paper's flow-insensitive summaries [Bar78, Ban79, CK88b]; DESIGN.md,
section 2 notes the substitution).

Access paths
------------

A target names a shared object and a path into it:

====================  ==========================================
``x``                 ``Target("x", ())``
``a[i]``              ``Target("a", ())`` with a 1-d RSD
``cells[i].cnt``      ``Target("cells", ("cnt",))``, 1-d RSD
``parts[i].f``        (``parts`` a pointer) ``Target("parts", ("*", "f"))``
``elems[i]->val``     ``Target("elems", ("*", "val"))``, RSD over ``i``
``head->next->val``   ``Target("head", ("*", "next", "*", "val"))``
====================  ==========================================

``"*"`` path components mark pointer hops; every hop also emits a *read*
of the pointer cell itself, which is exactly the extra reference the
indirection transformation trades for better processor locality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.analysis.loops import DEFAULT_TRIPS, analyze_loop
from repro.analysis.nonconcurrency import PhaseInfo
from repro.analysis.pdv import PDVInfo
from repro.analysis.perprocess import MAIN_PROC, ProcSetResult, branch_split
from repro.analysis.profiling import StaticProfile
from repro.errors import SourceLocation
from repro.ir.callgraph import CallGraph
from repro.lang import astnodes as A
from repro.lang import ctypes as T
from repro.lang.builtins_sig import is_builtin
from repro.lang.checker import CheckedProgram
from repro.lang.symbols import StorageKind
from repro.rsd.descriptor import RSD, Elem, Point, Range, UNKNOWN
from repro.rsd.expr import Affine, OPAQUE_PREFIX
from repro.rsd.ops import project_loops

#: Phase labels for the serial sections of main.
INIT_PHASE = -1
FINI_PHASE = -2


@dataclass(frozen=True, slots=True)
class Target:
    """A shared data structure: base global plus access path."""

    base: str
    path: tuple[str, ...] = ()

    @property
    def is_heap(self) -> bool:
        return "*" in self.path or self.base.startswith("@")

    def __str__(self) -> str:
        text = self.base
        for comp in self.path:
            text += "[*]" if comp == "*" else f".{comp}"
        return text


@dataclass(slots=True)
class AccessEntry:
    """One resolved shared-data access in one calling context."""

    target: Target
    is_write: bool
    rsd: RSD
    weight: float
    phase: int
    procs: frozenset[int]
    func: str
    loc: SourceLocation
    elem_size: int
    is_lock: bool = False
    #: (struct name, field) when the access reaches a heap-record field
    record_field: Optional[tuple[str, str]] = None

    def __str__(self) -> str:  # pragma: no cover - debug aid
        rw = "W" if self.is_write else "R"
        return f"{rw} {self.target}{self.rsd} w={self.weight:.1f} ph={self.phase}"


@dataclass(slots=True)
class SideEffects:
    """All resolved accesses, in walk order."""

    entries: list[AccessEntry] = field(default_factory=list)
    nprocs: int = 0

    def targets(self) -> list[Target]:
        seen: dict[Target, None] = {}
        for e in self.entries:
            seen.setdefault(e.target, None)
        return list(seen)


# --------------------------------------------------------------------------
# Resolution of lvalue chains
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Resolved:
    """Resolution state of an lvalue chain."""

    target: Optional[Target]
    elems: tuple[Elem, ...] = ()
    record_field: Optional[tuple[str, str]] = None
    #: struct type reached through the last pointer hop (for record_field)
    hop_struct: Optional[str] = None
    #: pointer-cell reads emitted while traversing the chain
    prefix_reads: list["ResolvedRead"] = field(default_factory=list)
    #: True when this resolution denotes the *address* of the target
    #: location (produced by '&'); the next dereference consumes it
    #: instead of recording a pointer hop.
    is_address: bool = False

    def clone(self) -> "Resolved":
        return Resolved(
            self.target, self.elems, self.record_field, self.hop_struct,
            list(self.prefix_reads), self.is_address,
        )


@dataclass(slots=True)
class ResolvedRead:
    target: Target
    elems: tuple[Elem, ...]
    size: int


class _Ctx:
    """Per-call-context state for the walker."""

    __slots__ = (
        "func", "frame", "weight_mult", "phase_base", "procs",
        "sym_env", "bounds", "aliases", "main_section",
    )

    def __init__(self, func: str, frame: int, weight_mult: float,
                 phase_base: int, procs: frozenset[int]):
        self.func = func
        self.frame = frame
        self.weight_mult = weight_mult
        self.phase_base = phase_base
        self.procs = procs
        #: variable name -> affine over qualified loop syms + PDV
        self.sym_env: dict[str, Affine] = {}
        #: qualified loop sym -> (lo, hi, step), bounds PDV-only
        self.bounds: dict[str, tuple[Affine, Affine, int]] = {}
        #: local pointer name -> Resolved snapshot
        self.aliases: dict[str, Resolved] = {}
        self.main_section = INIT_PHASE


class SideEffectAnalysis:
    """The integrated three-stage walker."""

    MAX_CALL_DEPTH = 32

    def __init__(
        self,
        checked: CheckedProgram,
        cg: CallGraph,
        pdvinfo: PDVInfo,
        phases: PhaseInfo,
        procsets: ProcSetResult,
        profile: StaticProfile,
        nprocs: int,
    ):
        self.checked = checked
        self.cg = cg
        self.pdvinfo = pdvinfo
        self.phases = phases
        self.procsets = procsets
        self.profile = profile
        self.nprocs = nprocs
        self.entries: list[AccessEntry] = []
        self._frames = itertools.count(1)
        self._alloc_ids = itertools.count(1)
        self._depth = 0

    # -- public ----------------------------------------------------------------

    def run(self) -> SideEffects:
        main = self.checked.symtab.funcs["main"].defn
        ctx = _Ctx("main", 0, 1.0, 0, frozenset({MAIN_PROC}))
        self._seed_bindings(ctx)
        self._walk_block(main.body, ctx)
        for worker in self.pdvinfo.workers:
            wfn = self.checked.symtab.funcs[worker].defn
            wctx = _Ctx(worker, next(self._frames), 1.0, 0,
                        frozenset(range(self.nprocs)))
            self._seed_bindings(wctx)
            self._walk_block(wfn.body, wctx)
        return SideEffects(self.entries, self.nprocs)

    # -- context helpers ----------------------------------------------------------

    def _seed_bindings(self, ctx: _Ctx) -> None:
        for name, form in self.pdvinfo.bindings.get(ctx.func, {}).items():
            ctx.sym_env.setdefault(name, form)

    def _affine(self, e: A.Expr, ctx: _Ctx) -> Optional[Affine]:
        """Affine form of an int expression over PDV + qualified loop syms."""
        if isinstance(e, A.IntLit):
            return Affine.constant(e.value)
        if isinstance(e, A.Ident):
            form = ctx.sym_env.get(e.name)
            if form is not None:
                return form
            if e.name in self.pdvinfo.invariant_globals:
                return Affine.constant(self.pdvinfo.invariant_globals[e.name])
            sym = self.checked.symtab.ident_symbols.get(id(e))
            if (
                sym is not None
                and sym.is_shared
                and isinstance(sym.type, T.IntType)
            ):
                # non-invariant shared scalar: keep it as an opaque
                # symbol so stride information survives (revolving
                # partitions still show unit stride)
                return Affine.var(OPAQUE_PREFIX + e.name)
            return None
        if isinstance(e, A.Call) and e.name == "nprocs":
            return Affine.constant(self.nprocs)
        if isinstance(e, A.UnOp) and e.op == "-":
            inner = self._affine(e.operand, ctx)
            return None if inner is None else -inner
        if isinstance(e, A.BinOp):
            a = self._affine(e.left, ctx)
            b = self._affine(e.right, ctx)
            if a is None or b is None:
                return None
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a.mul(b)
            if e.op == "/" and b is not None and b.is_constant and b.const:
                return a.div_exact(b.const)
            if e.op == "%" and a.is_constant and b.is_constant and b.const:
                q = int(a.const / b.const)
                return Affine.constant(a.const - q * b.const)
        return None

    def _to_elem(self, e: A.Expr, ctx: _Ctx) -> Elem:
        aff = self._affine(e, ctx)
        if aff is None:
            return UNKNOWN
        return project_loops(aff, ctx.bounds)

    def _stmt_weight(self, stmt: A.Stmt, ctx: _Ctx) -> float:
        return ctx.weight_mult * self.profile.local_weight(ctx.func, stmt)

    def _stmt_phase(self, stmt: A.Stmt, ctx: _Ctx) -> int:
        if ctx.func == "main" and ctx.frame == 0:
            return ctx.main_section
        return ctx.phase_base + self.phases.phase_of(ctx.func, stmt)

    def _stmt_procs(self, stmt: A.Stmt, ctx: _Ctx) -> frozenset[int]:
        local = self.procsets.sets.get(ctx.func, {}).get(id(stmt))
        if local is None:
            return ctx.procs
        return ctx.procs & local if ctx.procs else local

    # -- statement walking -----------------------------------------------------------

    def _walk_block(self, block: A.Block, ctx: _Ctx) -> None:
        for stmt in block.body:
            self._walk_stmt(stmt, ctx)

    def _walk_stmt(self, stmt: A.Stmt, ctx: _Ctx) -> None:
        if isinstance(stmt, A.Block):
            self._walk_block(stmt, ctx)
        elif isinstance(stmt, A.VarDecl):
            if stmt.init is not None:
                self._reads_of(stmt.init, stmt, ctx)
                self._maybe_bind_alias(stmt.name, stmt.init, stmt, ctx)
        elif isinstance(stmt, A.Assign):
            self._walk_assign(stmt, ctx)
        elif isinstance(stmt, A.ExprStmt):
            self._walk_expr_effects(stmt.expr, stmt, ctx)
        elif isinstance(stmt, A.If):
            self._reads_of(stmt.cond, stmt, ctx)
            bindings = ctx.sym_env
            then_p, else_p = branch_split(
                stmt.cond, ctx.procs, bindings,
                self.pdvinfo.invariant_globals, self.nprocs,
            )
            saved = ctx.procs
            ctx.procs = then_p
            self._walk_stmt(stmt.then, ctx)
            if stmt.orelse is not None:
                ctx.procs = else_p
                self._walk_stmt(stmt.orelse, ctx)
            ctx.procs = saved
        elif isinstance(stmt, A.While):
            self._reads_of(stmt.cond, stmt, ctx)
            self._walk_stmt(stmt.body, ctx)
        elif isinstance(stmt, A.For):
            self._walk_for(stmt, ctx)
        elif isinstance(stmt, A.Return):
            if stmt.value is not None:
                self._reads_of(stmt.value, stmt, ctx)
        # Break/Continue: no data accesses

    def _walk_for(self, stmt: A.For, ctx: _Ctx) -> None:
        if stmt.init is not None:
            self._walk_stmt(stmt.init, ctx)
        if stmt.cond is not None:
            self._reads_of(stmt.cond, stmt, ctx)
        info = analyze_loop(
            stmt, ctx.sym_env, self.pdvinfo.invariant_globals, self.nprocs
        )
        saved_env = None
        qname = None
        if info.var is not None and info.bounds is not None:
            lo, hi, step = info.bounds
            qname = f"{ctx.frame}:{info.var}"
            saved_env = ctx.sym_env.get(info.var)
            ctx.sym_env[info.var] = Affine.var(qname)
            ctx.bounds[qname] = (
                self._widen(lo, ctx, low=True),
                self._widen(hi, ctx, low=False),
                step,
            )
        elif info.var is not None:
            # bounds unknown: the induction variable is not invariant
            saved_env = ctx.sym_env.pop(info.var, None)
        self._walk_stmt(stmt.body, ctx)
        if stmt.update is not None and isinstance(stmt.update, A.Assign):
            # update's reads (e.g. i++ reads i) are private; but compound
            # updates of shared data do occur: handle generically
            self._walk_assign(stmt.update, ctx, is_loop_update=True)
        if info.var is not None:
            if saved_env is not None:
                ctx.sym_env[info.var] = saved_env
            else:
                ctx.sym_env.pop(info.var, None)
            if qname is not None:
                ctx.bounds.pop(qname, None)

    def _widen(self, bound: Affine, ctx: _Ctx, low: bool) -> Affine:
        """Replace loop symbols in a bound by their own extremes so that
        registered bounds are affine in the PDV alone."""
        out = bound
        for _ in range(8):
            syms = [s for s in out.symbols if s in ctx.bounds]
            if not syms:
                break
            sym = syms[0]
            lo, hi, _step = ctx.bounds[sym]
            c = out.coeff(sym)
            repl = lo if (c > 0) == low else hi
            out = out + repl.scale(c) - Affine.var(sym, c)
        return out

    # -- assignment / expressions -----------------------------------------------------

    def _walk_assign(self, stmt: A.Assign, ctx: _Ctx,
                     is_loop_update: bool = False) -> None:
        self._reads_of(stmt.value, stmt, ctx)
        # reads embedded in the target's index expressions
        self._index_reads_of(stmt.target, stmt, ctx)
        if stmt.op:
            self._emit_access(stmt.target, False, stmt, ctx)
        self._emit_access(stmt.target, True, stmt, ctx)
        if not stmt.op and isinstance(stmt.target, A.Ident):
            self._maybe_bind_alias(stmt.target.name, stmt.value, stmt, ctx)

    def _walk_expr_effects(self, e: A.Expr, stmt: A.Stmt, ctx: _Ctx) -> None:
        """Effects of a bare expression statement (typically a call)."""
        if isinstance(e, A.Call):
            self._walk_call(e, stmt, ctx)
        else:
            self._reads_of(e, stmt, ctx)

    def _walk_call(self, call: A.Call, stmt: A.Stmt, ctx: _Ctx) -> None:
        name = call.name
        if name in ("lock", "unlock"):
            arg = call.args[0]
            if isinstance(arg, A.UnOp) and arg.op == "&":
                self._emit_access(arg.operand, True, stmt, ctx, is_lock=True)
                self._index_reads_of(arg.operand, stmt, ctx)
            else:
                self._reads_of(arg, stmt, ctx)
            return
        if name == "create":
            self._reads_of(call.args[1], stmt, ctx)
            return
        if name == "wait_for_end":
            if ctx.func == "main" and ctx.frame == 0:
                ctx.main_section = FINI_PHASE
            return
        if is_builtin(name):
            for a in call.args:
                self._reads_of(a, stmt, ctx)
            return
        # user call: virtual inlining
        for a in call.args:
            self._reads_of(a, stmt, ctx)
        self._inline_call(call, stmt, ctx)

    def _inline_call(self, call: A.Call, stmt: A.Stmt, ctx: _Ctx) -> None:
        if self._depth >= self.MAX_CALL_DEPTH:  # pragma: no cover - cg is acyclic
            return
        fsym = self.checked.symtab.funcs.get(call.name)
        if fsym is None:  # pragma: no cover - checker rejects
            return
        callee = fsym.defn
        sub = _Ctx(
            callee.name,
            next(self._frames),
            self._stmt_weight(stmt, ctx),
            self._stmt_phase(stmt, ctx),
            self._stmt_procs(stmt, ctx),
        )
        # bounds of enclosing loops remain visible (they qualify affine
        # forms passed through arguments)
        sub.bounds.update(ctx.bounds)
        self._seed_bindings(sub)
        for param, arg in zip(callee.params, call.args):
            aff = self._affine(arg, ctx)
            if aff is not None:
                sub.sym_env[param.name] = aff
            if isinstance(param.type, T.PointerType):
                res = self._resolve_pointer_value(arg, ctx)
                if res is not None:
                    sub.aliases[param.name] = res
        self._depth += 1
        try:
            self._walk_block(callee.body, sub)
        finally:
            self._depth -= 1

    # -- read collection -----------------------------------------------------------

    def _reads_of(self, e: A.Expr, stmt: A.Stmt, ctx: _Ctx) -> None:
        """Emit read accesses for every load in expression ``e``."""
        if e is None:  # pragma: no cover - defensive
            return
        if isinstance(e, (A.IntLit, A.FloatLit)):
            return
        if isinstance(e, A.Call):
            self._walk_call(e, stmt, ctx)
            return
        if isinstance(e, A.Alloc):
            if e.count is not None:
                self._reads_of(e.count, stmt, ctx)
            return
        if isinstance(e, A.UnOp) and e.op == "&":
            # address computation: only index sub-expressions are read
            self._index_reads_of(e.operand, stmt, ctx)
            return
        if isinstance(e, (A.Ident, A.Index, A.Member)) or (
            isinstance(e, A.UnOp) and e.op == "*"
        ):
            self._emit_access(e, False, stmt, ctx)
            self._index_reads_of(e, stmt, ctx)
            return
        if isinstance(e, A.UnOp):
            self._reads_of(e.operand, stmt, ctx)
            return
        if isinstance(e, A.BinOp):
            self._reads_of(e.left, stmt, ctx)
            self._reads_of(e.right, stmt, ctx)
            return

    def _index_reads_of(self, lv: A.Expr, stmt: A.Stmt, ctx: _Ctx) -> None:
        """Reads performed by the index expressions inside an lvalue."""
        if isinstance(lv, A.Index):
            self._reads_of(lv.index, stmt, ctx)
            self._index_reads_of(lv.base, stmt, ctx)
        elif isinstance(lv, A.Member):
            self._index_reads_of(lv.base, stmt, ctx)
        elif isinstance(lv, A.UnOp) and lv.op in ("*", "&"):
            self._index_reads_of(lv.operand, stmt, ctx)

    # -- resolution ------------------------------------------------------------------

    def _resolve(self, e: A.Expr, ctx: _Ctx) -> Optional[Resolved]:
        """Resolve an lvalue chain to a shared target (None = private)."""
        if isinstance(e, A.Ident):
            sym = self.checked.symtab.ident_symbols.get(id(e))
            if sym is None:
                return None
            if sym.kind is StorageKind.GLOBAL:
                return Resolved(Target(e.name))
            alias = ctx.aliases.get(e.name)
            if alias is not None:
                return alias.clone()
            return None
        if isinstance(e, A.Index):
            r = self._resolve(e.base, ctx)
            if r is None or r.target is None:
                return None
            elem = self._to_elem(e.index, ctx)
            base_ty = e.base.ty
            if isinstance(base_ty, T.PointerType):
                if r.is_address:
                    # p = &a[k]: p[i] aliases a near k — approximate the
                    # combined index conservatively
                    r.is_address = False
                    if r.elems:
                        r.elems = r.elems[:-1] + (UNKNOWN,)
                    return r
                self._note_pointer_read(r, base_ty, ctx)
                r.target = Target(r.target.base, r.target.path + ("*",))
                if isinstance(base_ty.target, T.StructType):
                    r.hop_struct = base_ty.target.name
            r.elems = r.elems + (elem,)
            return r
        if isinstance(e, A.Member):
            r = self._resolve(e.base, ctx)
            if r is None or r.target is None:
                return None
            base_ty = e.base.ty
            if e.arrow:
                assert isinstance(base_ty, T.PointerType)
                struct = base_ty.target
                assert isinstance(struct, T.StructType)
                if r.is_address:
                    r.is_address = False
                    r.target = Target(r.target.base, r.target.path + (e.name,))
                else:
                    self._note_pointer_read(r, base_ty, ctx)
                    r.target = Target(r.target.base, r.target.path + ("*", e.name))
                    r.elems = r.elems + (Point(Affine.constant(0)),)
                    r.record_field = (struct.name, e.name)
                    r.hop_struct = struct.name
            else:
                r.target = Target(r.target.base, r.target.path + (e.name,))
                if r.hop_struct is not None and r.record_field is None:
                    r.record_field = (r.hop_struct, e.name)
            return r
        if isinstance(e, A.UnOp) and e.op == "*":
            r = self._resolve(e.operand, ctx)
            if r is None or r.target is None:
                return None
            base_ty = e.operand.ty
            assert isinstance(base_ty, T.PointerType)
            if r.is_address:
                r.is_address = False
                return r
            self._note_pointer_read(r, base_ty, ctx)
            r.target = Target(r.target.base, r.target.path + ("*",))
            r.elems = r.elems + (Point(Affine.constant(0)),)
            if isinstance(base_ty.target, T.StructType):
                r.hop_struct = base_ty.target.name
            return r
        return None

    def _note_pointer_read(self, r: Resolved, pty: T.PointerType, ctx: _Ctx) -> None:
        if r.target is not None:
            r.prefix_reads.append(ResolvedRead(r.target, r.elems, pty.size))

    def _resolve_pointer_value(self, e: A.Expr, ctx: _Ctx) -> Optional[Resolved]:
        """Resolve a pointer-typed rvalue for alias binding."""
        if isinstance(e, A.UnOp) and e.op == "&":
            r = self._resolve(e.operand, ctx)
            if r is not None:
                r.is_address = True
            return r
        if isinstance(e, (A.Ident, A.Index, A.Member)):
            # pointer loaded from a shared location: the pointee is the
            # location's '*' extension
            r = self._resolve(e, ctx)
            if r is None or r.target is None:
                return None
            return r
        if isinstance(e, A.Alloc):
            n = next(self._alloc_ids)
            return Resolved(Target(f"@alloc{n}:{e.type_name}"))
        return None

    def _maybe_bind_alias(self, name: str, value: A.Expr, stmt: A.Stmt,
                          ctx: _Ctx) -> None:
        ty = value.ty
        if not isinstance(ty, T.PointerType):
            return
        # Only locals need alias bindings; globals resolve by name, and a
        # stale entry for a shadowing local is replaced below either way.
        res = self._resolve_pointer_value(value, ctx)
        if res is not None:
            ctx.aliases[name] = res
        else:
            ctx.aliases.pop(name, None)

    # -- emission --------------------------------------------------------------------

    def _emit_access(self, lv: A.Expr, is_write: bool, stmt: A.Stmt,
                     ctx: _Ctx, is_lock: bool = False) -> None:
        r = self._resolve(lv, ctx)
        if r is None or r.target is None:
            return
        weight = self._stmt_weight(stmt, ctx)
        phase = self._stmt_phase(stmt, ctx)
        procs = self._stmt_procs(stmt, ctx)
        for pre in r.prefix_reads:
            self.entries.append(
                AccessEntry(
                    target=pre.target,
                    is_write=False,
                    rsd=RSD(pre.elems),
                    weight=weight,
                    phase=phase,
                    procs=procs,
                    func=ctx.func,
                    loc=lv.loc,
                    elem_size=pre.size,
                )
            )
        size = lv.ty.size if lv.ty is not None and not isinstance(
            lv.ty, (T.ArrayType, T.StructType)
        ) else (lv.ty.size if lv.ty is not None else 8)
        self.entries.append(
            AccessEntry(
                target=r.target,
                is_write=is_write,
                rsd=RSD(r.elems),
                weight=weight,
                phase=phase,
                procs=procs,
                func=ctx.func,
                loc=lv.loc,
                elem_size=size,
                is_lock=is_lock or isinstance(lv.ty, T.LockType),
                record_field=r.record_field,
            )
        )


def analyze_side_effects(
    checked: CheckedProgram,
    cg: CallGraph,
    pdvinfo: PDVInfo,
    phases: PhaseInfo,
    procsets: ProcSetResult,
    profile: StaticProfile,
    nprocs: int,
) -> SideEffects:
    """Run the integrated three-stage side-effect analysis."""
    return SideEffectAnalysis(
        checked, cg, pdvinfo, phases, procsets, profile, nprocs
    ).run()
