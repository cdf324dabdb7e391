"""Process differentiating variable (PDV) detection.

"Process differentiating variables are private variables that have
values that vary across the processes and are invariant throughout the
lifetime of the processes" (paper, section 3.1 footnote).  The canonical
PDV is the spawn loop's induction variable stored into the worker's
``pid`` parameter::

    for (p = 0; p < nprocs(); p++) { create(worker, p); }

This module finds PDVs and, more generally, computes for every function
a binding of private variables to *invariant affine forms* over the PDV
(``c1*pdv + c0``), which is what the regular-section analysis needs to
symbolically evaluate index expressions.  Constants are the degenerate
case ``c1 = 0``, so the same pass doubles as invariant-value propagation.

It also folds ``main``'s pre-spawn prologue: shared scalars written
exactly once, before any process is created, with a computable constant
value (e.g. ``chunk = n / nprocs();``) are treated as named constants —
the compile-time equivalent of the paper's "simple, invariant
expressions of program variables".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AnalysisError
from repro.ir.callgraph import CallGraph
from repro.lang import astnodes as A
from repro.lang.checker import CheckedProgram
from repro.lang.symbols import StorageKind
from repro.rsd.expr import Affine


@dataclass(slots=True)
class PDVInfo:
    """Results of PDV detection and invariant propagation."""

    #: worker functions and the parameter that is the PDV
    workers: dict[str, str] = field(default_factory=dict)
    #: per function: private variable name -> affine form over the PDV
    bindings: dict[str, dict[str, Affine]] = field(default_factory=dict)
    #: shared scalars with compile-time constant values from main's prologue
    invariant_globals: dict[str, int] = field(default_factory=dict)
    #: the process count expression was nprocs() (standard spawn idiom)
    spawn_uses_nprocs: bool = False

    def binding(self, func: str, var: str) -> Affine | None:
        return self.bindings.get(func, {}).get(var)


def detect_pdvs(checked: CheckedProgram, cg: CallGraph, nprocs: int) -> PDVInfo:
    """Run PDV detection for a given process count.

    ``nprocs`` concretizes ``nprocs()`` during invariant folding, per the
    paper's assumption that the number of processes equals the number of
    processors.
    """
    info = PDVInfo()
    info.invariant_globals = _fold_prologue(checked, nprocs)

    for site in checked.spawn_sites:
        worker = checked.symtab.funcs[site.func_name].defn
        pdv_param = worker.params[0].name
        # The spawn argument must be the induction variable of the spawn
        # loop (possibly trivially wrapped); otherwise the parameter's
        # cross-process values are unknown and it is not a PDV.
        if not _arg_is_spawn_induction(site):
            continue
        if site.func_name in info.workers and info.workers[site.func_name] != pdv_param:
            raise AnalysisError(
                f"conflicting PDV parameters for worker {site.func_name!r}",
                site.call.loc,
            )
        info.workers[site.func_name] = pdv_param
        info.spawn_uses_nprocs = info.spawn_uses_nprocs or _loop_bound_is_nprocs(site)

    # Intraprocedural invariant propagation per function; worker params
    # seed the PDV.  Then propagate through calls top-down (a callee
    # parameter is PDV-affine when every call site passes the same form).
    order = list(reversed(cg.bottom_up_order()))  # callers before callees
    for name in order:
        fsym = checked.symtab.funcs.get(name)
        if fsym is None:  # pragma: no cover - defensive
            continue
        fn = fsym.defn
        seed: dict[str, Affine] = {}
        if name in info.workers:
            seed[info.workers[name]] = Affine.pdv()
        else:
            param_forms = _join_call_site_forms(checked, cg, info, name, nprocs)
            seed.update(param_forms)
        info.bindings[name] = _propagate_invariants(
            checked, fn, seed, info.invariant_globals, nprocs
        )
    return info


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _arg_is_spawn_induction(site) -> bool:
    """Is the create() argument the spawn loop's induction variable?"""
    arg = site.arg
    loop = site.loop
    if loop is None or not isinstance(arg, A.Ident):
        return False
    if isinstance(loop, A.For) and isinstance(loop.init, A.Assign):
        tgt = loop.init.target
        if isinstance(tgt, A.Ident) and tgt.name == arg.name:
            return True
    if isinstance(loop, A.While):
        # while (p < n) { create(w, p); p++; } — accept an Ident that is
        # incremented inside the loop.
        for stmt in A.walk_stmts(loop.body):
            if (
                isinstance(stmt, A.Assign)
                and isinstance(stmt.target, A.Ident)
                and stmt.target.name == arg.name
                and stmt.op in ("+", "-")
            ):
                return True
    return False


def _loop_bound_is_nprocs(site) -> bool:
    loop = site.loop
    if isinstance(loop, A.For) and loop.cond is not None:
        for e in A.walk_exprs(loop.cond):
            if isinstance(e, A.Call) and e.name == "nprocs":
                return True
    return False


def _fold_prologue(checked: CheckedProgram, nprocs: int) -> dict[str, int]:
    """Constant-fold assignments to shared scalars in main before the
    first create() (straight-line prefix only)."""
    main = checked.symtab.funcs["main"].defn
    env: dict[str, int] = {}
    locals_env: dict[str, int] = {}
    multiply_assigned: set[str] = set()

    for stmt in main.body.body:
        if _contains_create(stmt):
            break
        if isinstance(stmt, (A.If, A.While, A.For, A.Block)):
            # control flow: conservatively dirty everything assigned
            # inside, then keep scanning the straight-line suffix
            for inner in A.walk_stmts(stmt):
                if isinstance(inner, A.Assign) and isinstance(inner.target, A.Ident):
                    name = inner.target.name
                    sym = checked.symtab.ident_symbols.get(id(inner.target))
                    if sym is not None and sym.kind is StorageKind.GLOBAL:
                        env.pop(name, None)
                        multiply_assigned.add(name)
                    else:
                        locals_env.pop(name, None)
                elif isinstance(inner, A.VarDecl):
                    locals_env.pop(inner.name, None)
            continue
        if not isinstance(stmt, (A.Assign, A.VarDecl)):
            continue
        if isinstance(stmt, A.VarDecl):
            if stmt.init is not None:
                v = _const_eval(stmt.init, env, locals_env, nprocs)
                if v is not None:
                    locals_env[stmt.name] = v
            continue
        if stmt.op or not isinstance(stmt.target, A.Ident):
            continue
        name = stmt.target.name
        sym = checked.symtab.ident_symbols.get(id(stmt.target))
        v = _const_eval(stmt.value, env, locals_env, nprocs)
        if sym is not None and sym.kind is StorageKind.GLOBAL:
            if name in env or name in multiply_assigned:
                env.pop(name, None)
                multiply_assigned.add(name)
            elif v is not None:
                env[name] = v
            else:
                multiply_assigned.add(name)
        else:
            if v is not None:
                locals_env[name] = v
            else:
                locals_env.pop(name, None)

    # A global assigned again after the prologue (anywhere) is not invariant.
    assigned_later = _globals_assigned_outside_prologue(checked)
    return {k: v for k, v in env.items() if k not in assigned_later}


def _contains_create(stmt: A.Stmt) -> bool:
    for s in A.walk_stmts(stmt):
        for e in A.stmt_exprs(s):
            if isinstance(e, A.Call) and e.name == "create":
                return True
    return False


def _globals_assigned_outside_prologue(checked: CheckedProgram) -> set[str]:
    """Names of globals written anywhere except main's foldable prefix."""
    out: set[str] = set()
    for fn in checked.program.funcs:
        stmts = list(A.walk_stmts(fn.body))
        if fn.name == "main":
            # The foldable prologue is every straight-line top-level
            # statement before the spawn; assignments nested in control
            # flow were already dirtied by _fold_prologue.
            prologue: set[int] = set()
            for stmt in fn.body.body:
                if _contains_create(stmt):
                    break
                if not isinstance(stmt, (A.If, A.While, A.For, A.Block)):
                    prologue.add(id(stmt))
            stmts = [s for s in stmts if id(s) not in prologue]
        for stmt in stmts:
            if isinstance(stmt, A.Assign) and isinstance(stmt.target, A.Ident):
                sym = checked.symtab.ident_symbols.get(id(stmt.target))
                if sym is not None and sym.kind is StorageKind.GLOBAL:
                    out.add(stmt.target.name)
    return out


def _const_eval(
    e: A.Expr, genv: dict[str, int], lenv: dict[str, int], nprocs: int
) -> int | None:
    """Evaluate an integer expression of constants/folded names, or None."""
    if isinstance(e, A.IntLit):
        return e.value
    if isinstance(e, A.Ident):
        if e.name in lenv:
            return lenv[e.name]
        return genv.get(e.name)
    if isinstance(e, A.Call) and e.name == "nprocs":
        return nprocs
    if isinstance(e, A.UnOp) and e.op == "-":
        v = _const_eval(e.operand, genv, lenv, nprocs)
        return None if v is None else -v
    if isinstance(e, A.BinOp):
        a = _const_eval(e.left, genv, lenv, nprocs)
        b = _const_eval(e.right, genv, lenv, nprocs)
        if a is None or b is None:
            return None
        try:
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if e.op == "/":
                return int(a / b) if b else None
            if e.op == "%":
                return a - int(a / b) * b if b else None
        except (ZeroDivisionError, OverflowError):  # pragma: no cover
            return None
    return None


def _join_call_site_forms(
    checked: CheckedProgram,
    cg: CallGraph,
    info: PDVInfo,
    callee: str,
    nprocs: int,
) -> dict[str, Affine]:
    """Affine forms for callee parameters agreed on by all call sites."""
    fn = checked.symtab.funcs[callee].defn
    sites = [s for s in cg.sites_of(callee) if s.call.name != "create"]
    if not sites:
        return {}
    per_param: dict[str, Affine | None] = {}
    for i, param in enumerate(fn.params):
        forms: list[Affine | None] = []
        for s in sites:
            caller_bindings = info.bindings.get(s.caller, {})
            if i < len(s.call.args):
                forms.append(
                    affine_of_expr(
                        s.call.args[i], caller_bindings, info.invariant_globals, nprocs
                    )
                )
            else:  # pragma: no cover - checker rejects arity mismatch
                forms.append(None)
        first = forms[0]
        if first is not None and all(f == first for f in forms):
            per_param[param.name] = first
    return {k: v for k, v in per_param.items() if v is not None}


def _propagate_invariants(
    checked: CheckedProgram,
    fn: A.FuncDef,
    seed: dict[str, Affine],
    invariant_globals: dict[str, int],
    nprocs: int,
) -> dict[str, Affine]:
    """Private variables of ``fn`` with invariant affine values.

    A variable qualifies when it is assigned exactly once in the whole
    function, outside any loop, with a PDV-affine right-hand side.
    """
    assign_counts: dict[str, int] = {}
    single_assign: dict[str, A.Expr] = {}
    in_loop: set[str] = set()

    def scan(stmt: A.Stmt, loop_depth: int) -> None:
        if isinstance(stmt, (A.While, A.For)):
            for child in A.child_stmts(stmt):
                scan(child, loop_depth + 1)
            if isinstance(stmt, A.For):
                return  # children already scanned (init/update included)
            return
        if isinstance(stmt, A.Assign) and isinstance(stmt.target, A.Ident):
            name = stmt.target.name
            assign_counts[name] = assign_counts.get(name, 0) + 1
            single_assign[name] = stmt.value if not stmt.op else None  # type: ignore[assignment]
            if loop_depth > 0:
                in_loop.add(name)
        if isinstance(stmt, A.VarDecl) and stmt.init is not None:
            assign_counts[stmt.name] = assign_counts.get(stmt.name, 0) + 1
            single_assign[stmt.name] = stmt.init
            if loop_depth > 0:
                in_loop.add(stmt.name)
        for child in A.child_stmts(stmt):
            scan(child, loop_depth)

    scan(fn.body, 0)

    bindings = dict(seed)
    # Fixpoint: propagating chains like q = pid * 2; r = q + 1;
    changed = True
    while changed:
        changed = False
        for name, count in assign_counts.items():
            if name in bindings or count != 1 or name in in_loop:
                continue
            rhs = single_assign.get(name)
            if rhs is None:
                continue
            form = affine_of_expr(rhs, bindings, invariant_globals, nprocs)
            if form is not None:
                bindings[name] = form
                changed = True
    # A seeded parameter reassigned inside the function loses its binding.
    for name in list(bindings):
        if name in seed and assign_counts.get(name, 0) > 0:
            del bindings[name]
    return bindings


def affine_of_expr(
    e: A.Expr,
    bindings: dict[str, Affine],
    invariant_globals: dict[str, int],
    nprocs: int,
) -> Affine | None:
    """Affine form of an integer expression over the PDV, or None."""
    if isinstance(e, A.IntLit):
        return Affine.constant(e.value)
    if isinstance(e, A.Ident):
        if e.name in bindings:
            return bindings[e.name]
        if e.name in invariant_globals:
            return Affine.constant(invariant_globals[e.name])
        return None
    if isinstance(e, A.Call) and e.name == "nprocs":
        return Affine.constant(nprocs)
    if isinstance(e, A.UnOp) and e.op == "-":
        inner = affine_of_expr(e.operand, bindings, invariant_globals, nprocs)
        return None if inner is None else -inner
    if isinstance(e, A.BinOp):
        a = affine_of_expr(e.left, bindings, invariant_globals, nprocs)
        b = affine_of_expr(e.right, bindings, invariant_globals, nprocs)
        if a is None or b is None:
            return None
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a.mul(b)
        if e.op == "/":
            if b.is_constant and b.const != 0:
                return a.div_exact(b.const)
            return None
        if e.op == "%":
            if a.is_constant and b.is_constant and b.const != 0:
                q = int(a.const / b.const)
                return Affine.constant(a.const - q * b.const)
            return None
    return None
