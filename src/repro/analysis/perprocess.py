"""Stage 1: interprocedural per-process control-flow analysis [JE92].

Determines which section of code each process executes by evaluating
branch predicates that test PDVs.  With the process count fixed at
analysis time, a predicate like ``pid == 0`` or ``pid < nprocs()/2``
partitions the process set exactly; statements are annotated with the
set of processes that can reach them.

The spawning parent (``main``) is modelled as the pseudo-process
:data:`MAIN_PROC`; its code before ``create()`` and after
``wait_for_end()`` is the serial init/fini section.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.pdv import PDVInfo, affine_of_expr
from repro.ir.callgraph import CallGraph
from repro.lang import astnodes as A
from repro.lang.checker import CheckedProgram
from repro.rsd.expr import PDV, Affine

#: Pseudo-process id of the spawning parent.
MAIN_PROC = -1


@dataclass(slots=True)
class ProcSetResult:
    """Process sets per statement and per function entry."""

    #: per function: id(stmt) -> processes that can execute the statement
    sets: dict[str, dict[int, frozenset[int]]] = field(default_factory=dict)
    entry: dict[str, frozenset[int]] = field(default_factory=dict)
    nprocs: int = 0


def eval_cond_for_pid(
    cond: A.Expr,
    pid: int,
    bindings: dict[str, Affine],
    invariant_globals: dict[str, int],
    nprocs: int,
) -> bool | None:
    """Truth value of a branch predicate for a specific process, or None
    when the predicate is not decidable from invariants."""
    if isinstance(cond, A.BinOp) and cond.op in ("&&", "||"):
        a = eval_cond_for_pid(cond.left, pid, bindings, invariant_globals, nprocs)
        b = eval_cond_for_pid(cond.right, pid, bindings, invariant_globals, nprocs)
        if cond.op == "&&":
            if a is False or b is False:
                return False
            if a is True and b is True:
                return True
            return None
        if a is True or b is True:
            return True
        if a is False and b is False:
            return False
        return None
    if isinstance(cond, A.UnOp) and cond.op == "!":
        inner = eval_cond_for_pid(
            cond.operand, pid, bindings, invariant_globals, nprocs
        )
        return None if inner is None else not inner
    if isinstance(cond, A.BinOp) and cond.op in ("==", "!=", "<", "<=", ">", ">="):
        left = affine_of_expr(cond.left, bindings, invariant_globals, nprocs)
        right = affine_of_expr(cond.right, bindings, invariant_globals, nprocs)
        if left is None or right is None:
            return None
        try:
            lv = left.value({PDV: pid})
            rv = right.value({PDV: pid})
        except ValueError:
            return None
        return {
            "==": lv == rv,
            "!=": lv != rv,
            "<": lv < rv,
            "<=": lv <= rv,
            ">": lv > rv,
            ">=": lv >= rv,
        }[cond.op]
    # modulo tests like (pid % 2) used directly as a condition
    aff = affine_of_expr(cond, bindings, invariant_globals, nprocs)
    if aff is not None:
        try:
            return aff.value({PDV: pid}) != 0
        except ValueError:
            return None
    return None


def branch_split(
    cond: A.Expr,
    procs: frozenset[int],
    bindings: dict[str, Affine],
    invariant_globals: dict[str, int],
    nprocs: int,
) -> tuple[frozenset[int], frozenset[int]]:
    """Split ``procs`` into (may take then-branch, may take else-branch).

    Undecidable predicates put every process in both sets.
    """
    then_set: set[int] = set()
    else_set: set[int] = set()
    for p in procs:
        if p == MAIN_PROC:
            then_set.add(p)
            else_set.add(p)
            continue
        verdict = eval_cond_for_pid(cond, p, bindings, invariant_globals, nprocs)
        if verdict is True:
            then_set.add(p)
        elif verdict is False:
            else_set.add(p)
        else:
            then_set.add(p)
            else_set.add(p)
    return frozenset(then_set), frozenset(else_set)


def compute_proc_sets(
    checked: CheckedProgram,
    cg: CallGraph,
    pdvinfo: PDVInfo,
    nprocs: int,
) -> ProcSetResult:
    """Annotate every statement with the set of processes that can
    execute it."""
    result = ProcSetResult(nprocs=nprocs)
    all_procs = frozenset(range(nprocs))

    # Entry sets: main is the parent; workers are entered by all
    # processes; helpers inherit the union of their call sites'
    # statement-level sets (computed below, so iterate top-down).
    for name in checked.symtab.funcs:
        result.entry[name] = frozenset()
    result.entry["main"] = frozenset({MAIN_PROC})
    for w in pdvinfo.workers:
        result.entry[w] = all_procs
    for w in cg.spawned - set(pdvinfo.workers):
        # spawned but without a recognized PDV: all processes, unknown pid
        result.entry[w] = all_procs

    order = list(reversed(cg.bottom_up_order()))
    for caller in order:
        fsym = checked.symtab.funcs.get(caller)
        if fsym is None:  # pragma: no cover
            continue
        entry = result.entry.get(caller, frozenset())
        if not entry:
            result.sets[caller] = {}
            continue
        local = _annotate_function(
            fsym.defn, entry, pdvinfo, nprocs
        )
        result.sets[caller] = local
        for site in cg.sites_in(caller):
            if site.call.name == "create":
                continue
            site_set = local.get(id(site.stmt), entry)
            result.entry[site.callee] = result.entry[site.callee] | site_set
    return result


def _annotate_function(
    fn: A.FuncDef,
    entry: frozenset[int],
    pdvinfo: PDVInfo,
    nprocs: int,
) -> dict[int, frozenset[int]]:
    bindings = pdvinfo.bindings.get(fn.name, {})
    inv = pdvinfo.invariant_globals
    sets: dict[int, frozenset[int]] = {}

    def visit(stmt: A.Stmt, procs: frozenset[int]) -> None:
        sets[id(stmt)] = procs
        if isinstance(stmt, A.Block):
            for s in stmt.body:
                visit(s, procs)
        elif isinstance(stmt, A.If):
            then_set, else_set = branch_split(stmt.cond, procs, bindings, inv, nprocs)
            visit(stmt.then, then_set)
            if stmt.orelse is not None:
                visit(stmt.orelse, else_set)
        elif isinstance(stmt, A.While):
            visit(stmt.body, procs)
        elif isinstance(stmt, A.For):
            if stmt.init is not None:
                visit(stmt.init, procs)
            if stmt.update is not None:
                visit(stmt.update, procs)
            visit(stmt.body, procs)

    visit(fn.body, entry)
    return sets
