"""Semantic-equivalence oracle.

The paper's transformations change *memory placement*, never program
meaning: "the transformations preserve the semantics of the program"
is the premise every result rests on.  This module checks that premise
mechanically — a program is executed under its natural layout and again
under one or more transform plans, and everything the program can
*observe* must be identical:

* the lines the program printed, in order;
* ``main``'s return code;
* the final value of every scalar reachable from the shared globals,
  addressed *logically* (``nodes[3].excess``) so values can be compared
  across layouts that place them at different physical addresses.

The logical snapshot is the "fold through the region map": each leaf is
resolved to its physical address through the version's
:class:`~repro.layout.datalayout.DataLayout` (which is exactly the
mapping the region map inverts) and the interpreter's final memory image
is read back at that address.  Fields relocated by the indirection
transformation are followed through their pointer cell into the arena.

Runs here go through the interpreter directly — never the persistent
trace cache — both because the oracle needs the final memory image
(which :class:`~repro.runtime.trace.RunResult` does not carry) and so a
deliberately broken layout can never poison the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import analyze_program
from repro.lang import ctypes as T
from repro.lang.checker import CheckedProgram
from repro.layout.datalayout import DataLayout
from repro.rsd.descriptor import RSD, Range
from repro.rsd.expr import Affine
from repro.runtime.interpreter import Interpreter
from repro.runtime.stealing import SchedConfig
from repro.runtime.trace import RunResult
from repro.transform import decide_transformations
from repro.transform.plan import (
    GroupMember,
    Indirection,
    LockPad,
    PadAlign,
    TransformPlan,
)

#: Cap on mismatch details carried in one verdict (the full diff of a
#: large array adds nothing over its first few entries).
MAX_MISMATCHES = 8

#: Default step budget for oracle runs: generated programs are tiny, so
#: anything near this bound is a runaway (e.g. a corrupted lock word
#: spinning forever under a broken layout) and should fault fast.
ORACLE_MAX_STEPS = 2_000_000


@dataclass(slots=True)
class ObservedState:
    """Everything a program run exposes to an observer."""

    output: tuple[str, ...]
    exit_value: int | None
    #: logical path ("a[3].x") -> final value
    globals: dict[str, object]


@dataclass(slots=True)
class Verdict:
    """Outcome of comparing one transformed version to the baseline."""

    plan_label: str
    plan_desc: str
    nprocs: int
    ok: bool
    mismatches: list[str] = field(default_factory=list)
    #: exception text when the version crashed instead of diverging
    error: str | None = None

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        head = f"[{status}] plan={self.plan_label} nprocs={self.nprocs}"
        if self.error:
            return f"{head} error: {self.error}"
        if self.mismatches:
            return head + "".join(f"\n    {m}" for m in self.mismatches)
        return head


# ---------------------------------------------------------------------------
# Logical snapshot
# ---------------------------------------------------------------------------


def _scalar_leaves(name: str, ty: T.CType, steps: tuple, out: list) -> None:
    """Enumerate (label, steps) for every comparable scalar reachable
    from a global declaration.  Pointers are skipped (their values are
    addresses, legitimately layout-dependent); locks are skipped (their
    transient spin words are not program state)."""
    if isinstance(ty, T.ArrayType):
        dims = ty.dims
        elem = ty.elem

        def rec(prefix: str, coords: tuple, depth: int) -> None:
            if depth == len(dims):
                _scalar_leaves(
                    prefix, elem,
                    steps + tuple(("idx", c) for c in coords), out,
                )
                return
            for i in range(dims[depth]):
                rec(f"{prefix}[{i}]", coords + (i,), depth + 1)

        rec(name, (), 0)
        return
    if isinstance(ty, T.StructType):
        for f in ty.fields:
            _scalar_leaves(
                f"{name}.{f.name}", f.type, steps + (("field", f.name),), out
            )
        return
    if isinstance(ty, (T.PointerType, T.LockType)):
        return
    out.append((name, steps, ty))


def _read_leaf(
    layout: DataLayout,
    mem: dict[int, object],
    base: str,
    steps: tuple,
    leaf_ty: T.CType,
):
    """Resolve one scalar leaf the way the interpreter would.

    The path resolves statically until (if ever) it crosses an
    indirected field; the pointer cell for such a field sits at the
    field's offset within the *prefix* placement (indirection takes
    precedence over grouping, matching ``Interpreter._lower_field``),
    and the value lives behind it in a per-process arena, reached by the
    layout's step walker.  Purely static paths resolve through
    ``layout.materialize``, which applies the group-region and padding
    placements.
    """
    ty: T.CType = layout.globals[base].type
    for n, (kind, val) in enumerate(steps):
        if kind == "field" and layout.is_indirected(ty.name, str(val)):
            fld = layout.field_of(ty.name, str(val))
            struct_addr, _ = layout.materialize(base, steps[:n])
            slot = mem.get(struct_addr + fld.offset, 0)
            if not slot:
                return _default(leaf_ty)
            raw, _ = layout.walk(int(slot), fld.type.target, steps[n + 1:])
            return mem.get(raw, _default(leaf_ty))
        _, ty = layout.walk(0, ty, ((kind, val),))
    return mem.get(layout.materialize(base, steps)[0], _default(leaf_ty))


def snapshot_globals(
    checked: CheckedProgram, layout: DataLayout, mem: dict[int, object]
) -> dict[str, object]:
    """Read the final value of every global scalar leaf through the
    layout — the logical view that stays comparable across layouts."""
    snap: dict[str, object] = {}
    for g in checked.program.globals:
        leaves: list[tuple[str, tuple, T.CType]] = []
        _scalar_leaves(g.name, g.type, (), leaves)
        for label, steps, leaf_ty in leaves:
            snap[label] = _read_leaf(layout, mem, g.name, steps, leaf_ty)
    return snap


def _default(ty: T.CType):
    return 0.0 if isinstance(ty, T.DoubleType) else 0


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def observe(
    checked: CheckedProgram,
    plan: TransformPlan | None,
    nprocs: int,
    *,
    block_size: int = 128,
    max_steps: int = ORACLE_MAX_STEPS,
    sched: SchedConfig | None = None,
) -> tuple[ObservedState, RunResult]:
    """Execute one version and capture its observable state.

    ``sched`` selects the execution schedule.  Both scheduler kinds
    consume randomness (if any) independently of data addresses, so a
    fixed config replays the same interleaving under every layout —
    which is what makes the natural-vs-transformed comparison sound
    under a stochastic schedule.
    """
    layout = DataLayout(checked, plan, block_size=block_size, nprocs=nprocs)
    interp = Interpreter(
        checked, layout, nprocs, max_steps=max_steps, sched=sched
    )
    run = interp.run()
    state = ObservedState(
        output=tuple(run.output),
        exit_value=run.exit_value,
        globals=snapshot_globals(checked, layout, interp.mem),
    )
    return state, run


def diff_states(base: ObservedState, other: ObservedState) -> list[str]:
    """Human-readable mismatches, bounded to :data:`MAX_MISMATCHES`."""
    out: list[str] = []
    if base.exit_value != other.exit_value:
        out.append(
            f"exit value: N={base.exit_value!r} vs {other.exit_value!r}"
        )
    if base.output != other.output:
        n, m = len(base.output), len(other.output)
        if n != m:
            out.append(f"output length: N={n} vs {m}")
        for i, (a, b) in enumerate(zip(base.output, other.output)):
            if a != b:
                out.append(f"output[{i}]: N={a!r} vs {b!r}")
                if len(out) >= MAX_MISMATCHES:
                    return out
    for label, a in base.globals.items():
        b = other.globals.get(label, _MISSING)
        if b is _MISSING:
            out.append(f"{label}: missing from transformed snapshot")
        elif a != b:
            out.append(f"{label}: N={a!r} vs {b!r}")
        if len(out) >= MAX_MISMATCHES:
            break
    return out


_MISSING = object()


# ---------------------------------------------------------------------------
# Candidate plans
# ---------------------------------------------------------------------------


def candidate_plans(
    checked: CheckedProgram, nprocs: int, block_size: int
) -> list[tuple[str, TransformPlan]]:
    """Plans to differentiate a program against.

    Beyond the compiler's own plan, synthesized exhaustive plans force
    every transformation leg through the layout engine even when the
    heuristics would decline — pad & align on every global, lock padding
    everywhere, record padding, blocked group & transpose, and
    indirection of every struct field.  A layout bug in any leg then
    shows up on *every* program that touches the data, not only on
    programs the heuristics happen to transform.
    """
    plans: list[tuple[str, TransformPlan]] = []
    pa = analyze_program(checked, nprocs)
    plans.append(
        ("C", decide_transformations(pa, block_size=block_size))
    )

    pads: list[PadAlign] = []
    lock_pads: list[LockPad] = []
    for g in checked.program.globals:
        ty = g.type
        base_elem = ty.elem if isinstance(ty, T.ArrayType) else ty
        if isinstance(base_elem, T.LockType):
            lock_pads.append(LockPad(base=g.name))
        elif isinstance(ty, T.ArrayType) and len(ty.dims) == 1:
            pads.append(PadAlign(g.name, per_element=True))
        else:
            pads.append(PadAlign(g.name))
    for sname, st in checked.symtab.structs.items():
        assert isinstance(st, T.StructType)
        for f in st.fields:
            if isinstance(f.type, T.LockType):
                lock_pads.append(LockPad(struct_field=(sname, f.name)))
    if pads or lock_pads:
        plans.append(
            (
                "pad-all",
                TransformPlan(nprocs=nprocs, pads=pads, lock_pads=list(lock_pads)),
            )
        )

    if checked.symtab.structs:
        plans.append(
            (
                "recpad-all",
                TransformPlan(
                    nprocs=nprocs,
                    record_pads=sorted(checked.symtab.structs),
                    lock_pads=list(lock_pads),
                ),
            )
        )
        indirections = [
            Indirection(sname, f.name)
            for sname, st in sorted(checked.symtab.structs.items())
            for f in st.fields
            if not isinstance(f.type, (T.LockType, T.PointerType))
        ]
        if indirections:
            plans.append(
                (
                    "indirect-all",
                    TransformPlan(nprocs=nprocs, indirections=indirections),
                )
            )

    members: list[GroupMember] = []
    for g in checked.program.globals:
        ty = g.type
        if (
            isinstance(ty, T.ArrayType)
            and len(ty.dims) == 1
            and isinstance(ty.elem, (T.IntType, T.DoubleType))
        ):
            chunk = max((ty.dims[0] + nprocs - 1) // nprocs, 1)
            members.append(
                GroupMember(
                    base=g.name,
                    partition=RSD(
                        (
                            Range(
                                Affine.pdv(chunk),
                                Affine.pdv(chunk) + (chunk - 1),
                                1,
                            ),
                        )
                    ),
                )
            )
    if members:
        plans.append(
            ("group-blocked", TransformPlan(nprocs=nprocs, group=members))
        )
    return plans


# ---------------------------------------------------------------------------
# The oracle proper
# ---------------------------------------------------------------------------


def check_program(
    checked: CheckedProgram,
    nprocs: int,
    *,
    block_size: int = 128,
    plans: list[tuple[str, TransformPlan]] | None = None,
    max_steps: int = ORACLE_MAX_STEPS,
    sched: SchedConfig | None = None,
) -> tuple[list[Verdict], RunResult]:
    """Run the equivalence oracle over every candidate plan.

    Returns the per-plan verdicts plus the baseline (natural-layout) run,
    which callers feed to the simulator invariant checks.  All runs —
    baseline and transformed — execute under the same ``sched``, so the
    comparison isolates the layout as the only variable.
    """
    if plans is None:
        plans = candidate_plans(checked, nprocs, block_size)
    base_state, base_run = observe(
        checked, None, nprocs,
        block_size=block_size, max_steps=max_steps, sched=sched,
    )
    verdicts: list[Verdict] = []
    for label, plan in plans:
        try:
            state, _run = observe(
                checked, plan, nprocs,
                block_size=block_size, max_steps=max_steps, sched=sched,
            )
        except Exception as e:  # a crash is as disqualifying as a diff
            verdicts.append(
                Verdict(
                    plan_label=label,
                    plan_desc=plan.describe(),
                    nprocs=nprocs,
                    ok=False,
                    error=f"{type(e).__name__}: {e}",
                )
            )
            continue
        mismatches = diff_states(base_state, state)
        verdicts.append(
            Verdict(
                plan_label=label,
                plan_desc=plan.describe(),
                nprocs=nprocs,
                ok=not mismatches,
                mismatches=mismatches,
            )
        )
    return verdicts, base_run
