"""Profile-guided transformation baseline, after Torrellas, Lam &
Hennessy [TLH94] (the paper's section 6 comparison).

TLH94 "used detailed, trace-driven simulation profiles, rather than
static analysis, to determine which data structures suffered from false
sharing and to guide the application of the transformations", and their
transformation set differs from the paper's in exactly the ways this
module reproduces:

* they **pad and align records and busy scalars** — implemented here by
  attributing simulated false-sharing misses to data structures and
  padding the offenders (arrays per element, heap record types as whole
  records, scalars to their own block);
* they **did not use group & transpose or indirection**;
* they **co-allocated locks with the data they protect** rather than
  padding them — so this baseline never emits lock pads.

The resulting plan runs through the same layout/trace/simulation
machinery as the compiler plan, which is what makes the comparison in
``benchmarks/bench_related_work.py`` apples-to-apples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.lang import ctypes as T
from repro.transform.plan import Decision, PadAlign, TransformPlan

if TYPE_CHECKING:  # pragma: no cover - imported lazily (layout imports us)
    from repro.runtime.trace import RunResult

#: A structure must carry at least this fraction of the profiled
#: false-sharing misses to be padded (TLH94 padded the top offenders).
FS_FRACTION_THRESHOLD = 0.02


def profile_guided_plan(
    run: "RunResult",
    layout,
    *,
    block_size: int = 128,
    threshold: float = FS_FRACTION_THRESHOLD,
) -> TransformPlan:
    """Derive a TLH94-style plan from a simulation profile of ``run``.

    ``layout`` must be the (unoptimized) layout the run executed under —
    it provides the reverse address map for the attribution.
    """
    from repro.layout.regions import build_region_map
    from repro.sim.metrics import simulate_run

    checked = layout.checked
    sim = simulate_run(run, block_size)
    regions = build_region_map(layout, run.heap_segments)
    # Distribute each falsely-shared block's misses over every structure
    # overlapping the block (a trace profile sees miss *addresses*, not
    # just block numbers).
    attributed: dict[str, float] = {}
    shared = sim.blocks.false_sharing > 0
    for block, count in zip(
        sim.blocks.block[shared].tolist(),
        sim.blocks.false_sharing[shared].tolist(),
    ):
        lo = block * block_size
        names = set(regions.names_of_many(np.arange(lo, lo + block_size, 4)))
        names.discard("(unknown)")
        if not names:
            continue
        share = count / len(names)
        for n in names:
            attributed[n] = attributed.get(n, 0.0) + share
    total_fs = sum(attributed.values()) or 1.0

    plan = TransformPlan(nprocs=run.nprocs)
    for name, fs_share in sorted(attributed.items(), key=lambda kv: -kv[1]):
        frac = fs_share / total_fs
        if frac < threshold:
            continue
        if name.startswith("heap:struct "):
            struct_name = name.removeprefix("heap:struct ")
            if struct_name in checked.symtab.structs:
                plan.record_pads.append(struct_name)
                plan.decisions.append(
                    Decision(
                        name, "pad_align",
                        f"profile: {100 * frac:.1f}% of FS misses — pad records",
                    )
                )
            continue
        if name.startswith("(") or name.startswith("heap:"):
            plan.decisions.append(
                Decision(name, "none", "profile cannot place this region")
            )
            continue
        sym = checked.symtab.globals.get(name)
        if sym is None:
            continue
        ty = sym.type
        if isinstance(ty, T.LockType) or (
            isinstance(ty, T.ArrayType) and isinstance(ty.elem, T.LockType)
        ):
            # TLH94 co-allocate locks with their data: no lock padding
            plan.decisions.append(
                Decision(name, "none", "TLH94 co-allocates locks with data")
            )
            continue
        per_element = isinstance(ty, T.ArrayType)
        plan.pads.append(PadAlign(base=name, per_element=per_element))
        plan.decisions.append(
            Decision(
                name, "pad_align",
                f"profile: {100 * frac:.1f}% of FS misses",
            )
        )
    # dedupe record pads
    plan.record_pads = list(dict.fromkeys(plan.record_pads))
    return plan
