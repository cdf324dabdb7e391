"""Pinned address maps: every place a layout can put a global's data.

Two digests per program, both over the layouts the experiments build
(N, C and every non-empty single-kind ``C[<kind>]`` plan of each
simulation workload at 4 and 8 processes and 128 B blocks; the oracle's
candidate plans for progen seeds 0-19):

* **leaf addresses** — ``materialize`` of every node of every global's
  type tree (each scalar leaf, each partial index, each struct) and
  therefore of every group-member element, plus the region map's
  segments and the group region's size;
* **locate round trip** — every traced address of each layout's run,
  located in that layout and materialized back with ``address``.

A digest that moves means a placement moved; regenerate only on purpose
(``leaf_digest`` / ``round_trip_digest`` here).
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.analysis import analyze_program
from repro.lang import compile_source
from repro.lang import ctypes as T
from repro.layout import DataLayout
from repro.layout.regions import build_region_map
from repro.runtime import run_program
from repro.runtime.translate import _program_facts
from repro.transform import decide_transformations
from repro.transform.plan import ALL_KINDS
from repro.verify import progen
from repro.verify.oracle import candidate_plans
from repro.workloads.registry import SIMULATION_WORKLOADS

BLOCK = 128


def workload_plans(checked, nprocs: int) -> list:
    """N, C and every non-empty C[kind] plan, as the grid labels them."""
    plan = decide_transformations(analyze_program(checked, nprocs), block_size=BLOCK)
    out = [("N", None), ("C", plan)]
    out += [
        (f"C[{kind}]", plan.restricted_to({kind}))
        for kind in sorted(ALL_KINDS)
        if not plan.restricted_to({kind}).is_empty
    ]
    return out


def oracle_plans(checked, nprocs: int) -> list:
    return [("N", None)] + candidate_plans(checked, nprocs, BLOCK)


def _nodes(layout: DataLayout, ty: T.CType, steps: tuple):
    """Every access path from an object of type ``ty``: the object
    itself, each partial and full index, each field, down to scalars."""
    yield steps
    if isinstance(ty, T.ArrayType):
        inner = T.ArrayType(ty.elem, ty.dims[1:]) if len(ty.dims) > 1 else ty.elem
        for i in range(ty.dims[0]):
            yield from _nodes(layout, inner, steps + (("idx", i),))
    elif isinstance(ty, T.StructType):
        for f in layout.struct_type(ty.name).fields:
            yield from _nodes(layout, f.type, steps + (("field", f.name),))


def leaf_digest(layouts) -> str:
    """SHA-256 over every node address and type of every global, the
    region map's segments and the group region size of each layout."""
    h = hashlib.sha256()
    for label, layout in layouts:
        h.update(label.encode())
        for name, info in layout.globals.items():
            for steps in _nodes(layout, info.type, ()):
                addr, ty = layout.materialize(name, list(steps))
                h.update(f"{name}{steps}={addr}:{ty};".encode())
        segs = build_region_map(layout).segments
        h.update(repr([(s.start, s.size, s.name) for s in segs]).encode())
        h.update(repr((layout.group_region_size, layout.overlapping())).encode())
    return h.hexdigest()


def round_trip_digest(checked, runs) -> str:
    """SHA-256 over each traced address's location; asserts that every
    located address materializes back to itself."""
    heap_types, _ = _program_facts(checked)
    h = hashlib.sha256()
    for label, layout, run in runs:
        h.update(label.encode())
        heap = [(a, size, heap_types[lab]) for a, size, lab in run.heap_segments]
        for addr in np.unique(run.trace.addr).tolist():
            loc = layout.locate(addr, heap)
            if loc is not None:
                assert layout.address(loc, heap) == addr, (label, hex(addr), loc)
            h.update(f"{addr}:{loc};".encode())
    return h.hexdigest()


def layouts_of(checked, plans, nprocs: int) -> list:
    return [
        (f"{label}/{nprocs}", DataLayout(checked, plan, block_size=BLOCK, nprocs=nprocs))
        for label, plan in plans
    ]


def runs_of(checked, layouts, nprocs: int) -> list:
    return [
        (label, layout, run_program(checked, layout, nprocs))
        for label, layout in layouts
    ]


@contextmanager
def sabotaged():
    """``REPRO_VERIFY_BREAK=pad_align`` for the layouts built inside."""
    old = os.environ.get("REPRO_VERIFY_BREAK")
    os.environ["REPRO_VERIFY_BREAK"] = "pad_align"
    try:
        yield
    finally:
        if old is None:
            del os.environ["REPRO_VERIFY_BREAK"]
        else:
            os.environ["REPRO_VERIFY_BREAK"] = old


#: leaf_digest of each workload's grid layouts at 4 and 8 procs
PINNED_LEAVES = {
    "Maxflow": "73cf1e133f72c4edb2df57242373caf207a15b80ba5915f52b1d9080fb0e317d",
    "Pverify": "178fe17b82d110d8c3e9041a90bb37e26499e85897fef76d1e0f27580e80841c",
    "Topopt": "360cffcaf8fabe101fce773d6b166875ef0133078b66e15e5c1b50f65400628d",
    "Fmm": "9ab94d4dc3d681dc095aa32e201ad4efc16c8c86b28248c73246142b566299df",
    "Radiosity": "e12fafa28415943964a3500d36507464deec81b3afe7b53964fd8363f5648627",
    "Raytrace": "7152668a680b9b1fcfcdc68a1c4583ae369512e4ad62b7755c59b326d680ed1f",
}

#: round_trip_digest of the same layouts' runs
PINNED_ROUND_TRIP = {
    "Maxflow": "f17c9b7fb3e2bb9a1978343bdfd3d344b647b38349140dca4fcee61c1a5ac1cf",
    "Pverify": "5aa2fd9b3399ccb20c9ec5814ed9901a0ac354d0a1a1d3f9084fe23001cbb2c8",
    "Topopt": "a32bd057ea8b26b6b782df2549ec296644b23578dc383e97a4797cfe9817fe2c",
    "Fmm": "63fe376a8934fc703d76de92a9647d5eb17f29bcfd7635fccad7046fd61cac10",
    "Radiosity": "e724f62a6a9c9bc095df0e9e688af3aa6af34fa03d516ddfadc67165e1cd6f61",
    "Raytrace": "6e9807545e5f1072ec3094ba10ac1fc68d91aec276f254a1ff272e21a8514df9",
}

#: progen seeds 0-19 under the oracle's plans at 4 procs: both digests,
#: and the leaf digest again with the pad & align sabotage on
PINNED_PROGEN = {
    "leaves": "777772ab0c1cc1ce196ecde34f65becd0cc669d15752b1b695f8a158d232fb81",
    "round_trip": "d78ed46205ef607c133dec2ad54c257b9187bf92e0a71f952ad9fd4ffe066e05",
    "pad_align_break": "902a628e2d1abad11e8fbb39f19c395087ce92c5434038283ba0543c575f6b53",
}


@pytest.mark.parametrize("wl", SIMULATION_WORKLOADS, ids=lambda w: w.name)
def test_workload_address_maps(wl):
    checked = compile_source(wl.source)
    layouts = []
    runs = []
    for nprocs in (4, 8):
        lay = layouts_of(checked, workload_plans(checked, nprocs), nprocs)
        layouts += lay
        runs += runs_of(checked, lay, nprocs)
    assert leaf_digest(layouts) == PINNED_LEAVES[wl.name]
    assert round_trip_digest(checked, runs) == PINNED_ROUND_TRIP[wl.name]


def test_progen_address_maps():
    leaves, trips, broken = [], [], []
    for seed in range(20):
        checked = compile_source(progen.render(progen.generate(seed)))
        plans = oracle_plans(checked, 4)
        lay = layouts_of(checked, plans, 4)
        leaves.append(leaf_digest(lay))
        trips.append(round_trip_digest(checked, runs_of(checked, lay, 4)))
        with sabotaged():
            broken.append(leaf_digest(layouts_of(checked, plans, 4)))
    got = {
        "leaves": hashlib.sha256("".join(leaves).encode()).hexdigest(),
        "round_trip": hashlib.sha256("".join(trips).encode()).hexdigest(),
        "pad_align_break": hashlib.sha256("".join(broken).encode()).hexdigest(),
    }
    assert got == PINNED_PROGEN
