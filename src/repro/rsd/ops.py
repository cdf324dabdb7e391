"""Algebra on bounded regular section descriptors.

Three groups of operations:

* **projection** — turning an index expression that is affine in loop
  induction variables into a :class:`~repro.rsd.descriptor.Range` by
  substituting the loops' bounds (this is how the summary side-effect
  analysis builds sections when it leaves a loop);
* **merging** — the paper keeps *multiple* descriptors per array and
  merges "only ... when very little or no information will be lost, or
  when the number of descriptors for a single array exceeds some small
  preset limit"; :func:`merge_elems` returns the merged element together
  with an information-loss estimate in [0, 1];
* **disjointness** — the test at the core of implicit-partition
  detection: "when a regular section descriptor contains a PDV in the
  index expressions, we test whether the descriptor identifies disjoint
  sections of the array for different values of the variable".
"""

from __future__ import annotations

from math import gcd, prod
from typing import Optional

import numpy as np

from repro.rsd.descriptor import (
    RSD,
    Elem,
    Point,
    Range,
    StridedUnknown,
    UNKNOWN,
    Unknown,
)
from repro.rsd.expr import OPAQUE_PREFIX, PDV, Affine

# --------------------------------------------------------------------------
# Projection of loop variables
# --------------------------------------------------------------------------


def project_loops(
    index: Affine,
    loop_bounds: dict[str, tuple[Affine, Affine, int]],
) -> Elem:
    """Project loop induction variables out of ``index``.

    ``loop_bounds`` maps an induction variable name to its inclusive
    bounds ``(lo, hi, step)``; bounds may themselves be affine in the PDV
    (but not in other loop variables — callers substitute outer loops
    first).  Returns a Point when no loop variable occurs, a Range when
    the projection is representable, and Unknown otherwise.

    The projected range conservatively *contains* every accessed index:
    the reported stride is the gcd of the per-variable strides, so the
    range is a superset arithmetic progression — which keeps disjointness
    tests sound (disjoint supersets imply disjoint access sets).
    """
    loop_syms = [
        s for s in index.symbols
        if s != PDV and not s.startswith(OPAQUE_PREFIX)
    ]
    opaque_in_index = any(s.startswith(OPAQUE_PREFIX) for s in index.symbols)
    if not loop_syms:
        if opaque_in_index:
            # a single subscript at a data-dependent position
            return UNKNOWN
        return Point(index)
    lo_acc = index
    hi_acc = index
    stride = 0
    saw_opaque = opaque_in_index
    for sym in loop_syms:
        if sym not in loop_bounds:
            return UNKNOWN
        lo_b, hi_b, step = loop_bounds[sym]
        if step <= 0:
            return UNKNOWN
        for bound in (lo_b, hi_b):
            for s in bound.symbols:
                if s == PDV:
                    continue
                if s.startswith(OPAQUE_PREFIX):
                    saw_opaque = True
                else:
                    return UNKNOWN
        c = index.coeff(sym)
        # Trip count must be non-negative for the projection to make
        # sense; if bounds are symbolic in the PDV we cannot verify, so
        # accept (the workloads' loops are forward).
        if c >= 0:
            lo_sub, hi_sub = lo_b, hi_b
        else:
            lo_sub, hi_sub = hi_b, lo_b
        lo_acc = _subst_sym(lo_acc, sym, lo_sub, c)
        hi_acc = _subst_sym(hi_acc, sym, hi_sub, c)
        stride = gcd(stride, abs(c) * step)
    if stride == 0:
        # every coefficient was zero after all; degenerate point
        return UNKNOWN if saw_opaque else Point(lo_acc)
    if saw_opaque or any(
        s != PDV and not s.startswith(OPAQUE_PREFIX)
        for s in (lo_acc.symbols | hi_acc.symbols)
    ):
        # bounds are data-dependent but the stride is known — Topopt's
        # revolving-partition case
        return StridedUnknown(stride)
    span = hi_acc - lo_acc
    if span.is_constant and span.const < 0:  # pragma: no cover - defensive
        return UNKNOWN
    return Range(lo_acc, hi_acc, stride)


def _subst_sym(acc: Affine, sym: str, bound: Affine, coeff: int) -> Affine:
    """Replace the ``coeff * sym`` contribution in ``acc`` by
    ``coeff * bound``."""
    cur = acc.coeff(sym)
    if cur == 0:
        return acc
    scaled = bound.scale(coeff)
    return acc + scaled - Affine.var(sym, cur)


# --------------------------------------------------------------------------
# Merging
# --------------------------------------------------------------------------


def _elem_count(e: Elem) -> Optional[int]:
    if isinstance(e, Point):
        return 1
    if isinstance(e, Range):
        return e.count
    return None


def merge_elems(a: Elem, b: Elem) -> tuple[Elem, float]:
    """Merge two descriptor elements; return (merged, loss) where loss
    estimates the fraction of the merged section covering indices in
    neither input (0 = lossless, 1 = all information lost)."""
    if a == b:
        return a, 0.0
    if isinstance(a, Unknown) or isinstance(b, Unknown):
        return UNKNOWN, 1.0
    if isinstance(a, StridedUnknown) or isinstance(b, StridedUnknown):
        sa = a.stride if isinstance(a, StridedUnknown) else _as_range(a)[2]
        sb = b.stride if isinstance(b, StridedUnknown) else _as_range(b)[2]
        return StridedUnknown(gcd(sa, sb) or 1), 0.5
    a_lo, a_hi, a_st = _as_range(a)
    b_lo, b_hi, b_st = _as_range(b)
    # Sections must slide together across processes: the PDV coefficient
    # of the bounds has to agree, otherwise the union is not a section.
    if (
        a_lo.pdv_coeff != b_lo.pdv_coeff
        or a_hi.pdv_coeff != b_hi.pdv_coeff
        or a_lo.pdv_coeff != a_hi.pdv_coeff
    ):
        return UNKNOWN, 1.0
    d_lo = b_lo - a_lo
    d_hi = b_hi - a_hi
    if not (d_lo.is_constant and d_hi.is_constant):
        return UNKNOWN, 1.0
    lo = a_lo if d_lo.const >= 0 else b_lo
    hi = a_hi if d_hi.const <= 0 else b_hi
    stride = gcd(gcd(a_st, b_st), abs(d_lo.const))
    if stride == 0:
        stride = max(a_st, 1)
    merged = Range(lo, hi, stride)
    if merged.count == 1:
        merged_elem: Elem = Point(lo)
    else:
        merged_elem = merged
    ca, cb, cm = _elem_count(a), _elem_count(b), _elem_count(merged)
    if ca is None or cb is None or cm is None or cm <= 0:
        return merged_elem, 0.5
    loss = max(0.0, (cm - ca - cb) / cm)
    return merged_elem, loss


def _as_range(e: Elem) -> tuple[Affine, Affine, int]:
    if isinstance(e, Point):
        return e.value, e.value, 1
    assert isinstance(e, Range)
    return e.lo, e.hi, e.stride


def merge_rsds(a: RSD, b: RSD) -> tuple[RSD, float]:
    """Merge two descriptors dimension-wise; loss is the max over dims."""
    if a.ndim != b.ndim:
        return RSD(tuple(UNKNOWN for _ in range(max(a.ndim, b.ndim)))), 1.0
    elems: list[Elem] = []
    loss = 0.0
    for ea, eb in zip(a.elems, b.elems):
        m, l = merge_elems(ea, eb)
        elems.append(m)
        loss = max(loss, l)
    return RSD(tuple(elems)), loss


#: The paper: "None of the arrays used in our benchmarks required more
#: than 10 descriptors."
MAX_DESCRIPTORS = 10

#: Merge eagerly only when the loss estimate is below this.
LOSSLESS_THRESHOLD = 0.05


def add_descriptor(existing: list[tuple[RSD, float]], rsd: RSD, weight: float) -> None:
    """Add ``(rsd, weight)`` to a descriptor list, merging per the paper's
    policy: merge when (nearly) lossless, otherwise keep separate until
    :data:`MAX_DESCRIPTORS` is exceeded, then merge the cheapest pair."""
    for i, (old, w) in enumerate(existing):
        if old == rsd:
            existing[i] = (old, w + weight)
            return
        merged, loss = merge_rsds(old, rsd)
        if loss <= LOSSLESS_THRESHOLD and not merged.has_unknown:
            existing[i] = (merged, w + weight)
            return
    existing.append((rsd, weight))
    while len(existing) > MAX_DESCRIPTORS:
        _merge_cheapest_pair(existing)


def _merge_cheapest_pair(existing: list[tuple[RSD, float]]) -> None:
    best: tuple[float, int, int, RSD] | None = None
    for i in range(len(existing)):
        for j in range(i + 1, len(existing)):
            merged, loss = merge_rsds(existing[i][0], existing[j][0])
            if best is None or loss < best[0]:
                best = (loss, i, j, merged)
    assert best is not None
    loss, i, j, merged = best
    w = existing[i][1] + existing[j][1]
    del existing[j]
    existing[i] = (merged, w)


# --------------------------------------------------------------------------
# Disjointness / overlap
# --------------------------------------------------------------------------


def ap_intersect(
    a: tuple[int, int, int], b: tuple[int, int, int]
) -> bool:
    """Do two bounded arithmetic progressions ``(lo, hi, stride)`` share
    an element?  Exact test via CRT."""
    lo1, hi1, s1 = a
    lo2, hi2, s2 = b
    lo = max(lo1, lo2)
    hi = min(hi1, hi2)
    if lo > hi:
        return False
    g = gcd(s1, s2)
    if (lo2 - lo1) % g != 0:
        return False
    # Find the smallest x >= lo with x ≡ lo1 (mod s1), x ≡ lo2 (mod s2).
    # CRT: solutions are ≡ x0 (mod lcm(s1, s2)).
    lcm = s1 // g * s2
    # solve lo1 + k*s1 ≡ lo2 (mod s2)
    k = ((lo2 - lo1) // g * _modinv(s1 // g, s2 // g)) % (s2 // g)
    x0 = lo1 + k * s1
    # shift x0 into [lo, hi]
    if x0 < lo:
        x0 += (lo - x0 + lcm - 1) // lcm * lcm
    return x0 <= hi


def _modinv(a: int, m: int) -> int:
    if m == 1:
        return 0
    return pow(a % m, -1, m)


def sections_intersect(
    rsd_a: RSD, pdv_a: int, rsd_b: RSD, pdv_b: int
) -> bool:
    """Do two instantiated descriptors overlap?  Conservative: unknowns
    intersect everything; descriptors overlap iff every dimension
    overlaps."""
    inst_a = rsd_a.instantiate(pdv_a)
    inst_b = rsd_b.instantiate(pdv_b)
    if inst_a is None or inst_b is None:
        return True
    if len(inst_a) != len(inst_b):
        return True
    return all(ap_intersect(da, db) for da, db in zip(inst_a, inst_b))


def disjoint_across_pdv(rsd: RSD, nprocs: int) -> bool:
    """Is the section identified by ``rsd`` disjoint for every pair of
    distinct PDV values in ``[0, nprocs)``?

    This is the paper's implicit-partition test.  Returns False for
    descriptors that do not depend on the PDV or contain unknowns.
    """
    if not rsd.depends_on_pdv or rsd.has_unknown:
        return False
    try:
        insts = [rsd.instantiate(p) for p in range(nprocs)]
    except ValueError:
        return False
    for p in range(nprocs):
        for q in range(p + 1, nprocs):
            ia, ib = insts[p], insts[q]
            assert ia is not None and ib is not None
            if all(ap_intersect(da, db) for da, db in zip(ia, ib)):
                return False
    return True


def owner_of(rsd: RSD, index: tuple[int, ...], nprocs: int) -> Optional[int]:
    """Which process's section contains ``index``?  Requires a
    PDV-disjoint descriptor; returns None when no section contains it,
    and once an earlier process's section is unknown or of the wrong
    rank."""
    for p in range(nprocs):
        inst = rsd.instantiate(p)
        if inst is None or len(inst) != len(index):
            return None
        if all(
            lo <= x <= hi and (x - lo) % st == 0
            for x, (lo, hi, st) in zip(index, inst)
        ):
            return p
    return None


def owner_table(rsd: RSD, dims: tuple[int, ...], nprocs: int) -> list[Optional[int]]:
    """:func:`owner_of` of every index of a ``dims`` array, in row-major
    order: each process's section is instantiated once and evaluated
    over the whole index grid."""
    grid = np.indices(dims).reshape(len(dims), prod(dims))
    owner = np.full(grid.shape[1], -1, dtype=np.int64)
    for p in range(nprocs):
        inst = rsd.instantiate(p)
        if inst is None or len(inst) != len(dims):
            break
        hit = owner < 0
        for x, (lo, hi, st) in zip(grid, inst):
            hit &= (lo <= x) & (x <= hi) & ((x - lo) % st == 0)
        owner[hit] = p
    return [None if o < 0 else o for o in owner.tolist()]
