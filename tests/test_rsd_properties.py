"""Property-based tests for the RSD algebra and the region map.

Runs under hypothesis when it is installed; a seeded stdlib-random
driver covers the same properties otherwise, so the suite's coverage
does not depend on optional packages.
"""

from __future__ import annotations

import random

import pytest

from dataclasses import dataclass
from itertools import product

from repro.lang import compile_source
from repro.layout.datalayout import GROUP_BASE, DataLayout
from repro.layout.regions import build_region_map
from repro.rsd.descriptor import RSD, UNKNOWN, Point, Range, StridedUnknown, Unknown
from repro.rsd.expr import Affine
from repro.rsd.ops import (
    ap_intersect,
    disjoint_across_pdv,
    merge_elems,
    merge_rsds,
    owner_of,
    owner_table,
    sections_intersect,
)
from repro.transform.plan import GroupMember, TransformPlan

from conftest import COUNTER_SRC, HEAP_SRC

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev deps
    HAVE_HYPOTHESIS = False

CASES = 300


def _ap_elements(ap: tuple[int, int, int]) -> set[int]:
    lo, hi, stride = ap
    return set(range(lo, hi + 1, stride))


def _random_ap(rng: random.Random) -> tuple[int, int, int]:
    lo = rng.randint(-20, 40)
    return (lo, lo + rng.randint(0, 60), rng.randint(1, 8))


def _random_elem(rng: random.Random):
    """A Point or Range, possibly PDV-dependent."""
    coeff = rng.choice((0, 0, 1, 2, 4, 8))
    base = rng.randint(0, 30)
    lo = Affine.pdv(coeff) + base
    if rng.random() < 0.3:
        return Point(lo)
    return Range(lo, lo + rng.randint(0, 24), rng.randint(1, 4))


def _elem_values(elem, pdv: int) -> set[int]:
    return _ap_elements(elem.instantiate(pdv))


# -- ap_intersect exactness --------------------------------------------------


def check_ap_intersect_exact(a, b):
    assert ap_intersect(a, b) == bool(_ap_elements(a) & _ap_elements(b))


def test_ap_intersect_matches_bruteforce_seeded():
    rng = random.Random(0)
    for _ in range(CASES):
        check_ap_intersect_exact(_random_ap(rng), _random_ap(rng))


if HAVE_HYPOTHESIS:
    ap_strategy = st.tuples(
        st.integers(-50, 50), st.integers(0, 80), st.integers(1, 9)
    ).map(lambda t: (t[0], t[0] + t[1], t[2]))

    @settings(max_examples=200, deadline=None)
    @given(ap_strategy, ap_strategy)
    def test_ap_intersect_matches_bruteforce_hypothesis(a, b):
        check_ap_intersect_exact(a, b)


# -- sections_intersect soundness --------------------------------------------


def check_sections_sound(rsd_a, pdv_a, rsd_b, pdv_b):
    """sections_intersect may over-approximate but never under-approximate."""
    inst_a, inst_b = rsd_a.instantiate(pdv_a), rsd_b.instantiate(pdv_b)
    truly = all(
        bool(_ap_elements(da) & _ap_elements(db))
        for da, db in zip(inst_a, inst_b)
    )
    got = sections_intersect(rsd_a, pdv_a, rsd_b, pdv_b)
    if truly:
        assert got, f"missed overlap: {rsd_a}@{pdv_a} vs {rsd_b}@{pdv_b}"
    else:
        assert not got, "exact 1-elem-per-dim case must be exact"


def test_sections_intersect_sound_seeded():
    rng = random.Random(1)
    for _ in range(CASES):
        ndim = rng.randint(1, 3)
        a = RSD(tuple(_random_elem(rng) for _ in range(ndim)))
        b = RSD(tuple(_random_elem(rng) for _ in range(ndim)))
        check_sections_sound(a, rng.randint(0, 3), b, rng.randint(0, 3))


# -- merge soundness (union over-approximation) ------------------------------


def check_merge_covers_both(a, b, pdvs=(0, 1, 3)):
    merged, _cost = merge_elems(a, b)
    if isinstance(merged, (Unknown, StridedUnknown)):
        return  # unbounded elements cover everything
    for pdv in pdvs:
        want = _elem_values(a, pdv) | _elem_values(b, pdv)
        got = _ap_elements(merged.instantiate(pdv))
        assert want <= got, (
            f"merge of {a} and {b} lost {sorted(want - got)[:5]} at pdv={pdv}"
        )


def test_merge_elems_is_union_superset_seeded():
    rng = random.Random(2)
    for _ in range(CASES):
        check_merge_covers_both(_random_elem(rng), _random_elem(rng))


def test_merge_rsds_is_union_superset_seeded():
    rng = random.Random(3)
    for _ in range(150):
        ndim = rng.randint(1, 2)
        a = RSD(tuple(_random_elem(rng) for _ in range(ndim)))
        b = RSD(tuple(_random_elem(rng) for _ in range(ndim)))
        merged, _cost = merge_rsds(a, b)
        for pdv in (0, 2):
            ia, ib = a.instantiate(pdv), b.instantiate(pdv)
            im = merged.instantiate(pdv)
            if im is None:
                continue
            for d in range(ndim):
                want = _ap_elements(ia[d]) | _ap_elements(ib[d])
                assert want <= _ap_elements(im[d])


if HAVE_HYPOTHESIS:
    elem_strategy = st.builds(
        lambda coeff, base, span, stride, is_point: (
            Point(Affine.pdv(coeff) + base)
            if is_point
            else Range(
                Affine.pdv(coeff) + base,
                Affine.pdv(coeff) + base + span,
                stride,
            )
        ),
        st.sampled_from([0, 1, 2, 4, 8]),
        st.integers(0, 30),
        st.integers(0, 24),
        st.integers(1, 4),
        st.booleans(),
    )

    @settings(max_examples=200, deadline=None)
    @given(elem_strategy, elem_strategy, st.integers(1, 6))
    def test_merge_elems_is_union_superset_hypothesis(a, b, nprocs):
        check_merge_covers_both(a, b)
        # the same elements as partitions: owner_table is owner_of per
        # element, also once an early process's section is unknown or
        # of the wrong rank
        for rsd, dims in (
            (RSD((a,)), (40,)),
            (RSD((a, b)), (10, 10)),
            (RSD((UNKNOWN, b)), (10, 10)),
            (_VanishingAt((a, b), nprocs // 2), (10, 10)),
            (RSD((a,)), (6, 6)),
        ):
            check_owner_table(rsd, dims, nprocs)


# -- ownership / disjointness ------------------------------------------------


@dataclass(frozen=True)
class _VanishingAt(RSD):
    """A descriptor with no section (instantiating to None) for process
    ``pid`` alone."""

    pid: int = 0

    def instantiate(self, pdv: int):
        return None if pdv == self.pid else super().instantiate(pdv)


def check_owner_table(rsd: RSD, dims: tuple[int, ...], nprocs: int) -> None:
    want = [owner_of(rsd, i, nprocs) for i in product(*(range(d) for d in dims))]
    assert owner_table(rsd, dims, nprocs) == want


def test_disjoint_across_pdv_implies_unique_owner():
    rng = random.Random(4)
    nprocs = 4
    found_disjoint = 0
    for _ in range(CASES):
        chunk = rng.choice((1, 2, 4, 8, 16))
        span = rng.randint(0, chunk * 2)
        rsd = RSD(
            (
                Range(
                    Affine.pdv(chunk),
                    Affine.pdv(chunk) + span,
                    rng.randint(1, 2),
                ),
            )
        )
        if not disjoint_across_pdv(rsd, nprocs):
            continue
        found_disjoint += 1
        for p in range(nprocs):
            lo, hi, stride = rsd.instantiate(p)[0]
            for x in range(lo, hi + 1, stride):
                assert owner_of(rsd, (x,), nprocs) == p
    assert found_disjoint > 20  # the generator must hit real partitions


# -- group & transpose containment ------------------------------------------


def _blocked_member(base: str, nelems: int, nprocs: int) -> GroupMember:
    chunk = max((nelems + nprocs - 1) // nprocs, 1)
    return GroupMember(
        base=base,
        partition=RSD(
            (Range(Affine.pdv(chunk), Affine.pdv(chunk) + (chunk - 1), 1),)
        ),
    )


@pytest.mark.parametrize("nprocs", [2, 4])
def test_group_region_sections_are_bounded_and_disjoint(nprocs):
    """After group & transpose, each owner's elements land in one
    bounded, block-aligned section; sections never interleave."""
    checked = compile_source(COUNTER_SRC)
    bs = 128
    plan = TransformPlan(
        nprocs=nprocs,
        group=[
            _blocked_member("counter", 16, nprocs),
            _blocked_member("sums", 16, nprocs),
        ],
    )
    layout = DataLayout(checked, plan, block_size=bs, nprocs=nprocs)
    spans: dict[int, list[int]] = {p: [] for p in range(nprocs)}
    for placed in layout.group_members():
        member = next(m for m in plan.group if m.base == placed.base)
        for flat, addr in enumerate(placed.table):
            owner = owner_of(member.partition, (flat,), nprocs)
            assert owner is not None, f"{base}[{flat}] has no owner"
            spans[owner].append(addr)
            assert addr >= GROUP_BASE
    intervals = sorted(
        (min(a), max(a), p) for p, a in spans.items() if a
    )
    assert len(intervals) == nprocs
    for (lo1, hi1, p1), (lo2, hi2, p2) in zip(intervals, intervals[1:]):
        assert hi1 < lo2, f"sections of proc {p1} and {p2} interleave"
        # a later owner's section starts on a fresh cache block
        assert lo2 % bs == 0
    assert layout.group_region_size > 0


# -- regions.names_in_range round trip ---------------------------------------


@pytest.mark.parametrize("src", [COUNTER_SRC, HEAP_SRC])
def test_region_map_round_trip(src):
    """Every address inside a global resolves to its name, and every
    window names exactly the structures it overlaps."""
    checked = compile_source(src)
    layout = DataLayout(checked, None, block_size=128, nprocs=4)
    regions = build_region_map(layout)
    rng = random.Random(5)
    infos = list(layout.globals.values())
    for info in infos:
        for _ in range(20):
            addr = info.base + rng.randrange(info.size)
            assert regions.name_of(addr) == info.name
            assert info.name in regions.names_in_range(addr, addr + 1)
    # windows spanning consecutive globals name both residents, in order
    ordered = sorted(infos, key=lambda i: i.base)
    for a, b in zip(ordered, ordered[1:]):
        names = regions.names_in_range(a.base, b.base + b.size)
        assert names.index(a.name) < names.index(b.name)


def test_names_in_range_window_is_exact():
    checked = compile_source(COUNTER_SRC)
    layout = DataLayout(checked, None, block_size=128, nprocs=4)
    regions = build_region_map(layout)
    rng = random.Random(6)
    lo_all = min(i.base for i in layout.globals.values())
    hi_all = max(i.base + i.size for i in layout.globals.values())
    for _ in range(200):
        lo = rng.randrange(lo_all, hi_all)
        hi = lo + rng.randint(1, 256)
        names = set(regions.names_in_range(lo, hi))
        expected = {
            i.name
            for i in layout.globals.values()
            if i.base < hi and i.base + i.size > lo
        }
        assert expected <= names
        extra = names - expected
        assert extra <= {"(unknown)"}, f"spurious names {extra}"
