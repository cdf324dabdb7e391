"""Memory layout: mapping logical shared data to physical addresses.

The unoptimized layout is what a 1990s C compiler produces: globals
allocated contiguously in declaration order with natural alignment
(which is precisely what makes unrelated busy scalars share a cache
block), row-major arrays, C struct layout, and a bump allocator for
``alloc()``.

A :class:`~repro.transform.plan.TransformPlan` changes the mapping:

* **group & transpose** members move into a per-processor region: all
  elements owned by process *p* (from every member vector) are laid
  contiguously in *p*'s segment, each segment padded to a cache-block
  multiple (Figure 2a);
* **pad & align** gives the object — or each of its elements — its own
  block-aligned, block-multiple allocation;
* **lock padding** does the same for ``lock_t`` objects, lock arrays,
  and ``lock_t`` struct fields (the field is placed on its own block
  inside the struct);
* **indirection** re-types the record field to a pointer and reserves
  per-process arenas the runtime installs slots in (Figure 2b).

Each layout places every global once, as an affine map
(:class:`GlobalInfo`) or, for a group member, a flat index → address
table (:class:`Member`); every static address, inverse lookup and
region-map segment is read from those placements.

Address-space map (sparse; nothing is actually this big)::

    0x0001_0000  globals (natural or padded)
    0x0100_0000  group & transpose region
    0x0400_0000  heap (alloc/alloc_array)
    0x0800_0000  per-process arenas (indirection), 4 MiB apart
    0x0F00_0000  synchronization objects (barrier word)
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence

from repro.errors import TransformError
from repro.lang import ctypes as T
from repro.lang.checker import CheckedProgram
from repro.rsd.ops import owner_table
from repro.transform.plan import TransformPlan

GLOBALS_BASE = 0x0001_0000
GROUP_BASE = 0x0100_0000
HEAP_BASE = 0x0400_0000
ARENA_BASE = 0x0800_0000
ARENA_STRIDE = 0x0040_0000
SYNC_BASE = 0x0F00_0000

#: Address of the barrier counter word (its own block in every layout).
BARRIER_ADDR = SYNC_BASE


def _round_up(n: int, align: int) -> int:
    return (n + align - 1) // align * align


def _verify_break() -> str:
    """Value of the test-only layout-sabotage flag (see _build_globals)."""
    import os

    return os.environ.get("REPRO_VERIFY_BREAK", "").strip()


#: An access step: ("idx", i) or ("field", name).  An index whose value
#: is not an int is *open*: :meth:`DataLayout.lower` leaves it to run time.
Step = tuple[str, object]

#: Logical coordinates of one shared byte (see :meth:`DataLayout.locate`):
#: ``(space, key, steps, residual)`` where ``space`` is ``"global"`` (key:
#: the global's name), ``"heap"`` (key: the heap segment's index) or
#: ``"sync"`` (key: the fixed address), and ``residual`` is the byte
#: offset inside the scalar the steps reach.
Location = tuple[str, object, tuple[Step, ...], int]

#: A heap object as :meth:`DataLayout.locate` sees it: (address, size,
#: element type).
HeapObject = tuple[int, int, T.CType]


@dataclass(slots=True)
class GlobalInfo:
    """A global's own placement — natural, padded or lock-padded — as an
    affine map: element ``(i0, i1, ...)`` of an array lives at
    ``base + Σ iₖ·strides[k]``."""

    name: str
    type: T.CType
    base: int
    #: bytes reserved (padding included)
    size: int
    #: byte stride of each array dimension (a per-element pad's stride
    #: included); empty for a scalar or struct
    strides: tuple[int, ...] = ()


@dataclass(slots=True)
class Member:
    """A group & transpose member's placement: the address of each of
    its elements, by row-major flat index."""

    base: str
    #: field path from the global's element to the member
    path: tuple[str, ...]
    type: T.CType
    size: int
    table: list[int]

    @property
    def label(self) -> str:
        return self.base + "".join(f".{p}" for p in self.path)


class PathMap(NamedTuple):
    """A static access path lowered onto its placement.  With ``js`` the
    values of its open indices in path order, the address is ``const``
    plus the last ``len(strides)`` of them times ``strides``; for a
    group member, plus ``table[flat + Σ js·flat_strides]`` over the
    first ``len(flat_strides)``."""

    ty: T.CType
    const: int
    strides: tuple[int, ...]
    table: Optional[list[int]] = None
    flat: int = 0
    flat_strides: tuple[int, ...] = ()

    def at(self, js: Sequence[int] = ()) -> int:
        nflat = len(self.flat_strides)
        addr = self.const + sum(map(mul, js[nflat:], self.strides))
        if self.table is not None:
            addr += self.table[self.flat + sum(map(mul, js, self.flat_strides))]
        return addr


class DataLayout:
    """Physical layout of one program under one transform plan."""

    def __init__(
        self,
        checked: CheckedProgram,
        plan: Optional[TransformPlan] = None,
        *,
        block_size: int = 128,
        nprocs: int = 1,
    ):
        self.checked = checked
        self.plan = plan or TransformPlan(nprocs=nprocs)
        self.block_size = block_size
        self.nprocs = max(nprocs, self.plan.nprocs, 1)
        #: adjusted struct layouts (indirection / embedded lock padding)
        self.structs: dict[str, T.StructType] = {}
        #: (struct, field) pairs moved to arenas
        self.indirected: frozenset[tuple[str, str]] = frozenset(
            (i.struct, i.field) for i in self.plan.indirections
        )
        #: each global's own placement (a grouped member's natural slot
        #: stays reserved, vacated)
        self.globals: dict[str, GlobalInfo] = {}
        #: group & transpose placements: global -> member field path -> member
        self.members: dict[str, dict[tuple[str, ...], Member]] = {}
        self.group_region_size = 0
        #: sorted indexes behind :meth:`locate`, built on first use
        self._locate_globals: Optional[tuple[list[int], list[GlobalInfo]]] = None
        self._locate_group: Optional[tuple[list[int], list[tuple[Member, int]]]] = None
        self._build_structs()
        self._build_globals()
        self._build_group_region()

    # -- struct adjustment -------------------------------------------------------

    def _build_structs(self) -> None:
        lock_fields = {
            lp.struct_field for lp in self.plan.lock_pads if lp.struct_field
        }
        record_pads = set(self.plan.record_pads)
        for name, orig in self.checked.symtab.structs.items():
            assert isinstance(orig, T.StructType)
            members: list[tuple[str, T.CType]] = []
            for f in orig.fields:
                fty = f.type
                if (name, f.name) in self.indirected:
                    fty = T.PointerType(fty)
                members.append((f.name, fty))
            st = T.layout_struct(name, members)
            if any(sf[0] == name for sf in lock_fields):
                st = self._pad_lock_fields(
                    name, members, {sf[1] for sf in lock_fields if sf[0] == name}
                )
            if name in record_pads:
                # TLH94-style record padding: every instance occupies a
                # whole number of cache blocks
                st = T.StructType(
                    name=st.name,
                    fields=st.fields,
                    size=_round_up(st.size, self.block_size),
                    align=max(st.align, self.block_size),
                )
            self.structs[name] = st

    def _pad_lock_fields(
        self, name: str, members: list[tuple[str, T.CType]], lock_names: set[str]
    ) -> T.StructType:
        """Lay out a struct giving each padded lock field its own
        block-aligned, block-sized slot."""
        bs = self.block_size
        offset = 0
        fields: list[T.StructField] = []
        align = bs
        for fname, fty in members:
            if fname in lock_names:
                offset = _round_up(offset, bs)
                fields.append(T.StructField(fname, fty, offset))
                offset += bs
            else:
                offset = _round_up(offset, fty.align)
                fields.append(T.StructField(fname, fty, offset))
                offset += fty.size
        size = _round_up(max(offset, 1), align)
        return T.StructType(name=name, fields=tuple(fields), size=size, align=align)

    # -- sizes with overrides -------------------------------------------------------

    def struct_type(self, name: str) -> T.StructType:
        return self.structs[name]

    def sizeof(self, ty: T.CType) -> int:
        if isinstance(ty, T.StructType):
            return self.structs[ty.name].size
        if isinstance(ty, T.ArrayType):
            return ty.nelems * self.sizeof(ty.elem)
        return ty.size

    def alignof(self, ty: T.CType) -> int:
        if isinstance(ty, T.StructType):
            return self.structs[ty.name].align
        if isinstance(ty, T.ArrayType):
            return self.alignof(ty.elem)
        return ty.align

    def field_of(self, struct_name: str, field_name: str) -> T.StructField:
        fld = self.structs[struct_name].field(field_name)
        if fld is None:  # pragma: no cover - checker guarantees
            raise TransformError(f"struct {struct_name} has no field {field_name}")
        return fld

    # -- global placement --------------------------------------------------------------

    def _build_globals(self) -> None:
        bs = self.block_size
        # Test-only fault injection: REPRO_VERIFY_BREAK=pad_align
        # deliberately under-sizes every padded allocation so the next
        # global overlaps its tail.  The differential-validation oracle
        # (repro.verify) must catch the resulting corruption; nothing
        # else may ever set this.
        broken_pad = _verify_break() == "pad_align"
        pads = {p.base: p for p in reversed(self.plan.pads)}
        lockpads = {lp.base for lp in self.plan.lock_pads}
        cursor = GLOBALS_BASE
        for g in self.checked.program.globals:
            ty = g.type
            pad = pads.get(g.name)
            lockpad = g.name in lockpads
            # an array element's stride: its size, or its padded size
            estride = self.sizeof(ty.elem if isinstance(ty, T.ArrayType) else ty)
            if pad is not None or lockpad:
                cursor = _round_up(cursor, bs)
                if isinstance(ty, T.ArrayType) and (
                    lockpad or (pad is not None and pad.per_element)
                ):
                    estride = _round_up(estride, bs)
                    size = ty.nelems * estride
                else:
                    size = _round_up(self.sizeof(ty), bs)
                if broken_pad:
                    size = max(size - bs, 4)
            else:
                align = self.alignof(ty)
                cursor = _round_up(cursor, align)
                size = self.sizeof(ty)
            strides = tuple(span * estride for span in _spans(ty))
            self.globals[g.name] = GlobalInfo(g.name, ty, cursor, size, strides)
            cursor = cursor + size

    # -- group & transpose region ---------------------------------------------------------

    def _build_group_region(self) -> None:
        """Place every group member's elements: each process's elements,
        member by member, in its own block-padded segment; elements no
        process owns after the last segment."""
        bs = self.block_size
        per_owner: list[list[tuple[Member, int]]] = [[] for _ in range(self.nprocs)]
        leftover: list[tuple[Member, int]] = []
        for m in self.plan.group:
            ginfo = self.globals.get(m.base)
            if ginfo is None:
                raise TransformError(f"group member {m.base!r} is not a global")
            gty = ginfo.type
            paths = self.members.setdefault(m.base, {})
            member = paths.get(m.path)
            if member is None:
                elem = gty.elem if isinstance(gty, T.ArrayType) else gty
                _, mty = self.walk(0, elem, [("field", f) for f in m.path])
                n = gty.nelems if isinstance(gty, T.ArrayType) else 1
                member = paths[m.path] = Member(
                    m.base, m.path, mty, self.sizeof(mty), [0] * n
                )
            if not isinstance(gty, T.ArrayType):
                owners = [m.owner if m.owner is not None else 0]
            elif m.partition is not None:
                owners = owner_table(m.partition, gty.dims, self.nprocs)
            else:
                owners = [m.owner] * gty.nelems
            for flat, owner in enumerate(owners):
                (leftover if owner is None else per_owner[owner]).append((member, flat))
        cursor = GROUP_BASE
        for p, entries in enumerate([*per_owner, leftover]):
            for member, flat in entries:
                cursor = _round_up(cursor, min(member.size, 8) or 1)
                member.table[flat] = cursor
                cursor += member.size
            if p < self.nprocs:
                cursor = _round_up(cursor, bs)
        self.group_region_size = cursor - GROUP_BASE

    def group_members(self) -> Iterator[Member]:
        """Every group & transpose placement."""
        for paths in self.members.values():
            yield from paths.values()

    # -- address resolution ------------------------------------------------------------------

    def is_indirected(self, struct_name: str, field_name: str) -> bool:
        return (struct_name, field_name) in self.indirected

    #: size of each per-field sub-region within a process arena.  The
    #: odd block-sized stagger keeps regions from aliasing to the same
    #: cache sets (a real allocator packs them contiguously; sparse
    #: power-of-two strides would create artificial conflict misses).
    ARENA_SUBREGION = 0x0002_0000 + 0x80

    def arena_base(self, pid: int) -> int:
        # pid may be -1 (main); staggered to avoid set aliasing
        return ARENA_BASE + (pid + 1) * (ARENA_STRIDE + 0x180)

    def arena_region(self, pid: int, struct_name: str, field_name: str) -> int:
        """Base of the arena sub-region for one indirected field: each
        field gets its own contiguous area per process (Figure 2b), so a
        consumer reading one field is not invalidated by the owner
        writing another."""
        ordered = sorted(self.indirected)
        idx = ordered.index((struct_name, field_name))
        return self.arena_base(pid) + idx * self.ARENA_SUBREGION

    def materialize(self, base: str, steps: Sequence[Step]) -> tuple[int, T.CType]:
        """The address and type reached from global ``base`` through
        concrete access ``steps``.

        Pointer hops never appear here — the interpreter follows raw
        pointer values itself; this resolves purely static paths
        (which is where group/pad/lock layouts live).
        """
        m = self.lower(base, steps)
        return m.at(), m.ty

    def lower(self, base: str, steps: Sequence[Step]) -> PathMap:
        """Lower the static path ``steps`` from global ``base`` onto its
        placement; each open index step becomes one stride of the
        result.

        A full index into a grouped global followed by the longest field
        path that names one of its members resolves through that
        member's table; anything else — a partial index, a field no
        member covers — through the global's own affine placement.
        """
        ginfo = self.globals[base]
        k = 0
        while k < len(steps) and k < len(ginfo.strides) and steps[k][0] == "idx":
            k += 1
        paths = self.members.get(base) if k == len(ginfo.strides) else None
        if paths:
            j = k
            while j < len(steps) and steps[j][0] == "field":
                j += 1
            for end in range(j, k - 1, -1):
                member = paths.get(tuple(str(v) for _, v in steps[k:end]))
                if member is not None:
                    flat, flat_strides = _fold(steps[:k], _spans(ginfo.type), 0)
                    strides: list[int] = []
                    const, ty = self.walk(0, member.type, steps[end:], strides)
                    return PathMap(
                        ty, const, tuple(strides), member.table, flat, tuple(flat_strides)
                    )
        const, strides = _fold(steps[:k], ginfo.strides, ginfo.base)
        const, ty = self.walk(const, _elem_after(ginfo.type, k), steps[k:], strides)
        return PathMap(ty, const, tuple(strides))

    def walk(
        self,
        addr: int,
        ty: T.CType,
        steps: Sequence[Step],
        open_strides: Optional[list[int]] = None,
    ) -> tuple[int, T.CType]:
        """Follow ``steps`` through the natural layout of an object of
        type ``ty`` at ``addr``: the (address, type) they reach.  An open
        index step appends its byte stride to ``open_strides`` instead."""
        for kind, val in steps:
            if kind == "idx":
                if not isinstance(ty, T.ArrayType):  # pragma: no cover
                    raise TransformError(f"cannot index type {ty}")
                ty = T.ArrayType(ty.elem, ty.dims[1:]) if len(ty.dims) > 1 else ty.elem
                if isinstance(val, tuple):
                    open_strides.append(self.sizeof(ty))  # type: ignore[union-attr]
                else:
                    addr += int(val) * self.sizeof(ty)  # type: ignore[arg-type]
            else:
                if not isinstance(ty, T.StructType):  # pragma: no cover
                    raise TransformError(f"no field {val} in type {ty}")
                fld = self.field_of(ty.name, str(val))
                addr += fld.offset
                ty = fld.type
        return addr, ty

    # -- heap placement ----------------------------------------------------------------------

    def heap_place(self, cursor: int, ty: T.CType, count: int) -> tuple[int, int]:
        """(address, size) of an ``alloc``/``alloc_array`` of ``count``
        elements of ``ty`` bumped from ``cursor``: the one heap-placement
        rule, shared by the interpreter and the run translator."""
        size = self.sizeof(ty) * max(count, 1)
        align = max(self.alignof(ty), 8)
        return _round_up(cursor, align), size

    # -- inverse resolution -----------------------------------------------------------------

    def overlapping(self) -> bool:
        """True when some global's extent runs into the next global's
        base (only the ``REPRO_VERIFY_BREAK=pad_align`` sabotage does
        this); :meth:`locate` is ambiguous then."""
        _, infos = self._global_index()
        return any(
            g.base + self._extent(g) > nxt.base for g, nxt in zip(infos, infos[1:])
        )

    def _extent(self, g: GlobalInfo) -> int:
        ty = g.type
        if isinstance(ty, T.ArrayType):
            return (ty.nelems - 1) * g.strides[-1] + self.sizeof(ty.elem)
        return self.sizeof(ty)

    def locate(self, addr: int, heap: Sequence[HeapObject] = ()) -> Optional[Location]:
        """Logical coordinates of a shared address: the inverse of
        :meth:`materialize` (and of pointer hops into ``heap``, the
        run's allocations in address order).

        None when ``addr`` is in no object or field — padding, a gap, an
        arena — or when the coordinates found do not materialize back to
        ``addr`` (a grouped member's vacated natural slot).
        """
        if addr >= SYNC_BASE:
            return ("sync", addr, (), 0)
        if addr >= HEAP_BASE:
            i = bisect_right(heap, addr, key=lambda h: h[0]) - 1
            if i < 0 or addr >= heap[i][0] + heap[i][1]:
                return None
            start, _, ty = heap[i]
            k, off = divmod(addr - start, self.sizeof(ty))
            found = self._descend(ty, off, [("idx", k)])
            space, key = "heap", i
        elif addr >= GROUP_BASE:
            starts, entries = self._group_index()
            j = bisect_right(starts, addr) - 1
            if j < 0 or addr >= starts[j] + entries[j][0].size:
                return None
            member, flat = entries[j]
            gty = self.globals[member.base].type
            steps: list[Step] = []
            if isinstance(gty, T.ArrayType):
                steps = [("idx", c) for c in _unflatten(flat, gty.dims)]
            steps += [("field", p) for p in member.path]
            found = self._descend(member.type, addr - starts[j], steps)
            space, key = "global", member.base
        else:
            starts, infos = self._global_index()
            j = bisect_right(starts, addr) - 1
            if j < 0 or addr >= starts[j] + self._extent(infos[j]):
                return None
            g = infos[j]
            ty, off, steps = g.type, addr - g.base, []
            if isinstance(ty, T.ArrayType):
                flat, off = divmod(off, g.strides[-1])
                steps = [("idx", c) for c in _unflatten(flat, ty.dims)]
                ty = ty.elem
            found = self._descend(ty, off, steps)
            space, key = "global", g.name
        if found is None:
            return None
        loc = (space, key, tuple(found[0]), found[1])
        return loc if self.address(loc, heap) == addr else None

    def address(self, loc: Location, heap: Sequence[HeapObject] = ()) -> int:
        """The address of logical coordinates ``loc`` in this layout,
        with ``heap`` this layout's allocations (see :meth:`locate`)."""
        space, key, steps, residual = loc
        if space == "sync":
            return int(key)  # type: ignore[arg-type]
        if space == "global":
            addr, _ = self.materialize(str(key), steps)
            return addr + residual
        start, _, ty = heap[key]  # type: ignore[index]
        start += int(steps[0][1]) * self.sizeof(ty)  # type: ignore[arg-type]
        addr, _ = self.walk(start, ty, steps[1:])
        return addr + residual

    def _descend(
        self, ty: T.CType, off: int, steps: list[Step]
    ) -> Optional[tuple[list[Step], int]]:
        """Extend ``steps`` from an object of type ``ty`` down to the
        scalar holding byte ``off``; (steps, residual byte) or None when
        ``off`` falls in padding."""
        while True:
            if isinstance(ty, T.ArrayType):
                inner = T.ArrayType(ty.elem, ty.dims[1:]) if len(ty.dims) > 1 else ty.elem
                i, off = divmod(off, self.sizeof(inner))
                if i >= ty.dims[0]:
                    return None
                steps.append(("idx", i))
                ty = inner
            elif isinstance(ty, T.StructType):
                for fld in self.structs[ty.name].fields:
                    if fld.offset <= off < fld.offset + self.sizeof(fld.type):
                        break
                else:
                    return None
                steps.append(("field", fld.name))
                off -= fld.offset
                ty = fld.type
            else:
                return (steps, off) if off < ty.size else None

    def _global_index(self) -> tuple[list[int], list[GlobalInfo]]:
        got = self._locate_globals
        if got is None:
            infos = sorted(self.globals.values(), key=lambda g: g.base)
            got = self._locate_globals = ([g.base for g in infos], infos)
        return got

    def _group_index(self) -> tuple[list[int], list[tuple[Member, int]]]:
        got = self._locate_group
        if got is None:
            rows = sorted(
                ((addr, member, flat) for member in self.group_members()
                 for flat, addr in enumerate(member.table)),
                key=lambda r: r[0],
            )
            got = self._locate_group = (
                [r[0] for r in rows],
                [r[1:] for r in rows],
            )
        return got


def _elem_after(ty: T.CType, nidx: int) -> T.CType:
    if isinstance(ty, T.ArrayType):
        if nidx >= len(ty.dims):
            return ty.elem
        if nidx == 0:
            return ty
        return T.ArrayType(ty.elem, ty.dims[nidx:])
    return ty


def _spans(ty: T.CType) -> list[int]:
    """Elements spanned by one step of each of an array's dimensions
    (row-major); none for any other type."""
    dims = ty.dims if isinstance(ty, T.ArrayType) else ()
    spans = [1] * len(dims)
    for i in range(len(dims) - 1, 0, -1):
        spans[i - 1] = spans[i] * dims[i]
    return spans


def _fold(steps: Sequence[Step], strides: Sequence[int], const: int) -> tuple[int, list[int]]:
    """``const`` plus each concrete index step times its stride, and the
    strides of the open ones."""
    open_strides = []
    for (_, v), stride in zip(steps, strides):
        if isinstance(v, tuple):
            open_strides.append(stride)
        else:
            const += int(v) * stride  # type: ignore[call-overload]
    return const, open_strides


def _unflatten(flat: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    coords = []
    for d in reversed(dims):
        coords.append(flat % d)
        flat //= d
    return tuple(reversed(coords))
