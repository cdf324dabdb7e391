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

Address-space map (sparse; nothing is actually this big)::

    0x0001_0000  globals (natural or padded)
    0x0100_0000  group & transpose region
    0x0400_0000  heap (alloc/alloc_array)
    0x0800_0000  per-process arenas (indirection), 4 MiB apart
    0x0F00_0000  synchronization objects (barrier word)
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import TransformError
from repro.lang import ctypes as T
from repro.lang.checker import CheckedProgram
from repro.rsd.ops import owner_of
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


#: A concrete access step: ("idx", i) or ("field", name).
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
    name: str
    type: T.CType
    base: int
    size: int
    #: element stride override for per-element padded arrays
    elem_stride: Optional[int] = None


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
        self.globals: dict[str, GlobalInfo] = {}
        #: (base, path) -> {flat_index: addr} for group members
        self._group_addr: dict[tuple[str, tuple[str, ...]], dict[int, int]] = {}
        self._grouped_paths: dict[str, set[tuple[str, ...]]] = {}
        self.group_region_size = 0
        #: sorted indexes behind :meth:`locate`, built on first use
        self._locate_globals: Optional[tuple[list[int], list[GlobalInfo]]] = None
        self._locate_group: Optional[tuple[list[int], list[tuple]]] = None
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

    def _pad_for(self, name: str):
        for p in self.plan.pads:
            if p.base == name:
                return p
        return None

    def _lock_pad_for(self, name: str):
        for lp in self.plan.lock_pads:
            if lp.base == name:
                return lp
        return None

    def _build_globals(self) -> None:
        bs = self.block_size
        # Test-only fault injection: REPRO_VERIFY_BREAK=pad_align
        # deliberately under-sizes every padded allocation so the next
        # global overlaps its tail.  The differential-validation oracle
        # (repro.verify) must catch the resulting corruption; nothing
        # else may ever set this.
        broken_pad = _verify_break() == "pad_align"
        cursor = GLOBALS_BASE
        for g in self.checked.program.globals:
            ty = g.type
            pad = self._pad_for(g.name)
            lockpad = self._lock_pad_for(g.name)
            elem_stride: Optional[int] = None
            if pad is not None or lockpad is not None:
                cursor = _round_up(cursor, bs)
                if isinstance(ty, T.ArrayType) and (
                    lockpad is not None or (pad is not None and pad.per_element)
                ):
                    elem_stride = _round_up(self.sizeof(ty.elem), bs)
                    size = ty.nelems * elem_stride
                else:
                    size = _round_up(self.sizeof(ty), bs)
                if broken_pad:
                    size = max(size - bs, 4)
            else:
                align = self.alignof(ty)
                cursor = _round_up(cursor, align)
                size = self.sizeof(ty)
            self.globals[g.name] = GlobalInfo(g.name, ty, cursor, size, elem_stride)
            cursor = cursor + size
        self.globals_end = cursor

    # -- group & transpose region ---------------------------------------------------------

    def _build_group_region(self) -> None:
        members = self.plan.group
        if not members:
            return
        bs = self.block_size
        per_owner: dict[int, list[tuple[object, int, int]]] = {
            p: [] for p in range(self.nprocs)
        }
        leftover: list[tuple[object, int, int]] = []
        member_keys: list[tuple[str, tuple[str, ...]]] = []
        for m in members:
            key = (m.base, m.path)
            member_keys.append(key)
            self._grouped_paths.setdefault(m.base, set()).add(m.path)
            ginfo = self.globals.get(m.base)
            if ginfo is None:
                raise TransformError(f"group member {m.base!r} is not a global")
            esize = self._member_elem_size(m.base, m.path)
            if isinstance(ginfo.type, T.ArrayType):
                dims = ginfo.type.dims
                for flat in range(ginfo.type.nelems):
                    coords = _unflatten(flat, dims)
                    owner: Optional[int]
                    if m.partition is not None:
                        owner = owner_of(m.partition, coords, self.nprocs)
                    else:
                        owner = m.owner
                    entry = (key, flat, esize)
                    if owner is None:
                        leftover.append(entry)
                    else:
                        per_owner[owner].append(entry)
            else:
                owner = m.owner if m.owner is not None else 0
                per_owner[owner].append((key, 0, esize))
        cursor = GROUP_BASE
        for p in range(self.nprocs):
            for key, flat, esize in per_owner[p]:
                cursor = _round_up(cursor, min(esize, 8) or 1)
                self._group_addr.setdefault(key, {})[flat] = cursor
                cursor += esize
            cursor = _round_up(cursor, bs)
        for key, flat, esize in leftover:
            cursor = _round_up(cursor, min(esize, 8) or 1)
            self._group_addr.setdefault(key, {})[flat] = cursor
            cursor += esize
        self.group_region_size = cursor - GROUP_BASE

    def _member_elem_size(self, base: str, path: tuple[str, ...]) -> int:
        ty = self.globals[base].type
        if isinstance(ty, T.ArrayType):
            ty = ty.elem
        for comp in path:
            if not isinstance(ty, T.StructType):  # pragma: no cover - plan bug
                raise TransformError(f"bad group member path {base}.{path}")
            ty = self.field_of(ty.name, comp).type
        return self.sizeof(ty)

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

    def global_info(self, name: str) -> GlobalInfo:
        return self.globals[name]

    def materialize(self, base: str, steps: list[Step]) -> tuple[int, T.CType]:
        """Compute the address and type reached from global ``base``
        through concrete access ``steps``.

        Pointer hops never appear here — the interpreter follows raw
        pointer values itself; this resolves purely static paths
        (which is where group/pad/lock layouts live).
        """
        ginfo = self.globals[base]
        ty: T.CType = ginfo.type
        # Split leading index steps (into the base array) from the rest.
        idx_coords: list[int] = []
        k = 0
        if isinstance(ty, T.ArrayType):
            while k < len(steps) and steps[k][0] == "idx" and len(idx_coords) < len(ty.dims):
                idx_coords.append(int(steps[k][1]))  # type: ignore[arg-type]
                k += 1
        field_path: list[str] = []
        probe_ty = _elem_after(ty, len(idx_coords))
        j = k
        while j < len(steps) and steps[j][0] == "field":
            field_path.append(str(steps[j][1]))
            j += 1
        # Group member match: longest matching field-path prefix.
        if base in self._grouped_paths and len(idx_coords) == _ndims(ty):
            for plen in range(len(field_path), -1, -1):
                key = (base, tuple(field_path[:plen]))
                amap = self._group_addr.get(key)
                if amap is None:
                    continue
                flat = _flatten(idx_coords, ty.dims) if isinstance(ty, T.ArrayType) else 0
                addr = amap[flat]
                sub_ty = self._member_type(base, key[1])
                return self._apply_steps(addr, sub_ty, steps[k + plen:])
        # Padded / natural placement.
        addr = ginfo.base
        if isinstance(ty, T.ArrayType) and idx_coords:
            stride = ginfo.elem_stride or self.sizeof(ty.elem)
            flat = _flatten_partial(idx_coords, ty.dims)
            if ginfo.elem_stride is not None and len(idx_coords) == len(ty.dims):
                addr += _flatten(idx_coords, ty.dims) * stride
            elif ginfo.elem_stride is not None:
                # partial index of padded multi-dim array: stride applies
                # at element granularity
                addr += _flatten_partial(idx_coords, ty.dims) * stride
            else:
                addr += flat * self.sizeof(ty.elem)
        return self._apply_steps(addr, probe_ty, steps[k:])

    def _member_type(self, base: str, path: tuple[str, ...]) -> T.CType:
        ty = self.globals[base].type
        if isinstance(ty, T.ArrayType):
            ty = ty.elem
        for comp in path:
            assert isinstance(ty, T.StructType)
            ty = self.field_of(ty.name, comp).type
        return ty

    def _apply_steps(self, addr: int, ty: T.CType, steps: list[Step]) -> tuple[int, T.CType]:
        for kind, val in steps:
            if kind == "idx":
                if isinstance(ty, T.ArrayType):
                    inner = (
                        T.ArrayType(ty.elem, ty.dims[1:]) if len(ty.dims) > 1 else ty.elem
                    )
                    addr += int(val) * self.sizeof(inner)  # type: ignore[arg-type]
                    ty = inner
                else:  # pragma: no cover - interpreter handles pointers
                    raise TransformError(f"cannot index type {ty}")
            else:
                assert isinstance(ty, T.StructType)
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
        if g.elem_stride is not None and isinstance(ty, T.ArrayType):
            return (ty.nelems - 1) * g.elem_stride + self.sizeof(ty.elem)
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
            if j < 0 or addr >= starts[j] + entries[j][0]:
                return None
            _, base, path, flat = entries[j]
            gty = self.globals[base].type
            steps: list[Step] = []
            if isinstance(gty, T.ArrayType):
                steps = [("idx", c) for c in _unflatten(flat, gty.dims)]
            steps += [("field", p) for p in path]
            member = self._member_type(base, path)
            found = self._descend(member, addr - starts[j], steps)
            space, key = "global", base
        else:
            starts, infos = self._global_index()
            j = bisect_right(starts, addr) - 1
            if j < 0 or addr >= starts[j] + self._extent(infos[j]):
                return None
            g = infos[j]
            ty, off, steps = g.type, addr - g.base, []
            if g.elem_stride is not None and isinstance(ty, T.ArrayType):
                flat, off = divmod(off, g.elem_stride)
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
            addr, _ = self.materialize(str(key), list(steps))
            return addr + residual
        start, _, ty = heap[key]  # type: ignore[index]
        start += int(steps[0][1]) * self.sizeof(ty)  # type: ignore[arg-type]
        addr, _ = self._apply_steps(start, ty, list(steps[1:]))
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

    def _group_index(self) -> tuple[list[int], list[tuple]]:
        got = self._locate_group
        if got is None:
            rows = sorted(
                (addr, self._member_elem_size(base, path), base, path, flat)
                for (base, path), amap in self._group_addr.items()
                for flat, addr in amap.items()
            )
            got = self._locate_group = (
                [r[0] for r in rows],
                [r[1:] for r in rows],
            )
        return got


def _ndims(ty: T.CType) -> int:
    return len(ty.dims) if isinstance(ty, T.ArrayType) else 0


def _elem_after(ty: T.CType, nidx: int) -> T.CType:
    if isinstance(ty, T.ArrayType):
        if nidx >= len(ty.dims):
            return ty.elem
        if nidx == 0:
            return ty
        return T.ArrayType(ty.elem, ty.dims[nidx:])
    return ty


def _flatten(coords: list[int], dims: tuple[int, ...]) -> int:
    flat = 0
    for c, d in zip(coords, dims):
        flat = flat * d + c
    return flat


def _flatten_partial(coords: list[int], dims: tuple[int, ...]) -> int:
    """Flat element offset of a partial index (row-major)."""
    flat = 0
    for i, c in enumerate(coords):
        span = 1
        for d in dims[i + 1:]:
            span *= d
        flat += c * span
    return flat


def _unflatten(flat: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    coords = []
    for d in reversed(dims):
        coords.append(flat % d)
        flat //= d
    return tuple(reversed(coords))
