"""Type representations for the restricted parallel-C language.

Sizes and alignments follow a 64-bit 1990s RISC convention (KSR-like):
``int`` is 4 bytes, ``double`` 8, pointers 8, and ``lock_t`` is one
8-byte word (the paper's "smaller (1 word) alternate implementation of
locks" on the KSR2).  Struct layout follows the usual C rules: fields at
aligned offsets, struct alignment = max field alignment, size rounded up
to the alignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class CType:
    """Base class for all types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        return "<type>"


@dataclass(frozen=True, slots=True)
class IntType(CType):
    size: int = 4
    align: int = 4

    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True, slots=True)
class DoubleType(CType):
    size: int = 8
    align: int = 8

    def __str__(self) -> str:
        return "double"


@dataclass(frozen=True, slots=True)
class VoidType(CType):
    size: int = 0
    align: int = 1

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True, slots=True)
class LockType(CType):
    """The one-word lock used for mutual exclusion (``lock_t``)."""

    size: int = 8
    align: int = 8

    def __str__(self) -> str:
        return "lock_t"


@dataclass(frozen=True, slots=True)
class PointerType(CType):
    """Pointer to ``target``.  The paper's model restricts pointers to
    point only at objects of their declared type; the checker enforces
    this, along with the ban on pointer arithmetic."""

    target: CType
    size: int = 8
    align: int = 8

    def __str__(self) -> str:
        return f"{self.target}*"


@dataclass(frozen=True, slots=True)
class StructField:
    name: str
    type: CType
    offset: int  # byte offset within the struct


@dataclass(frozen=True, slots=True)
class StructType(CType):
    """A named struct with laid-out fields.

    Layout is computed at construction (see :func:`layout_struct`).
    """

    name: str
    fields: tuple[StructField, ...]
    size: int
    align: int

    def field(self, name: str) -> StructField | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def __str__(self) -> str:
        return f"struct {self.name}"


@dataclass(frozen=True, slots=True)
class ArrayType(CType):
    """A (possibly multi-dimensional) array.  ``dims`` are the extents,
    outermost first; layout is row-major."""

    elem: CType
    dims: tuple[int, ...]

    @property
    def size(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n * self.elem.size

    @property
    def align(self) -> int:
        return self.elem.align

    @property
    def nelems(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def __str__(self) -> str:
        return f"{self.elem}" + "".join(f"[{d}]" for d in self.dims)


INT = IntType()
DOUBLE = DoubleType()
VOID = VoidType()
LOCK = LockType()


def pointer(target: CType) -> PointerType:
    return PointerType(target)


def layout_struct(name: str, members: list[tuple[str, CType]]) -> StructType:
    """Compute C-style layout for a struct: each field is placed at the
    next offset aligned to its alignment; total size is rounded up to the
    struct alignment."""
    offset = 0
    align = 1
    fields: list[StructField] = []
    for fname, fty in members:
        fa = fty.align
        offset = _round_up(offset, fa)
        fields.append(StructField(fname, fty, offset))
        offset += fty.size
        align = max(align, fa)
    size = _round_up(max(offset, 1), align)
    return StructType(name=name, fields=tuple(fields), size=size, align=align)


def _round_up(n: int, align: int) -> int:
    return (n + align - 1) // align * align


@dataclass(slots=True)
class FuncType:
    """Signature of a function (not a first-class value type)."""

    ret: CType
    params: list[CType] = field(default_factory=list)

    def __str__(self) -> str:
        ps = ", ".join(str(p) for p in self.params)
        return f"{self.ret}({ps})"
