"""Symbol tables for the restricted parallel-C language.

Globals are *shared* among all processes (the paper's model: statically
allocated data is shared); function locals and parameters are *private*
to each process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional

from repro.errors import CheckError, SourceLocation
from repro.lang import astnodes as A
from repro.lang.ctypes import CType, FuncType


class StorageKind(Enum):
    GLOBAL = auto()   # shared, statically allocated
    LOCAL = auto()    # private, per-process stack
    PARAM = auto()    # private, per-process


@dataclass(slots=True)
class Symbol:
    name: str
    type: CType
    kind: StorageKind
    decl_loc: SourceLocation
    decl: Optional[A.VarDecl] = None  # None for parameters

    @property
    def is_shared(self) -> bool:
        return self.kind is StorageKind.GLOBAL


@dataclass(slots=True)
class FuncSymbol:
    name: str
    type: FuncType
    defn: A.FuncDef


class Scope:
    """A lexical scope; lookups chain to the parent."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.symbols: dict[str, Symbol] = {}

    def define(self, sym: Symbol) -> None:
        if sym.name in self.symbols:
            raise CheckError(
                f"redefinition of {sym.name!r} in the same scope", sym.decl_loc
            )
        self.symbols[sym.name] = sym

    def lookup(self, name: str) -> Symbol | None:
        scope: Scope | None = self
        while scope is not None:
            sym = scope.symbols.get(name)
            if sym is not None:
                return sym
            scope = scope.parent
        return None


@dataclass(slots=True)
class SymbolTable:
    """Program-wide symbol information built by the checker."""

    globals: dict[str, Symbol] = field(default_factory=dict)
    funcs: dict[str, FuncSymbol] = field(default_factory=dict)
    structs: dict[str, CType] = field(default_factory=dict)
    #: For every Ident expression node (by id), the resolved Symbol.
    ident_symbols: dict[int, Symbol] = field(default_factory=dict)
    #: For every VarDecl statement and Param node (by id), its Symbol.
    decl_symbols: dict[int, Symbol] = field(default_factory=dict)
