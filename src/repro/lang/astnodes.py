"""AST node definitions for the restricted parallel-C language.

All nodes carry a :class:`~repro.errors.SourceLocation`.  Expression nodes
have a mutable ``ty`` slot filled in by the semantic checker
(:mod:`repro.lang.checker`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import BUILTIN_LOC, SourceLocation
from repro.lang.ctypes import CType


# --------------------------------------------------------------------------
# Base classes
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Node:
    loc: SourceLocation = field(default=BUILTIN_LOC, kw_only=True)


@dataclass(slots=True)
class Expr(Node):
    """Base class for expressions.  ``ty`` is set by the checker."""

    ty: Optional[CType] = field(default=None, kw_only=True, compare=False)


@dataclass(slots=True)
class Stmt(Node):
    pass


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(slots=True)
class IntLit(Expr):
    value: int = 0


@dataclass(slots=True)
class FloatLit(Expr):
    value: float = 0.0


@dataclass(slots=True)
class Ident(Expr):
    name: str = ""


@dataclass(slots=True)
class BinOp(Expr):
    """Binary operator.  ``op`` is one of
    ``+ - * / % == != < <= > >= && ||``."""

    op: str = "+"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class UnOp(Expr):
    """Unary operator: ``-`` (negate), ``!`` (logical not),
    ``*`` (dereference), ``&`` (address-of)."""

    op: str = "-"
    operand: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Index(Expr):
    """``base[index]`` — ``base`` is an array lvalue (possibly partially
    indexed for multi-dimensional arrays)."""

    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Member(Expr):
    """``base.name`` (``arrow=False``) or ``base->name`` (``arrow=True``)."""

    base: Expr = None  # type: ignore[assignment]
    name: str = ""
    arrow: bool = False


@dataclass(slots=True)
class Call(Expr):
    """Function or builtin call.  ``name`` is resolved by the checker to a
    user function or a builtin (see :mod:`repro.runtime.builtins`)."""

    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass(slots=True)
class Alloc(Expr):
    """``alloc(typename)`` — allocate one shared heap object of the named
    type and yield a pointer to it.  ``alloc_array(typename, n)`` sets
    ``count`` to the element-count expression."""

    type_name: str = ""
    elem_type: Optional[CType] = field(default=None, compare=False)
    count: Optional[Expr] = None


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Assign(Stmt):
    """``target op= value`` where op in {'', '+', '-', '*', '/'} (plain
    assignment when ``op == ''``)."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]
    op: str = ""


@dataclass(slots=True)
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class VarDecl(Stmt):
    """A variable declaration.  At file scope the variable is *shared*;
    inside a function it is *private* to each process.  ``init`` is an
    optional initializer (locals only)."""

    name: str = ""
    type: CType = None  # type: ignore[assignment]
    init: Optional[Expr] = None
    is_global: bool = False


@dataclass(slots=True)
class Block(Stmt):
    body: list[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    orelse: Optional[Stmt] = None


@dataclass(slots=True)
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass(slots=True)
class For(Stmt):
    """``for (init; cond; update) body`` — init/update are assignments and
    may be omitted (None)."""

    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    update: Optional[Stmt] = None
    body: Stmt = None  # type: ignore[assignment]


@dataclass(slots=True)
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass(slots=True)
class Break(Stmt):
    pass


@dataclass(slots=True)
class Continue(Stmt):
    pass


# --------------------------------------------------------------------------
# Top-level declarations
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Param(Node):
    name: str = ""
    type: CType = None  # type: ignore[assignment]


@dataclass(slots=True)
class FuncDef(Node):
    name: str = ""
    ret: CType = None  # type: ignore[assignment]
    params: list[Param] = field(default_factory=list)
    body: Block = None  # type: ignore[assignment]


@dataclass(slots=True)
class StructDef(Node):
    name: str = ""
    members: list[tuple[str, CType]] = field(default_factory=list)


@dataclass(slots=True)
class Program(Node):
    """A whole translation unit: struct definitions, shared globals and
    function definitions, in source order."""

    structs: list[StructDef] = field(default_factory=list)
    globals: list[VarDecl] = field(default_factory=list)
    funcs: list[FuncDef] = field(default_factory=list)

    def func(self, name: str) -> FuncDef | None:
        for f in self.funcs:
            if f.name == name:
                return f
        return None


# --------------------------------------------------------------------------
# Generic traversal helpers
# --------------------------------------------------------------------------


def child_exprs(node: Node) -> list[Expr]:
    """Direct sub-expressions of a node (expression or statement)."""
    if isinstance(node, BinOp):
        return [node.left, node.right]
    if isinstance(node, UnOp):
        return [node.operand]
    if isinstance(node, Index):
        return [node.base, node.index]
    if isinstance(node, Member):
        return [node.base]
    if isinstance(node, Call):
        return list(node.args)
    if isinstance(node, Alloc):
        return [node.count] if node.count is not None else []
    if isinstance(node, Assign):
        return [node.target, node.value]
    if isinstance(node, ExprStmt):
        return [node.expr]
    if isinstance(node, VarDecl):
        return [node.init] if node.init is not None else []
    if isinstance(node, If):
        return [node.cond]
    if isinstance(node, While):
        return [node.cond]
    if isinstance(node, For):
        return [node.cond] if node.cond is not None else []
    if isinstance(node, Return):
        return [node.value] if node.value is not None else []
    return []


def child_stmts(node: Stmt) -> list[Stmt]:
    """Direct sub-statements of a statement."""
    if isinstance(node, Block):
        return list(node.body)
    if isinstance(node, If):
        out = [node.then]
        if node.orelse is not None:
            out.append(node.orelse)
        return out
    if isinstance(node, While):
        return [node.body]
    if isinstance(node, For):
        out: list[Stmt] = []
        if node.init is not None:
            out.append(node.init)
        out.append(node.body)
        if node.update is not None:
            out.append(node.update)
        return out
    return []


def walk_stmts(root: Stmt):
    """Yield ``root`` and all statements nested within it, pre-order."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(child_stmts(node)))


def walk_exprs(node: Node):
    """Yield all expressions reachable from ``node`` (statements are
    traversed; sub-expressions are yielded pre-order)."""
    if isinstance(node, Expr):
        roots: list[Expr] = [node]
    else:
        roots = list(child_exprs(node))
        if isinstance(node, Stmt):
            for s in child_stmts(node):
                yield from walk_exprs(s)
    stack = list(reversed(roots))
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(child_exprs(e)))


def stmt_exprs(stmt: Stmt):
    """Yield every expression *directly owned* by ``stmt`` (its own
    expression trees), without descending into nested statements.  Use with
    :func:`walk_stmts` to visit each expression exactly once."""
    stack = list(reversed(child_exprs(stmt)))
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(child_exprs(e)))


def walk_all_exprs(root: Stmt):
    """Yield every expression in the statement tree rooted at ``root``."""
    for stmt in walk_stmts(root):
        for e in child_exprs(stmt):
            stack = [e]
            while stack:
                cur = stack.pop()
                yield cur
                stack.extend(reversed(child_exprs(cur)))
