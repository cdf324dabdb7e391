"""Statement-level control-flow graphs.

Stage 1 of the paper's analysis annotates CFG nodes with the set of
processes that can execute them [JE92]; the non-concurrency analysis
(stage 2) uses control flow between barrier synchronization points
[JE94].  This module provides the CFG those analyses run over.

Nodes are created for every simple statement, branch condition, loop
condition, and synchronization point (``barrier``/``lock``/``unlock``
calls get their own kinds so the analyses can find them directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional

from repro.lang import astnodes as A


class NodeKind(Enum):
    ENTRY = auto()
    EXIT = auto()
    STMT = auto()      # assignment / declaration / expression statement
    BRANCH = auto()    # if condition
    LOOP = auto()      # while/for condition
    BARRIER = auto()   # barrier() call site
    LOCK = auto()      # lock() call site
    UNLOCK = auto()    # unlock() call site
    CALL = auto()      # statement containing a user-function call
    RETURN = auto()


@dataclass(slots=True)
class CFGNode:
    id: int
    kind: NodeKind
    stmt: Optional[A.Stmt] = None
    expr: Optional[A.Expr] = None
    succs: list["CFGNode"] = field(default_factory=list)
    preds: list["CFGNode"] = field(default_factory=list)
    #: Loop nesting depth of the node (for static profiling).
    loop_depth: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CFGNode {self.id} {self.kind.name}>"


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, func_name: str):
        self.func_name = func_name
        self.nodes: list[CFGNode] = []
        self.entry = self._new(NodeKind.ENTRY)
        self.exit = self._new(NodeKind.EXIT)

    def _new(self, kind: NodeKind, stmt: A.Stmt | None = None,
             expr: A.Expr | None = None, depth: int = 0) -> CFGNode:
        node = CFGNode(id=len(self.nodes), kind=kind, stmt=stmt, expr=expr,
                       loop_depth=depth)
        self.nodes.append(node)
        return node

    @staticmethod
    def link(a: CFGNode, b: CFGNode) -> None:
        if b not in a.succs:
            a.succs.append(b)
            b.preds.append(a)

    def reachable(self, start: CFGNode | None = None) -> set[int]:
        """IDs of nodes reachable from ``start`` (default: entry)."""
        start = start or self.entry
        seen = {start.id}
        stack = [start]
        while stack:
            n = stack.pop()
            for s in n.succs:
                if s.id not in seen:
                    seen.add(s.id)
                    stack.append(s)
        return seen

    def nodes_of_kind(self, kind: NodeKind) -> list[CFGNode]:
        return [n for n in self.nodes if n.kind is kind]

    def __len__(self) -> int:
        return len(self.nodes)


_SYNC_KINDS = {"barrier": NodeKind.BARRIER, "lock": NodeKind.LOCK,
               "unlock": NodeKind.UNLOCK}


def _stmt_kind(stmt: A.Stmt, user_funcs: frozenset[str]) -> NodeKind:
    """Classify a simple statement for its CFG node kind."""
    if isinstance(stmt, A.ExprStmt) and isinstance(stmt.expr, A.Call):
        kind = _SYNC_KINDS.get(stmt.expr.name)
        if kind is not None:
            return kind
    for e in A.stmt_exprs(stmt):
        if isinstance(e, A.Call) and e.name in user_funcs:
            return NodeKind.CALL
    return NodeKind.STMT


class _Builder:
    """Builds a CFG from structured AST statements."""

    def __init__(self, cfg: CFG, user_funcs: frozenset[str]):
        self.cfg = cfg
        self.user_funcs = user_funcs
        self.depth = 0
        # (break targets, continue targets) stack
        self._loop_stack: list[tuple[CFGNode, CFGNode]] = []

    def build(self, body: A.Block) -> None:
        tail = self._seq(body, self.cfg.entry)
        if tail is not None:
            CFG.link(tail, self.cfg.exit)

    def _seq(self, stmt: A.Stmt, pred: CFGNode | None) -> CFGNode | None:
        """Wire ``stmt`` after ``pred``; return the fall-through node (None
        if control never falls through, e.g. after return/break)."""
        if pred is None:
            return None
        if isinstance(stmt, A.Block):
            cur: CFGNode | None = pred
            for s in stmt.body:
                cur = self._seq(s, cur)
                if cur is None:
                    return None
            return cur
        if isinstance(stmt, A.If):
            cond = self.cfg._new(NodeKind.BRANCH, stmt, stmt.cond, self.depth)
            CFG.link(pred, cond)
            then_tail = self._seq(stmt.then, cond)
            else_tail = self._seq(stmt.orelse, cond) if stmt.orelse is not None else cond
            if then_tail is None and else_tail is None:
                return None
            join = self.cfg._new(NodeKind.STMT, None, None, self.depth)
            if then_tail is not None:
                CFG.link(then_tail, join)
            if else_tail is not None:
                CFG.link(else_tail, join)
            return join
        if isinstance(stmt, A.While):
            cond = self.cfg._new(NodeKind.LOOP, stmt, stmt.cond, self.depth)
            after = self.cfg._new(NodeKind.STMT, None, None, self.depth)
            CFG.link(pred, cond)
            CFG.link(cond, after)
            self._loop_stack.append((after, cond))
            self.depth += 1
            body_tail = self._seq(stmt.body, cond)
            self.depth -= 1
            self._loop_stack.pop()
            if body_tail is not None:
                CFG.link(body_tail, cond)
            return after
        if isinstance(stmt, A.For):
            cur = pred
            if stmt.init is not None:
                cur = self._seq(stmt.init, cur)
                assert cur is not None
            cond = self.cfg._new(NodeKind.LOOP, stmt, stmt.cond, self.depth)
            after = self.cfg._new(NodeKind.STMT, None, None, self.depth)
            CFG.link(cur, cond)
            CFG.link(cond, after)
            # continue jumps to the update, break to after
            update_node = None
            if stmt.update is not None:
                update_node = self.cfg._new(
                    _stmt_kind(stmt.update, self.user_funcs),
                    stmt.update, None, self.depth + 1,
                )
                CFG.link(update_node, cond)
            cont_target = update_node if update_node is not None else cond
            self._loop_stack.append((after, cont_target))
            self.depth += 1
            body_tail = self._seq(stmt.body, cond)
            self.depth -= 1
            self._loop_stack.pop()
            if body_tail is not None:
                CFG.link(body_tail, cont_target)
            return after
        if isinstance(stmt, A.Return):
            node = self.cfg._new(NodeKind.RETURN, stmt, stmt.value, self.depth)
            CFG.link(pred, node)
            CFG.link(node, self.cfg.exit)
            return None
        if isinstance(stmt, A.Break):
            node = self.cfg._new(NodeKind.STMT, stmt, None, self.depth)
            CFG.link(pred, node)
            if not self._loop_stack:
                raise ValueError("break outside loop (checker should reject)")
            CFG.link(node, self._loop_stack[-1][0])
            return None
        if isinstance(stmt, A.Continue):
            node = self.cfg._new(NodeKind.STMT, stmt, None, self.depth)
            CFG.link(pred, node)
            if not self._loop_stack:
                raise ValueError("continue outside loop (checker should reject)")
            CFG.link(node, self._loop_stack[-1][1])
            return None
        # simple statement
        node = self.cfg._new(_stmt_kind(stmt, self.user_funcs), stmt, None, self.depth)
        CFG.link(pred, node)
        return node


def build_cfg(func: A.FuncDef, user_funcs: frozenset[str]) -> CFG:
    """Build the control-flow graph of ``func``.

    ``user_funcs`` is the set of user-defined function names, used to
    tag nodes containing user calls with :attr:`NodeKind.CALL`.
    """
    cfg = CFG(func.name)
    _Builder(cfg, user_funcs).build(func.body)
    return cfg
