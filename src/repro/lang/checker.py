"""Semantic checker: typing plus the paper's model restrictions.

Beyond ordinary C-like type checking, this enforces the restrictions the
paper's section 2 places on the programming model so the static analyses
stay sound:

* pointers may only point at objects of their declared type; pointer
  arithmetic is disallowed; indirection is allowed only through simple
  lvalues (no arithmetic expressions);
* processes are created explicitly from ``main`` via ``create(f, e)``;
* global (statically allocated) data is shared; locals are private.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CheckError
from repro.lang import astnodes as A
from repro.lang import ctypes as T
from repro.lang.builtins_sig import BUILTINS, is_builtin
from repro.lang.parser import parse
from repro.lang.symbols import FuncSymbol, Scope, StorageKind, Symbol, SymbolTable

_ARITH_OPS = {"+", "-", "*", "/", "%"}
_CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}
_LOGIC_OPS = {"&&", "||"}


@dataclass(slots=True)
class SpawnSite:
    """A ``create(f, e)`` call: which function is spawned, with which
    argument expression, inside which loop (if any)."""

    call: A.Call
    func_name: str
    arg: A.Expr
    loop: A.For | A.While | None


@dataclass(slots=True)
class CheckedProgram:
    """A type-checked program plus the symbol information every later
    stage consumes."""

    program: A.Program
    symtab: SymbolTable
    spawn_sites: list[SpawnSite] = field(default_factory=list)
    #: first interpreted run per (nprocs, quantum, max_steps, schedule),
    #: the source :func:`repro.runtime.interpreter.run_program`
    #: translates later indirection-free layouts from; it lives and dies
    #: with this compiled program
    run_memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def worker_names(self) -> list[str]:
        seen: list[str] = []
        for s in self.spawn_sites:
            if s.func_name not in seen:
                seen.append(s.func_name)
        return seen


def _is_int(ty: T.CType) -> bool:
    return isinstance(ty, T.IntType)


def _is_num(ty: T.CType) -> bool:
    return isinstance(ty, (T.IntType, T.DoubleType))


def _is_lvalue(e: A.Expr) -> bool:
    if isinstance(e, (A.Index, A.Member)):
        return True
    if isinstance(e, A.Ident):
        return True
    if isinstance(e, A.UnOp) and e.op == "*":
        return True
    return False


def _assignable(dst: T.CType, src: T.CType) -> bool:
    if isinstance(dst, T.IntType) and _is_int(src):
        return True
    if isinstance(dst, T.DoubleType) and _is_num(src):
        return True
    if isinstance(dst, T.PointerType) and isinstance(src, T.PointerType):
        return str(dst.target) == str(src.target)
    if isinstance(dst, T.PointerType) and _is_int(src):
        # only the literal 0 (null); enforced at the call site
        return True
    return False


class Checker:
    def __init__(self, program: A.Program):
        self.program = program
        self.symtab = SymbolTable()
        self.spawn_sites: list[SpawnSite] = []
        self._loop_stack: list[A.For | A.While] = []
        self._current_func: A.FuncDef | None = None

    # -- entry point ---------------------------------------------------------

    def check(self) -> CheckedProgram:
        prog = self.program
        for sd in prog.structs:
            self.symtab.structs[sd.name] = T.layout_struct(sd.name, sd.members)
        global_scope = Scope()
        for g in prog.globals:
            if isinstance(g.type, T.VoidType):
                raise CheckError(f"variable {g.name!r} has void type", g.loc)
            if g.init is not None:
                raise CheckError(
                    "global initializers are not supported; initialize shared "
                    "data from main before spawning",
                    g.loc,
                )
            sym = Symbol(g.name, g.type, StorageKind.GLOBAL, g.loc, g)
            global_scope.define(sym)
            self.symtab.globals[g.name] = sym
            self.symtab.decl_symbols[id(g)] = sym
        for fn in prog.funcs:
            if is_builtin(fn.name):
                raise CheckError(
                    f"function {fn.name!r} shadows a builtin", fn.loc
                )
            if fn.name in self.symtab.funcs:
                raise CheckError(f"duplicate function {fn.name!r}", fn.loc)
            if fn.name in self.symtab.globals:
                raise CheckError(
                    f"function {fn.name!r} collides with a global variable",
                    fn.loc,
                )
            fty = T.FuncType(fn.ret, [p.type for p in fn.params])
            self.symtab.funcs[fn.name] = FuncSymbol(fn.name, fty, fn)
        if "main" not in self.symtab.funcs:
            raise CheckError("program has no main()", prog.loc)
        main = self.symtab.funcs["main"].defn
        if main.params:
            raise CheckError("main() must take no parameters", main.loc)
        for fn in prog.funcs:
            self._check_func(fn, global_scope)
        return CheckedProgram(prog, self.symtab, self.spawn_sites)

    # -- functions & statements -----------------------------------------------

    def _check_func(self, fn: A.FuncDef, global_scope: Scope) -> None:
        self._current_func = fn
        scope = Scope(global_scope)
        for p in fn.params:
            if isinstance(p.type, (T.VoidType, T.ArrayType)):
                raise CheckError(
                    f"parameter {p.name!r} must be scalar or pointer", p.loc
                )
            sym = Symbol(p.name, p.type, StorageKind.PARAM, p.loc)
            scope.define(sym)
            self.symtab.decl_symbols[id(p)] = sym
        self._check_stmt(fn.body, scope)
        self._current_func = None

    def _check_stmt(self, stmt: A.Stmt, scope: Scope) -> None:
        if isinstance(stmt, A.Block):
            inner = Scope(scope)
            for s in stmt.body:
                self._check_stmt(s, inner)
        elif isinstance(stmt, A.VarDecl):
            if isinstance(stmt.type, T.VoidType):
                raise CheckError(f"variable {stmt.name!r} has void type", stmt.loc)
            if isinstance(stmt.type, T.LockType):
                raise CheckError(
                    "locks must be shared (declare lock_t at file scope)",
                    stmt.loc,
                )
            sym = Symbol(stmt.name, stmt.type, StorageKind.LOCAL, stmt.loc, stmt)
            scope.define(sym)
            self.symtab.decl_symbols[id(stmt)] = sym
            if stmt.init is not None:
                ity = self._check_expr(stmt.init, scope)
                if not _assignable(stmt.type, ity):
                    raise CheckError(
                        f"cannot initialize {stmt.type} with {ity}", stmt.loc
                    )
        elif isinstance(stmt, A.Assign):
            self._check_assign(stmt, scope)
        elif isinstance(stmt, A.ExprStmt):
            self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, A.If):
            cty = self._check_expr(stmt.cond, scope)
            if not _is_int(cty):
                raise CheckError(f"if condition must be int, got {cty}", stmt.loc)
            self._check_stmt(stmt.then, scope)
            if stmt.orelse is not None:
                self._check_stmt(stmt.orelse, scope)
        elif isinstance(stmt, A.While):
            cty = self._check_expr(stmt.cond, scope)
            if not _is_int(cty):
                raise CheckError(f"while condition must be int, got {cty}", stmt.loc)
            self._loop_stack.append(stmt)
            self._check_stmt(stmt.body, scope)
            self._loop_stack.pop()
        elif isinstance(stmt, A.For):
            inner = Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                cty = self._check_expr(stmt.cond, inner)
                if not _is_int(cty):
                    raise CheckError(f"for condition must be int, got {cty}", stmt.loc)
            if stmt.update is not None:
                self._check_stmt(stmt.update, inner)
            self._loop_stack.append(stmt)
            self._check_stmt(stmt.body, inner)
            self._loop_stack.pop()
        elif isinstance(stmt, A.Return):
            fn = self._current_func
            assert fn is not None
            if stmt.value is None:
                if not isinstance(fn.ret, T.VoidType):
                    raise CheckError("return without value in non-void function", stmt.loc)
            else:
                vty = self._check_expr(stmt.value, scope)
                if isinstance(fn.ret, T.VoidType):
                    raise CheckError("return with value in void function", stmt.loc)
                if not _assignable(fn.ret, vty):
                    raise CheckError(f"cannot return {vty} from {fn.ret} function", stmt.loc)
        elif isinstance(stmt, (A.Break, A.Continue)):
            if not self._loop_stack:
                raise CheckError("break/continue outside a loop", stmt.loc)
        else:  # pragma: no cover - parser emits no other statement kinds
            raise CheckError(f"unknown statement {type(stmt).__name__}", stmt.loc)

    def _check_assign(self, stmt: A.Assign, scope: Scope) -> None:
        if not _is_lvalue(stmt.target):
            raise CheckError("assignment target is not an lvalue", stmt.loc)
        tty = self._check_expr(stmt.target, scope)
        vty = self._check_expr(stmt.value, scope)
        if isinstance(tty, (T.ArrayType, T.StructType)):
            raise CheckError(
                "aggregate assignment is not supported; assign elements/fields",
                stmt.loc,
            )
        if isinstance(tty, T.LockType):
            raise CheckError("locks cannot be assigned", stmt.loc)
        if stmt.op:
            if not (_is_num(tty) and _is_num(vty)):
                raise CheckError(
                    f"compound assignment requires numeric operands, got {tty} {stmt.op}= {vty}",
                    stmt.loc,
                )
            if _is_int(tty) and isinstance(vty, T.DoubleType):
                raise CheckError("implicit double -> int narrowing (use toint)", stmt.loc)
            return
        if isinstance(tty, T.PointerType) and _is_int(vty):
            if not (isinstance(stmt.value, A.IntLit) and stmt.value.value == 0):
                raise CheckError("only the literal 0 may be assigned to a pointer", stmt.loc)
            return
        if isinstance(tty, T.IntType) and isinstance(vty, T.DoubleType):
            raise CheckError("implicit double -> int narrowing (use toint)", stmt.loc)
        if not _assignable(tty, vty):
            raise CheckError(f"cannot assign {vty} to {tty}", stmt.loc)

    # -- expressions ----------------------------------------------------------

    def _check_expr(self, e: A.Expr, scope: Scope) -> T.CType:
        ty = self._expr_type(e, scope)
        e.ty = ty
        return ty

    def _expr_type(self, e: A.Expr, scope: Scope) -> T.CType:
        if isinstance(e, A.IntLit):
            return T.INT
        if isinstance(e, A.FloatLit):
            return T.DOUBLE
        if isinstance(e, A.Ident):
            sym = scope.lookup(e.name)
            if sym is None:
                raise CheckError(f"undeclared identifier {e.name!r}", e.loc)
            self.symtab.ident_symbols[id(e)] = sym
            return sym.type
        if isinstance(e, A.BinOp):
            return self._binop_type(e, scope)
        if isinstance(e, A.UnOp):
            return self._unop_type(e, scope)
        if isinstance(e, A.Index):
            bty = self._check_expr(e.base, scope)
            ity = self._check_expr(e.index, scope)
            if not _is_int(ity):
                raise CheckError(f"array index must be int, got {ity}", e.loc)
            if isinstance(bty, T.ArrayType):
                if len(bty.dims) > 1:
                    return T.ArrayType(bty.elem, bty.dims[1:])
                return bty.elem
            if isinstance(bty, T.PointerType):
                # indexing a pointer = indexing the allocation it names
                return bty.target
            raise CheckError(f"cannot index a value of type {bty}", e.loc)
        if isinstance(e, A.Member):
            bty = self._check_expr(e.base, scope)
            if e.arrow:
                if not (isinstance(bty, T.PointerType) and isinstance(bty.target, T.StructType)):
                    raise CheckError(f"'->' requires a pointer to struct, got {bty}", e.loc)
                sty = bty.target
            else:
                if not isinstance(bty, T.StructType):
                    raise CheckError(f"'.' requires a struct, got {bty}", e.loc)
                sty = bty
            fld = sty.field(e.name)
            if fld is None:
                raise CheckError(f"{sty} has no field {e.name!r}", e.loc)
            return fld.type
        if isinstance(e, A.Call):
            return self._call_type(e, scope)
        if isinstance(e, A.Alloc):
            assert e.elem_type is not None
            if isinstance(e.elem_type, T.VoidType):
                raise CheckError("cannot allocate void", e.loc)
            if e.count is not None:
                cty = self._check_expr(e.count, scope)
                if not _is_int(cty):
                    raise CheckError("alloc_array count must be int", e.loc)
            return T.PointerType(e.elem_type)
        raise CheckError(f"unknown expression {type(e).__name__}", e.loc)  # pragma: no cover

    def _binop_type(self, e: A.BinOp, scope: Scope) -> T.CType:
        lty = self._check_expr(e.left, scope)
        rty = self._check_expr(e.right, scope)
        if e.op in _ARITH_OPS:
            if isinstance(lty, T.PointerType) or isinstance(rty, T.PointerType):
                raise CheckError(
                    "pointer arithmetic is outside the restricted model", e.loc
                )
            if not (_is_num(lty) and _is_num(rty)):
                raise CheckError(f"operator {e.op!r} requires numeric operands", e.loc)
            if e.op == "%":
                if not (_is_int(lty) and _is_int(rty)):
                    raise CheckError("'%' requires int operands", e.loc)
                return T.INT
            if isinstance(lty, T.DoubleType) or isinstance(rty, T.DoubleType):
                return T.DOUBLE
            return T.INT
        if e.op in _CMP_OPS:
            if isinstance(lty, T.PointerType) or isinstance(rty, T.PointerType):
                if e.op not in ("==", "!="):
                    raise CheckError("pointers support only ==/!=", e.loc)
                ok = (
                    isinstance(lty, T.PointerType)
                    and isinstance(rty, T.PointerType)
                    and str(lty) == str(rty)
                ) or _null_cmp(lty, rty, e)
                if not ok:
                    raise CheckError(f"invalid pointer comparison {lty} vs {rty}", e.loc)
                return T.INT
            if not (_is_num(lty) and _is_num(rty)):
                raise CheckError(f"operator {e.op!r} requires numeric operands", e.loc)
            return T.INT
        if e.op in _LOGIC_OPS:
            if not (_is_int(lty) and _is_int(rty)):
                raise CheckError(f"operator {e.op!r} requires int operands", e.loc)
            return T.INT
        raise CheckError(f"unknown operator {e.op!r}", e.loc)  # pragma: no cover

    def _unop_type(self, e: A.UnOp, scope: Scope) -> T.CType:
        oty = self._check_expr(e.operand, scope)
        if e.op == "-":
            if not _is_num(oty):
                raise CheckError("unary '-' requires a numeric operand", e.loc)
            return oty
        if e.op == "!":
            if not _is_int(oty):
                raise CheckError("'!' requires an int operand", e.loc)
            return T.INT
        if e.op == "*":
            if not isinstance(oty, T.PointerType):
                raise CheckError(f"cannot dereference {oty}", e.loc)
            if not isinstance(e.operand, (A.Ident, A.Member, A.Index)):
                raise CheckError(
                    "indirection through arithmetic expressions is outside "
                    "the restricted model",
                    e.loc,
                )
            return oty.target
        if e.op == "&":
            if not _is_lvalue(e.operand):
                raise CheckError("'&' requires an lvalue", e.loc)
            return T.PointerType(oty)
        raise CheckError(f"unknown unary operator {e.op!r}", e.loc)  # pragma: no cover

    def _call_type(self, e: A.Call, scope: Scope) -> T.CType:
        if e.name == "create":
            return self._check_create(e, scope)
        if e.name == "print":
            for a in e.args:
                self._check_expr(a, scope)
            return T.VOID
        if is_builtin(e.name):
            sig = BUILTINS[e.name]
            if len(e.args) != len(sig.params):
                raise CheckError(
                    f"{e.name}() expects {len(sig.params)} argument(s), got {len(e.args)}",
                    e.loc,
                )
            for arg, pty in zip(e.args, sig.params):
                aty = self._check_expr(arg, scope)
                if not _assignable(pty, aty):
                    raise CheckError(
                        f"{e.name}(): cannot pass {aty} for parameter of type {pty}",
                        e.loc,
                    )
            if e.name in ("wait_for_end",):
                self._require_in_main(e)
            return sig.ret
        fsym = self.symtab.funcs.get(e.name)
        if fsym is None:
            raise CheckError(f"call to undefined function {e.name!r}", e.loc)
        if len(e.args) != len(fsym.type.params):
            raise CheckError(
                f"{e.name}() expects {len(fsym.type.params)} argument(s), got {len(e.args)}",
                e.loc,
            )
        for arg, pty in zip(e.args, fsym.type.params):
            aty = self._check_expr(arg, scope)
            if not _assignable(pty, aty):
                raise CheckError(
                    f"{e.name}(): cannot pass {aty} for parameter of type {pty}", e.loc
                )
        return fsym.type.ret

    def _check_create(self, e: A.Call, scope: Scope) -> T.CType:
        self._require_in_main(e)
        if len(e.args) != 2 or not isinstance(e.args[0], A.Ident):
            raise CheckError("create() takes (function_name, int_expr)", e.loc)
        fname = e.args[0].name
        fsym = self.symtab.funcs.get(fname)
        if fsym is None:
            raise CheckError(f"create(): unknown function {fname!r}", e.loc)
        if len(fsym.type.params) != 1 or not _is_int(fsym.type.params[0]):
            raise CheckError(
                f"create(): {fname!r} must take exactly one int parameter "
                "(the process differentiating variable)",
                e.loc,
            )
        aty = self._check_expr(e.args[1], scope)
        if not _is_int(aty):
            raise CheckError("create(): spawn argument must be int", e.loc)
        # Mark the function-name Ident so later passes don't treat it as a
        # variable reference.
        e.args[0].ty = T.VOID
        loop = self._loop_stack[-1] if self._loop_stack else None
        self.spawn_sites.append(SpawnSite(e, fname, e.args[1], loop))
        return T.VOID

    def _require_in_main(self, e: A.Call) -> None:
        fn = self._current_func
        if fn is None or fn.name != "main":
            raise CheckError(f"{e.name}() may only be called from main()", e.loc)


def _null_cmp(lty: T.CType, rty: T.CType, e: A.BinOp) -> bool:
    if isinstance(lty, T.PointerType) and _is_int(rty):
        return isinstance(e.right, A.IntLit) and e.right.value == 0
    if isinstance(rty, T.PointerType) and _is_int(lty):
        return isinstance(e.left, A.IntLit) and e.left.value == 0
    return False


def check(program: A.Program) -> CheckedProgram:
    """Type-check ``program`` and return the annotated result."""
    return Checker(program).check()


def compile_source(source: str, filename: str = "<input>") -> CheckedProgram:
    """Parse and check a source string in one step."""
    return check(parse(source, filename))
