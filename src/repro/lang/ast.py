"""Abstract syntax tree for the C subset.

Every node is a frozen-ish dataclass carrying its source location.  The
tree deliberately stays close to C's concrete syntax: the CDFG builder
(:mod:`repro.cdfg.builder`) walks it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.lang.errors import MissingFunctionError, SourceLocation

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expressions."""

    location: SourceLocation

    def children(self) -> Iterator["Expr"]:
        """Yield direct sub-expressions (for generic walkers)."""
        return iter(())


@dataclass
class IntLit(Expr):
    """Integer literal, e.g. ``42``."""

    value: int = 0

    def __str__(self) -> str:
        return str(self.value)


@dataclass
class Ident(Expr):
    """A scalar variable reference, e.g. ``sum``."""

    name: str = ""

    def __str__(self) -> str:
        return self.name


@dataclass
class ArrayRef(Expr):
    """An array element reference, e.g. ``a[i]``."""

    name: str = ""
    index: Expr | None = None

    def children(self) -> Iterator[Expr]:
        assert self.index is not None
        yield self.index

    def __str__(self) -> str:
        return f"{self.name}[{self.index}]"


@dataclass
class BinOp(Expr):
    """Binary operation.  ``op`` is the C spelling, e.g. ``"+"``."""

    op: str = ""
    lhs: Expr | None = None
    rhs: Expr | None = None

    def children(self) -> Iterator[Expr]:
        assert self.lhs is not None and self.rhs is not None
        yield self.lhs
        yield self.rhs

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass
class UnaryOp(Expr):
    """Unary operation: ``-x``, ``!x``, ``~x`` or ``+x``."""

    op: str = ""
    operand: Expr | None = None

    def children(self) -> Iterator[Expr]:
        assert self.operand is not None
        yield self.operand

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass
class CondExpr(Expr):
    """Ternary conditional ``cond ? then : otherwise``."""

    cond: Expr | None = None
    then: Expr | None = None
    otherwise: Expr | None = None

    def children(self) -> Iterator[Expr]:
        assert self.cond and self.then and self.otherwise
        yield self.cond
        yield self.then
        yield self.otherwise

    def __str__(self) -> str:
        return f"({self.cond} ? {self.then} : {self.otherwise})"


@dataclass
class Call(Expr):
    """A call to a named intrinsic, e.g. ``min(a, b)``.

    The subset has no user-defined function calls inside expressions;
    only the intrinsics understood by the CDFG builder (``min``, ``max``,
    ``abs``) are accepted, which mirrors how the paper's toolset treats
    "C operators and function calls" as CDFG operations.
    """

    name: str = ""
    args: list[Expr] = field(default_factory=list)

    def children(self) -> Iterator[Expr]:
        return iter(self.args)

    def __str__(self) -> str:
        rendered = ", ".join(str(arg) for arg in self.args)
        return f"{self.name}({rendered})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

LValue = Union[Ident, ArrayRef]


@dataclass
class Stmt:
    """Base class for statements."""

    location: SourceLocation


@dataclass
class VarDecl(Stmt):
    """Declaration ``int x = e;`` or ``int a[N];``.

    ``size`` is ``None`` for scalars.  Scalars may carry an initialiser;
    array declarations may carry an initialiser list.
    """

    name: str = ""
    size: int | None = None
    init: Expr | None = None
    array_init: list[Expr] | None = None
    is_const: bool = False

    @property
    def is_array(self) -> bool:
        return self.size is not None


@dataclass
class Assign(Stmt):
    """Assignment ``target = value;`` (compound ops are desugared)."""

    target: LValue | None = None
    value: Expr | None = None


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for effect (only calls in practice)."""

    expr: Expr | None = None


@dataclass
class Block(Stmt):
    """A ``{ ... }`` statement list."""

    statements: list[Stmt] = field(default_factory=list)


@dataclass
class IfStmt(Stmt):
    """``if (cond) then else otherwise`` — otherwise may be None."""

    cond: Expr | None = None
    then: Stmt | None = None
    otherwise: Stmt | None = None


@dataclass
class WhileStmt(Stmt):
    """``while (cond) body``."""

    cond: Expr | None = None
    body: Stmt | None = None


@dataclass
class DoWhileStmt(Stmt):
    """``do body while (cond);``."""

    cond: Expr | None = None
    body: Stmt | None = None


@dataclass
class ForStmt(Stmt):
    """``for (init; cond; step) body`` — each header part optional."""

    init: Stmt | None = None
    cond: Expr | None = None
    step: Stmt | None = None
    body: Stmt | None = None


@dataclass
class ReturnStmt(Stmt):
    """``return;`` or ``return e;`` (only allowed as last statement)."""

    value: Expr | None = None


@dataclass
class BreakStmt(Stmt):
    """``break;`` — rejected by the CDFG builder for now (future work
    in the paper covers richer control flow), but parsed so diagnostics
    are good."""


@dataclass
class ContinueStmt(Stmt):
    """``continue;`` — same story as :class:`BreakStmt`."""


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class FunctionDef:
    """A function definition.  The flow maps one process = one function."""

    name: str
    body: Block
    location: SourceLocation
    return_type: str = "void"
    params: list[str] = field(default_factory=list)


@dataclass
class Program:
    """A parsed translation unit."""

    functions: list[FunctionDef] = field(default_factory=list)
    source: str = ""
    filename: str = "<input>"

    def function(self, name: str) -> FunctionDef:
        """Return the function called *name*
        (:class:`MissingFunctionError` if absent)."""
        for function in self.functions:
            if function.name == name:
                return function
        raise MissingFunctionError(f"no function named {name!r}",
                                   source=self.source)

    @property
    def main(self) -> FunctionDef:
        """The entry function mapped onto the tile."""
        return self.function("main")


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Yield *expr* and all sub-expressions, pre-order."""
    yield expr
    for child in expr.children():
        yield from walk_expr(child)


def walk_stmts(stmt: Stmt) -> Iterator[Stmt]:
    """Yield *stmt* and all nested statements, pre-order."""
    yield stmt
    if isinstance(stmt, Block):
        for inner in stmt.statements:
            yield from walk_stmts(inner)
    elif isinstance(stmt, IfStmt):
        if stmt.then is not None:
            yield from walk_stmts(stmt.then)
        if stmt.otherwise is not None:
            yield from walk_stmts(stmt.otherwise)
    elif isinstance(stmt, (WhileStmt, DoWhileStmt)):
        if stmt.body is not None:
            yield from walk_stmts(stmt.body)
    elif isinstance(stmt, ForStmt):
        for part in (stmt.init, stmt.step, stmt.body):
            if part is not None:
                yield from walk_stmts(part)
