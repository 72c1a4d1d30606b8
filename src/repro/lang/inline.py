"""Function-call inlining at the AST level.

Paper §III treats "C operators and function calls" as CDFG
operations; the reproduction supports user-defined functions by
inlining every call before CDFG construction (the flow maps one
process = one flat function; there is no call hardware on the tile).

For a call site ``f(e1, e2)`` the inliner produces::

    int __f1_a = e1;        (arguments by value, evaluated once)
    int __f1_b = e2;
    ...body of f with locals renamed with the __f1_ prefix...
    int __f1_return = <return expression>;

and the call expression becomes ``__f1_return``.  Undeclared names in
the callee are globals and stay unrenamed, so callees share the
statespace with the caller exactly as separate C functions share
memory.

Restrictions (each reported with a caret diagnostic):

* recursion (direct or mutual) cannot be inlined;
* a non-void callee must end with its single ``return`` statement
  (the same shape the CDFG builder requires of ``main``);
* ``void`` functions may only be called as statements, value-returning
  functions only where a value is wanted.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import (
    MissingFunctionError,
    SemanticError,
    SourceLocation,
)
from repro.lang.sema import analyze

_INTRINSICS = frozenset({"min", "max", "abs"})


class InlineError(SemanticError):
    """Raised when a call site cannot be inlined."""


class Inliner:
    """Rewrites a program so that a chosen function is call-free."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.info = analyze(program)
        self._counter = 0
        self._stack: list[str] = []

    # -- public ---------------------------------------------------------

    def inline_function(self, name: str) -> ast.FunctionDef:
        """Return *name*'s definition with every call inlined."""
        function = self.program.function(name)
        self._stack = [name]
        body = ast.Block(location=function.body.location,
                         statements=self._rewrite_block(
                             function.body.statements))
        return ast.FunctionDef(name=function.name, body=body,
                               location=function.location,
                               return_type=function.return_type,
                               params=list(function.params))

    # -- statements -------------------------------------------------------

    def _rewrite_block(self, statements: list[ast.Stmt]) -> list[ast.Stmt]:
        rewritten: list[ast.Stmt] = []
        for statement in statements:
            rewritten.extend(self._rewrite_stmt(statement))
        return rewritten

    def _rewrite_stmt(self, statement: ast.Stmt) -> list[ast.Stmt]:
        prelude: list[ast.Stmt] = []
        if isinstance(statement, ast.Block):
            return [ast.Block(location=statement.location,
                              statements=self._rewrite_block(
                                  statement.statements))]
        if isinstance(statement, ast.VarDecl):
            if statement.init is not None:
                statement.init = self._rewrite_expr(statement.init,
                                                    prelude)
            if statement.array_init is not None:
                statement.array_init = [
                    self._rewrite_expr(expr, prelude)
                    for expr in statement.array_init]
            return prelude + [statement]
        if isinstance(statement, ast.Assign):
            assert statement.value is not None
            statement.value = self._rewrite_expr(statement.value,
                                                 prelude)
            target = statement.target
            if isinstance(target, ast.ArrayRef):
                assert target.index is not None
                target.index = self._rewrite_expr(target.index, prelude)
            return prelude + [statement]
        if isinstance(statement, ast.ExprStmt):
            expr = statement.expr
            if isinstance(expr, ast.Call) and \
                    expr.name not in _INTRINSICS:
                # statement call: allowed for void and int callees
                expanded = self._inline_call(expr, prelude,
                                             want_value=False)
                return prelude + expanded
            if expr is not None:
                statement.expr = self._rewrite_expr(expr, prelude)
            return prelude + [statement]
        if isinstance(statement, ast.IfStmt):
            assert statement.cond is not None
            statement.cond = self._rewrite_expr(statement.cond, prelude)
            assert statement.then is not None
            statement.then = ast.Block(
                location=statement.then.location,
                statements=self._rewrite_stmt(statement.then))
            if statement.otherwise is not None:
                statement.otherwise = ast.Block(
                    location=statement.otherwise.location,
                    statements=self._rewrite_stmt(statement.otherwise))
            return prelude + [statement]
        if isinstance(statement, (ast.WhileStmt, ast.DoWhileStmt)):
            assert statement.cond is not None and statement.body
            self._forbid_calls(statement.cond,
                               "calls in loop conditions cannot be "
                               "inlined (they would be evaluated once)")
            statement.body = ast.Block(
                location=statement.body.location,
                statements=self._rewrite_stmt(statement.body))
            return [statement]
        if isinstance(statement, ast.ForStmt):
            parts: list[ast.Stmt] = []
            if statement.init is not None:
                parts = self._rewrite_stmt(statement.init)
                statement.init = parts[-1]
                parts = parts[:-1]
            if statement.cond is not None:
                self._forbid_calls(statement.cond,
                                   "calls in loop conditions cannot "
                                   "be inlined")
            if statement.step is not None:
                steps = self._rewrite_stmt(statement.step)
                if len(steps) != 1:
                    raise InlineError(
                        "calls in 'for' step expressions cannot be "
                        "inlined", statement.location,
                        self.program.source)
                statement.step = steps[0]
            assert statement.body is not None
            statement.body = ast.Block(
                location=statement.body.location,
                statements=self._rewrite_stmt(statement.body))
            return parts + [statement]
        if isinstance(statement, ast.ReturnStmt):
            if statement.value is not None:
                statement.value = self._rewrite_expr(statement.value,
                                                     prelude)
            return prelude + [statement]
        return [statement]

    def _forbid_calls(self, expr: ast.Expr, message: str) -> None:
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.Call) and \
                    node.name not in _INTRINSICS:
                raise InlineError(message, node.location,
                                  self.program.source)

    # -- expressions ----------------------------------------------------------

    def _rewrite_expr(self, expr: ast.Expr,
                      prelude: list[ast.Stmt]) -> ast.Expr:
        if isinstance(expr, ast.Call) and expr.name not in _INTRINSICS:
            statements = self._inline_call(expr, prelude,
                                           want_value=True)
            prelude.extend(statements)
            return ast.Ident(location=expr.location,
                             name=self._return_name_of_last_inline)
        for attribute in ("lhs", "rhs", "operand", "cond", "then",
                          "otherwise", "index"):
            child = getattr(expr, attribute, None)
            if isinstance(child, ast.Expr):
                setattr(expr, attribute,
                        self._rewrite_expr(child, prelude))
        if isinstance(expr, ast.Call):  # intrinsic
            expr.args = [self._rewrite_expr(arg, prelude)
                         for arg in expr.args]
        return expr

    # -- the inline expansion ----------------------------------------------------

    def _inline_call(self, call: ast.Call, prelude: list[ast.Stmt],
                     want_value: bool) -> list[ast.Stmt]:
        try:
            callee = self.program.function(call.name)
        except MissingFunctionError:
            raise InlineError(
                f"call to undefined function {call.name!r}",
                call.location, self.program.source) from None
        if call.name in self._stack:
            raise InlineError(
                f"recursive call to {call.name!r} cannot be inlined",
                call.location, self.program.source)
        if len(call.args) != len(callee.params):
            raise InlineError(
                f"{call.name!r} expects {len(callee.params)} "
                f"argument(s), got {len(call.args)}",
                call.location, self.program.source)
        if want_value and callee.return_type == "void":
            raise InlineError(
                f"void function {call.name!r} used as a value",
                call.location, self.program.source)

        self._counter += 1
        prefix = f"__{call.name}{self._counter}_"
        renames = self._renames_for(callee, prefix)
        location = call.location

        statements: list[ast.Stmt] = []
        for param, argument in zip(callee.params, call.args):
            value = self._rewrite_expr(argument, prelude)
            statements.append(ast.VarDecl(
                location=location, name=renames[param], init=value))

        body = callee.body.statements
        return_stmt: ast.ReturnStmt | None = None
        if body and isinstance(body[-1], ast.ReturnStmt):
            return_stmt = body[-1]
            body = body[:-1]
        for statement in body:
            if any(isinstance(s, ast.ReturnStmt)
                   for s in ast.walk_stmts(statement)):
                raise InlineError(
                    f"{call.name!r}: 'return' is only supported as "
                    f"the last statement for inlining",
                    statement.location, self.program.source)
            statements.append(_rename_stmt(_clone_stmt(statement),
                                           renames))

        return_name = prefix + "return"
        if want_value:
            if return_stmt is None or return_stmt.value is None:
                raise InlineError(
                    f"{call.name!r} does not return a value",
                    call.location, self.program.source)
            statements.append(ast.VarDecl(
                location=location, name=return_name,
                init=_rename_expr(_clone_expr(return_stmt.value),
                                  renames)))

        # recursively inline calls inside the expanded body; nested
        # expansions overwrite the marker, so set ours afterwards
        self._stack.append(call.name)
        expanded = self._rewrite_block(statements)
        self._stack.pop()
        self._return_name_of_last_inline = return_name
        return expanded

    def _renames_for(self, callee: ast.FunctionDef,
                     prefix: str) -> dict[str, str]:
        info = self.info.function(callee.name)
        renames = {}
        for name, symbol in info.symbols.items():
            if symbol.is_param or symbol.is_declared:
                renames[name] = prefix + name
        return renames


# -- AST cloning/renaming helpers -------------------------------------------


def _clone_expr(expr: ast.Expr) -> ast.Expr:
    import copy
    return copy.deepcopy(expr)


def _clone_stmt(statement: ast.Stmt) -> ast.Stmt:
    import copy
    return copy.deepcopy(statement)


def _rename_expr(expr: ast.Expr, renames: dict[str, str]) -> ast.Expr:
    for node in ast.walk_expr(expr):
        if isinstance(node, (ast.Ident, ast.ArrayRef)) and \
                node.name in renames:
            node.name = renames[node.name]
    return expr


def _rename_stmt(statement: ast.Stmt, renames: dict[str, str]) -> ast.Stmt:
    for node in ast.walk_stmts(statement):
        if isinstance(node, ast.VarDecl) and node.name in renames:
            node.name = renames[node.name]
            if node.init is not None:
                _rename_expr(node.init, renames)
            if node.array_init is not None:
                for expr in node.array_init:
                    _rename_expr(expr, renames)
        elif isinstance(node, ast.Assign):
            assert node.target is not None and node.value is not None
            if node.target.name in renames:
                node.target.name = renames[node.target.name]
            if isinstance(node.target, ast.ArrayRef) and \
                    node.target.index is not None:
                _rename_expr(node.target.index, renames)
            _rename_expr(node.value, renames)
        elif isinstance(node, ast.ExprStmt) and node.expr is not None:
            _rename_expr(node.expr, renames)
        elif isinstance(node, ast.IfStmt) and node.cond is not None:
            _rename_expr(node.cond, renames)
        elif isinstance(node, (ast.WhileStmt, ast.DoWhileStmt)) and \
                node.cond is not None:
            _rename_expr(node.cond, renames)
        elif isinstance(node, ast.ForStmt) and node.cond is not None:
            _rename_expr(node.cond, renames)
        elif isinstance(node, ast.ReturnStmt) and node.value is not None:
            _rename_expr(node.value, renames)
    return statement


def inline_calls(program: ast.Program,
                 function: str = "main") -> ast.Program:
    """Return a program whose *function* has every call expanded.

    The result contains the inlined function plus the original other
    definitions (untouched — they are no longer referenced by it).
    """
    inliner = Inliner(program)
    inlined = inliner.inline_function(function)
    functions = [inlined if f.name == function else f
                 for f in program.functions]
    return ast.Program(functions=functions, source=program.source,
                       filename=program.filename)


def has_user_calls(program: ast.Program, function: str) -> bool:
    """Does *function* contain calls to non-intrinsic functions?"""
    target = program.function(function)
    for statement in ast.walk_stmts(target.body):
        for expr in _statement_exprs(statement):
            for node in ast.walk_expr(expr):
                if isinstance(node, ast.Call) and \
                        node.name not in _INTRINSICS:
                    return True
    return False


def _statement_exprs(statement: ast.Stmt):
    for attribute in ("expr", "value", "init", "cond"):
        child = getattr(statement, attribute, None)
        if isinstance(child, ast.Expr):
            yield child
    if isinstance(statement, ast.Assign) and \
            isinstance(statement.target, ast.ArrayRef) and \
            statement.target.index is not None:
        yield statement.target.index
    if isinstance(statement, ast.VarDecl) and statement.array_init:
        yield from statement.array_init
