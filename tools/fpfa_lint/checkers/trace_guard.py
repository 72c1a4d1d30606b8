"""FPL003 — trace-guard.

The flight-recorder contract (PR 9) is that tracing disabled costs
nothing: ``trace.event(...)`` call sites that *build* attribute
dicts or format strings must sit under an ``if trace.enabled():``
guard, because the argument expressions are evaluated before the
no-op call returns.  Calls whose arguments are all constants are
free and need no guard.

This generalises the AST audit that used to live in
``tests/test_trace.py`` (two hard-coded files) to every linted
file.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.fpfa_lint.core import (
    Checker,
    Finding,
    LintFile,
    Project,
    register,
    terminal_name,
)

#: The trace calls whose arguments may allocate.
TRACE_CALLS = frozenset({"event"})


def _is_enabled_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "enabled"
            and terminal_name(node.func.value) == "trace")


def _is_enabled_guard(test: ast.AST) -> bool:
    if _is_enabled_call(test):
        return True
    if isinstance(test, ast.BoolOp):
        return any(_is_enabled_call(value) for value in test.values)
    return False


def _guarded_lines(tree: ast.AST) -> set[int]:
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_enabled_guard(node.test):
            for stmt in node.body:
                end = getattr(stmt, "end_lineno", stmt.lineno)
                guarded.update(range(stmt.lineno, end + 1))
    return guarded


def _builds_attributes(node: ast.Call) -> bool:
    return bool(node.keywords) or any(
        not isinstance(arg, ast.Constant) for arg in node.args)


@register
class TraceGuardChecker(Checker):
    code = "FPL003"
    name = "trace-guard"
    severity = "error"
    description = ("attribute-building trace.event() call sites "
                   "must be guarded by trace.enabled()")

    def check(self, file: LintFile,
              project: Project) -> Iterator[Finding]:
        guarded = _guarded_lines(file.tree)
        for node in ast.walk(file.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in TRACE_CALLS
                    and terminal_name(node.func.value) == "trace"):
                continue
            if _builds_attributes(node) \
                    and node.lineno not in guarded:
                yield self.finding(
                    file, node,
                    f"unguarded trace.{node.func.attr}() builds "
                    f"attributes even when tracing is off — wrap "
                    f"in `if trace.enabled():`")
