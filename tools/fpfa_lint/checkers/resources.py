"""FPL007 — resource hygiene.

``open()`` / ``sqlite3.connect()`` / ``socket.socket()`` /
``http.client.HTTPConnection()`` handles left to the garbage
collector leak file descriptors under PyPy-like GCs and emit
``ResourceWarning`` spam under ``-W error`` — and the daemon soak
tests run long enough for fd exhaustion to be real.

A handle acquisition passes when ownership is explicit:

* it is (or feeds) a ``with`` item — including
  ``contextlib.closing(...)``,
* it is assigned to an attribute (``self._conn = ...``: an
  object-lifetime handle with a ``close()`` method),
* it is assigned to a local that is ``.close()``d somewhere in the
  same function (the ``try/finally`` idiom),
* it is returned (the caller takes ownership).

Anything else — ``open(p).read()``, a handle passed straight into
another call, an assignment never closed — is flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.fpfa_lint.core import (
    Checker,
    Finding,
    LintFile,
    Project,
    call_name,
    register,
    terminal_name,
)

#: Calls that acquire an OS-level handle.
ACQUIRERS = frozenset({
    "open", "io.open",
    "sqlite3.connect",
    "socket.socket", "socket.create_connection",
    "http.client.HTTPConnection",
})


@register
class ResourceHygieneChecker(Checker):
    code = "FPL007"
    name = "resource-hygiene"
    severity = "error"
    description = ("files/sockets/sqlite connections need with/"
                   "closing, an attribute home, or a close() in "
                   "the same function")

    def check(self, file: LintFile,
              project: Project) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name not in ACQUIRERS:
                continue
            if not self._owned(file, node):
                yield self.finding(
                    file, node,
                    f"{name}() handle is never explicitly closed "
                    f"— use `with`/contextlib.closing, store it "
                    f"on an attribute, or close() it in a "
                    f"finally block")

    def _owned(self, file: LintFile, node: ast.Call) -> bool:
        current: ast.AST = node
        while True:
            parent = file.parent(current)
            if parent is None:
                return False
            if isinstance(parent, ast.withitem):
                return True
            if isinstance(parent, ast.Return):
                # Only `return open(...)` itself hands ownership to
                # the caller; `return parse(open(...))` leaks.
                return current is node
            if isinstance(parent, (ast.Assign, ast.AnnAssign)):
                return self._assignment_owned(file, parent)
            if isinstance(parent, ast.stmt):
                return False
            current = parent

    def _assignment_owned(self, file: LintFile,
                          assign: ast.AST) -> bool:
        targets = assign.targets \
            if isinstance(assign, ast.Assign) else [assign.target]
        names: list[str] = []
        for target in targets:
            for child in ast.walk(target):
                if isinstance(child, ast.Attribute):
                    # self._conn = ... — object-lifetime handle.
                    return True
                if isinstance(child, ast.Name):
                    names.append(child.id)
        scope = self._enclosing_scope(file, assign)
        for child in ast.walk(scope):
            if isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Attribute) and \
                    child.func.attr == "close" and \
                    terminal_name(child.func.value) in names:
                return True
        return False

    @staticmethod
    def _enclosing_scope(file: LintFile, node: ast.AST) -> ast.AST:
        current = node
        while True:
            parent = file.parent(current)
            if parent is None:
                return current
            if isinstance(parent, (ast.FunctionDef,
                                   ast.AsyncFunctionDef,
                                   ast.Module)):
                return parent
            current = parent
