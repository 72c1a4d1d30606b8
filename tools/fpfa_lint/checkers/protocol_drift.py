"""FPL005 — protocol drift.

The daemon wire protocol is duck-typed JSON: the client builds a
request dict, ``protocol.normalise_*`` validates it, the daemon
reads fields back out, and clients read job views.  A
typo'd field name (``request["verify-seed"]``) fails silently as a
missing key at runtime — on the *other* end of the wire.

This checker cross-references every constant-string field access
against the sets the protocol module actually mints:

* ``request[...]`` / ``request.get(...)`` against the union of dict
  keys in ``protocol.normalise_*`` (:attr:`Project.request_fields`)
* ``job[...]`` / ``view[...]`` and their ``.get()`` forms against
  the keys of ``Job.view()``/``Job.add_event()``
  (:attr:`Project.view_fields`)

Only the wire-handling modules are scoped — a local variable that
happens to be called ``request`` elsewhere is not checked.  When no
protocol module exists under the lint root the checker is silent.
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

#: Modules that read/write wire fields.
SCOPED = frozenset({
    "src/repro/cli.py",
    "src/repro/service/client.py",
    "src/repro/service/daemon.py",
    "src/repro/service/queue.py",
    "src/repro/dse/distributed.py",
})

#: Receiver names treated as protocol requests / job views.
REQUEST_NAMES = frozenset({"request"})
VIEW_NAMES = frozenset({"job", "view"})


@register
class ProtocolDriftChecker(Checker):
    code = "FPL005"
    name = "protocol-drift"
    severity = "error"
    description = ("request/view field names must exist in the "
                   "protocol validators and Job.view()")

    def applies_to(self, file: LintFile) -> bool:
        return file.rel in SCOPED

    def check(self, file: LintFile,
              project: Project) -> Iterator[Finding]:
        request_fields = project.request_fields
        view_fields = project.view_fields
        for node in ast.walk(file.tree):
            receiver, key = self._field_access(node)
            if receiver is None or key is None:
                continue
            if receiver in REQUEST_NAMES \
                    and request_fields is not None \
                    and key not in request_fields:
                yield self.finding(
                    file, node,
                    f"request field {key!r} is not minted by any "
                    f"protocol.normalise_* validator — protocol "
                    f"drift (known fields: add it to protocol.py "
                    f"first)")
            elif receiver in VIEW_NAMES \
                    and view_fields is not None \
                    and key not in view_fields:
                yield self.finding(
                    file, node,
                    f"view field {key!r} is not produced by "
                    f"Job.view()/Job.add_event() — protocol drift")

    @staticmethod
    def _field_access(node: ast.AST
                      ) -> tuple[str | None, str | None]:
        """(receiver, key) for ``recv["key"]`` / ``recv.get("key")``
        with a constant string key; (None, None) otherwise."""
        if isinstance(node, ast.Subscript) and \
                isinstance(node.slice, ast.Constant) and \
                isinstance(node.slice.value, str):
            return terminal_name(node.value), node.slice.value
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "get" and node.args and \
                isinstance(node.args[0], ast.Constant) and \
                isinstance(node.args[0].value, str):
            return terminal_name(node.func.value), \
                node.args[0].value
        return None, None
