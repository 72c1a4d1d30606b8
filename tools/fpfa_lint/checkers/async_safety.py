"""FPL002 — async-safety.

The daemon runs every connection on one event loop; a single
blocking call in an ``async def`` stalls every submit, long-poll
and event stream at once.  Three rule families:

* **Blocking calls**: ``time.sleep``, synchronous subprocess /
  sqlite / socket / urllib calls and bare ``open`` inside an
  ``async def`` body.  Work handed to ``run_in_executor`` lives in
  a nested ``lambda``/``def`` — a separate scope — so it is never
  flagged (:func:`walk_scope` does not descend).
* **Store/cache calls**: the artifact store reads and writes files,
  so awaiting-coloured code must route ``store.get`` / ``admit`` /
  ``gc`` / ... through an executor.
* **Lock-held await**: ``await`` inside a *synchronous* ``with
  something_lock:`` block parks the coroutine while a thread lock
  is held — other loop callbacks needing the lock then deadlock.

The daemon's store passes run on its loop by design: a map job's
submit-time lookup (suppressed at the site) and the store pass over
every dispatched job's points (``runner._cache_pass``, a synchronous
helper this checker does not follow).  Each is a few small
page-cache reads, cheaper than the executor round trip.
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
    walk_scope,
)

#: Synchronous calls that block the event loop.
BLOCKING_CALLS = frozenset({
    "time.sleep", "os.system",
    "sqlite3.connect",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "socket.socket", "socket.create_connection",
    "urllib.request.urlopen",
    "open", "io.open",
})

#: Store/cache methods that touch the filesystem.
STORE_METHODS = frozenset({
    "get", "put", "admit", "gc", "stats", "fsck", "clear",
    "set_bounds",
})


def _body_has_await(stmts: list[ast.stmt]) -> bool:
    for stmt in stmts:
        if isinstance(stmt, ast.Await):
            return True
        for child in walk_scope(stmt):
            if isinstance(child, ast.Await):
                return True
    return False


@register
class AsyncSafetyChecker(Checker):
    code = "FPL002"
    name = "async-safety"
    severity = "error"
    description = ("blocking calls, store/cache calls and "
                   "lock-held awaits inside `async def`")

    def check(self, file: LintFile,
              project: Project) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async(file, node)

    def _check_async(self, file: LintFile,
                     func: ast.AsyncFunctionDef
                     ) -> Iterator[Finding]:
        for node in walk_scope(func):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in BLOCKING_CALLS:
                    yield self.finding(
                        file, node,
                        f"blocking call {name}() inside async def "
                        f"{func.name}() stalls the event loop — "
                        f"use the asyncio equivalent or "
                        f"run_in_executor")
                    continue
                if isinstance(node.func, ast.Attribute) and \
                        node.func.attr in STORE_METHODS:
                    receiver = terminal_name(node.func.value) or ""
                    if "store" in receiver or "cache" in receiver:
                        yield self.finding(
                            file, node,
                            f"store call {receiver}."
                            f"{node.func.attr}() inside async def "
                            f"{func.name}() hits the disk on "
                            f"the event loop — route through "
                            f"run_in_executor")
            elif isinstance(node, ast.With):
                yield from self._check_with(file, func, node)

    def _check_with(self, file: LintFile,
                    func: ast.AsyncFunctionDef,
                    node: ast.With) -> Iterator[Finding]:
        holds_lock = False
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            name = terminal_name(expr) or ""
            if "lock" in name.lower():
                holds_lock = True
        if holds_lock and _body_has_await(node.body):
            yield self.finding(
                file, node,
                f"await while holding a thread lock in async def "
                f"{func.name}() — the coroutine parks with the "
                f"lock held; keep the critical section await-free "
                f"or use asyncio.Lock with `async with`")
