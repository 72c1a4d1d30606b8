"""FPL004 — exception hygiene.

Four rule families, tuned to the failure modes the fleet stack has
actually hit:

* **Bare ``except:``** catches ``SystemExit``/``KeyboardInterrupt``
  and is banned outright.
* **``except BaseException``** without a re-raise turns Ctrl-C into
  silence; a handler that stores-and-raises (or raises anything)
  passes.
* **Broad handlers in async code**: a ``try`` inside an ``async
  def`` that catches ``Exception`` (or broader) must carry an
  explicit ``except asyncio.CancelledError: raise`` clause.
  CancelledError derives from BaseException since 3.8 so
  ``except Exception`` does not *catch* it — the clause documents
  the cancellation path and keeps it correct if the handler is
  ever widened.
* **Silent swallows** in the lease path (``distributed.py``): an
  ``except ...: pass`` with no comment hides the one place a lost
  chunk would have been visible.  A trailing comment saying *why*
  makes it pass.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.fpfa_lint.core import (
    Checker,
    Finding,
    LintFile,
    Project,
    contains_raise,
    exception_names,
    register,
    walk_scope,
)

#: Handlers broad enough to need a CancelledError clause in async.
BROAD = frozenset({"Exception", "BaseException"})

#: The lease path, where a silent ``pass`` swallow is a data-loss
#: hazard.
SWALLOW_SCOPED = (
    "src/repro/dse/distributed.py",
)


def _handles_cancellation(try_node: ast.Try) -> bool:
    """Whether any handler catches CancelledError and re-raises."""
    for handler in try_node.handlers:
        if "CancelledError" in exception_names(handler) \
                and contains_raise(handler):
            return True
    return False


@register
class ExceptionHygieneChecker(Checker):
    code = "FPL004"
    name = "exception-hygiene"
    severity = "error"
    description = ("bare except, swallowed BaseException, async "
                   "broad handlers without a CancelledError "
                   "re-raise, silent pass in the lease path")

    def check(self, file: LintFile,
              project: Project) -> Iterator[Finding]:
        swallow_scope = file.rel in SWALLOW_SCOPED
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(file, node,
                                               swallow_scope)
            elif isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async(file, node)

    def _check_handler(self, file: LintFile,
                       handler: ast.ExceptHandler,
                       swallow_scope: bool) -> Iterator[Finding]:
        names = exception_names(handler)
        if handler.type is None:
            yield self.finding(
                file, handler,
                "bare `except:` also catches SystemExit and "
                "KeyboardInterrupt — name the exceptions (at "
                "broadest `except Exception`)")
            return
        if "BaseException" in names \
                and not contains_raise(handler):
            yield self.finding(
                file, handler,
                "`except BaseException` without re-raise swallows "
                "KeyboardInterrupt/SystemExit — re-raise, or "
                "narrow to Exception")
        if swallow_scope and len(handler.body) == 1 \
                and isinstance(handler.body[0], ast.Pass) \
                and not file.has_comment_between(
                    handler.lineno, handler.body[0].lineno):
            caught = ", ".join(names) or "?"
            yield self.finding(
                file, handler,
                f"silent `except {caught}: pass` in a "
                f"lease path — handle it, or leave "
                f"a comment saying why dropping is safe")

    def _check_async(self, file: LintFile,
                     func: ast.AsyncFunctionDef
                     ) -> Iterator[Finding]:
        for node in walk_scope(func):
            if not isinstance(node, ast.Try):
                continue
            if _handles_cancellation(node):
                continue
            for handler in node.handlers:
                names = exception_names(handler)
                if not (set(names) & BROAD):
                    continue
                if contains_raise(handler):
                    continue
                broad = next(name for name in names
                             if name in BROAD)
                yield self.finding(
                    file, handler,
                    f"broad `except {broad}` in async def "
                    f"{func.name}() without an `except "
                    f"asyncio.CancelledError: raise` clause — "
                    f"cancellation must propagate")
