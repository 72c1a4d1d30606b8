"""FPL001 — determinism.

Bit-identical artifacts are the stack's north-star invariant (one
tile must map identically everywhere, distributed runs must equal
local runs byte for byte).  Three rule families guard it:

* **Clocks**: ``time.time()`` / ``datetime.now()`` read the wall
  clock, which steps under NTP — durations and ordering must come
  from ``time.monotonic()`` / ``time.perf_counter()`` (the PR 5 bug
  class).  Deliberate wall *timestamps* (presentation fields,
  trace ``at`` stamps) are annotated with the allowlist marker
  ``# fpfa-lint: wall-clock``.
* **Randomness**: the module-level ``random.*`` functions draw from
  a process-global unseeded generator; all randomness must flow
  through a seeded ``random.Random(seed)``.
* **Ordering** (``dse/``, ``cdfg/``, ``multitile/``, ``core/`` and
  ``arch/`` only): iterating a ``set`` literal/call, or an
  ``os.listdir``/``glob``/``iterdir`` scan without ``sorted(...)``,
  feeds hash/filesystem order into code whose output is hashed or
  compared across runs.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.fpfa_lint.core import (
    Checker,
    Finding,
    LintFile,
    Project,
    WALL_CLOCK_MARKER,
    call_name,
    register,
)

#: Wall-clock reads (dotted call names).
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
})

#: Module-level random functions (the unseeded global generator).
GLOBAL_RANDOM = frozenset({
    "random", "randint", "randrange", "randbytes", "choice",
    "choices", "shuffle", "sample", "uniform", "triangular",
    "gauss", "normalvariate", "expovariate", "betavariate",
    "getrandbits",
})

#: Directory scans whose order is filesystem-dependent.
UNORDERED_SCANS = frozenset({"os.listdir", "os.scandir"})
UNORDERED_SCAN_METHODS = frozenset({"glob", "iterdir", "rglob"})

#: Subtrees where the ordering rules apply: the mapping core, whose
#: outputs are hashed, cached and compared bit-for-bit across runs
#: (the allocator tries candidate locations in a fixed order).
ORDER_SCOPED = ("src/repro/dse/", "src/repro/cdfg/",
                "src/repro/multitile/", "src/repro/core/",
                "src/repro/arch/")


@register
class DeterminismChecker(Checker):
    code = "FPL001"
    name = "determinism"
    severity = "error"
    description = ("wall-clock reads outside the allowlist, "
                   "unseeded randomness, unordered iteration in "
                   "the mapping core")

    def check(self, file: LintFile,
              project: Project) -> Iterator[Finding]:
        ordered_scope = file.rel.startswith(ORDER_SCOPED)
        sorted_args: set[int] = set()
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in ("sorted", "list", "tuple") \
                    and node.args:
                # sorted(scan) is ordered; list(scan) feeds sorted()
                # often enough that flagging it is noise — the rule
                # targets *iteration*, so only direct loop/comp use
                # of a scan is flagged below.
                if node.func.id == "sorted":
                    sorted_args.add(id(node.args[0]))
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(file, node,
                                            ordered_scope,
                                            sorted_args)
            elif ordered_scope and isinstance(
                    node, (ast.For, ast.comprehension)):
                iter_node = node.iter
                if isinstance(iter_node, ast.Set) or (
                        isinstance(iter_node, ast.Call) and
                        isinstance(iter_node.func, ast.Name) and
                        iter_node.func.id in ("set", "frozenset")):
                    yield self.finding(
                        file, iter_node,
                        "iteration over an unordered set in the "
                        "mapping core — sort (or use an ordered "
                        "container) before feeding hashed or "
                        "ordered output")

    def _check_call(self, file: LintFile, node: ast.Call,
                    ordered_scope: bool,
                    sorted_args: set[int]) -> Iterator[Finding]:
        name = call_name(node)
        if name in WALL_CLOCK_CALLS:
            if not file.marked(node.lineno, WALL_CLOCK_MARKER):
                yield self.finding(
                    file, node,
                    f"wall-clock read {name}() — durations and "
                    f"ordering must use time.monotonic(); mark a "
                    f"deliberate timestamp with "
                    f"`# fpfa-lint: wall-clock`")
            return
        if name is not None and name.startswith("random."):
            attr = name.split(".", 1)[1]
            if attr in GLOBAL_RANDOM:
                yield self.finding(
                    file, node,
                    f"unseeded global randomness random.{attr}() — "
                    f"draw from a seeded random.Random(seed)")
                return
            if attr == "Random" and not node.args \
                    and not node.keywords:
                yield self.finding(
                    file, node,
                    "random.Random() without a seed — pass an "
                    "explicit seed for reproducible runs")
                return
        if not ordered_scope:
            return
        unordered = name in UNORDERED_SCANS or (
            name is None and
            isinstance(node.func, ast.Attribute) and
            node.func.attr in UNORDERED_SCAN_METHODS)
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in UNORDERED_SCAN_METHODS:
            unordered = True
        if unordered and id(node) not in sorted_args:
            label = name or node.func.attr
            yield self.finding(
                file, node,
                f"{label}() scan order is filesystem-dependent in "
                f"the mapping core — wrap in sorted(...)")
