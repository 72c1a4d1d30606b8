"""fpfa-lint: repo-invariant static analysis for the FPFA stack.

The whole stack rests on invariants that ordinary linters cannot
check: bit-identical artifacts under distribution and tracing,
"observation never mutates", monotonic-clock-only durations, the
``trace.enabled()`` guard convention, exception hygiene in the
daemon/fleet paths.  Each invariant has a checker here with a stable
``FPLxxx`` code; the framework parses every file once, runs every
applicable checker over the shared AST, honours inline
``# fpfa-lint: disable=CODE`` suppressions and a committed baseline
of deliberate grandfathers, and reports as text, JSON or a Markdown
table.

Usage::

    python -m tools.fpfa_lint                  # lint src/ + tools/
    python -m tools.fpfa_lint --format json    # machine-readable
    python -m tools.fpfa_lint --list-checkers  # the catalog

See ``docs/lint.md`` for the checker catalog and the
suppression/baseline workflow.
"""

from tools.fpfa_lint.core import (
    Baseline,
    Checker,
    Finding,
    LintFile,
    LintRun,
    Project,
    REGISTRY,
    lint_paths,
    register,
    repo_root,
)

__all__ = [
    "Baseline",
    "Checker",
    "Finding",
    "LintFile",
    "LintRun",
    "Project",
    "REGISTRY",
    "lint_paths",
    "register",
    "repo_root",
]
