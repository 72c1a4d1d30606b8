"""fpfa-lint: repo-invariant static analysis for the FPFA stack.

The whole stack rests on invariants that ordinary linters cannot
check: bit-identical artifacts under distribution and tracing,
"observation never mutates", monotonic-clock-only durations, the
``trace.enabled()`` guard convention, exception hygiene in the
daemon/fleet paths.  Each invariant has a checker here with a stable
``FPLxxx`` code; the framework parses every file once, runs every
applicable checker over the shared AST, honours inline
``# fpfa-lint: disable=CODE`` waivers (and fails on any that waive
nothing), and reports as text, JSON or a Markdown table.

Usage::

    python -m tools.fpfa_lint                  # lint src/ + tools/
    python -m tools.fpfa_lint --format json    # machine-readable
    python -m tools.fpfa_lint --list-checkers  # the catalog

See ``docs/lint.md`` for the checker catalog and how to waive a
finding.
"""

from tools.fpfa_lint.core import (
    Checker,
    Finding,
    LintFile,
    LintRun,
    Project,
    REGISTRY,
    Waiver,
    lint_paths,
    register,
    repo_root,
)

__all__ = [
    "Checker",
    "Finding",
    "LintFile",
    "LintRun",
    "Project",
    "REGISTRY",
    "Waiver",
    "lint_paths",
    "register",
    "repo_root",
]
