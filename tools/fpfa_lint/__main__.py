"""``python -m tools.fpfa_lint`` — lint the repo.

Exit status: 0 clean (waived findings included), 1 findings /
unused waivers / unparseable files, 2 usage errors.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from tools.fpfa_lint.core import lint_paths, repo_root
from tools.fpfa_lint.reporters import (
    RENDERERS,
    render_checker_list,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpfa-lint",
        description="Repo-invariant static analysis for the FPFA "
                    "stack (determinism, async-safety, "
                    "trace-guards, exception hygiene, ...).")
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint "
             "(default: src/ and tools/)")
    parser.add_argument(
        "--format", choices=sorted(RENDERERS),
        default="text", help="report format (default: text)")
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated checker codes to run "
             "(e.g. FPL001,FPL004)")
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the report to FILE")
    parser.add_argument(
        "--list-checkers", action="store_true",
        help="print the checker catalog and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_checkers:
        sys.stdout.write(render_checker_list())
        return 0

    root = repo_root()
    paths = [pathlib.Path(p) for p in args.paths] \
        if args.paths else [root / "src", root / "tools"]

    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",")
                  if code.strip()]
    try:
        run = lint_paths(paths, root=root, select=select)
    except ValueError as error:
        sys.stderr.write(f"fpfa-lint: {error}\n")
        return 2

    report = RENDERERS[args.format](run)
    sys.stdout.write(report)
    if args.out:
        pathlib.Path(args.out).write_text(report,
                                          encoding="utf-8")
    return 0 if run.ok else 1


if __name__ == "__main__":
    sys.exit(main())
