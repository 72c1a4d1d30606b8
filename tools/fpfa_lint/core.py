"""The fpfa-lint framework: files, findings, registry, waivers.

Design:

* **Single parse per file** — :class:`LintFile` parses the AST and
  tokenizes the comments once; every checker runs over the shared
  tree.  Parent links and comment/directive maps are built lazily so
  checkers that never need them cost nothing.
* **Checker registry** — checkers subclass :class:`Checker` and
  register under a stable ``FPLxxx`` code via :func:`register`;
  ``docs/lint.md`` and ``tools/check_docs.py`` keep the catalog and
  the registry in lockstep.
* **Waivers** — ``# fpfa-lint: disable=FPL001[,FPL004]`` on the
  finding's line (or alone on the line above) silences one site, and
  is the only way to waive a finding.  A waiver that silences no
  finding of an active checker fails the run, so waivers only ever
  shrink.  ``# fpfa-lint: wall-clock`` is FPL001's allowlist marker
  for deliberate wall-timestamp reads.

Nothing here imports the repo's ``src`` tree — the linter must run
on a checkout whose code does not import.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: Directive comments: ``# fpfa-lint: <directive>``.
DIRECTIVE_PATTERN = re.compile(r"#\s*fpfa-lint:\s*(?P<body>.+?)\s*$")

#: The FPL001 allowlist marker for deliberate wall-clock reads.
WALL_CLOCK_MARKER = "wall-clock"


def repo_root() -> pathlib.Path:
    """The repository root (this file lives at tools/fpfa_lint/)."""
    return pathlib.Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, ordered for stable reports."""

    path: str       #: repo-relative posix path
    line: int
    column: int
    code: str       #: the checker's FPLxxx code
    message: str
    severity: str   #: "error" or "warning"

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.column}: "
                f"{self.code} [{self.severity}] {self.message}")


@dataclass(frozen=True, order=True)
class Waiver:
    """One ``disable=CODE`` directive that silenced nothing."""

    path: str
    line: int       #: the directive comment's line
    code: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}: unused waiver "
                f"disable={self.code} silences no finding — "
                f"remove it")


# ---------------------------------------------------------------------------
# Parsed files
# ---------------------------------------------------------------------------

class LintFile:
    """One parsed source file shared by every checker.

    *rel* is the logical repo-relative path checkers scope their
    rules by; tests remap it to lint fixture trees as if they were
    the real layout (``lint_paths(root=...)``).
    """

    def __init__(self, path: pathlib.Path, rel: str, text: str):
        self.path = path
        self.rel = rel
        self.text = text
        self.tree = ast.parse(text)
        self._parents: dict[int, ast.AST] | None = None
        self._comment_lines: dict[int, str] | None = None
        self._line_directives: dict[int, set[str]] | None = None
        self._standalone: set[int] | None = None
        self._markers: dict[int, set[str]] | None = None

    # -- structure ----------------------------------------------------

    def parents(self) -> dict[int, ast.AST]:
        """``id(node) -> parent`` for every node in the tree."""
        if self._parents is None:
            self._parents = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    self._parents[id(child)] = node
        return self._parents

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents().get(id(node))

    # -- comments and directives --------------------------------------

    def comment_lines(self) -> dict[int, str]:
        """``line -> comment text`` for every comment token."""
        if self._comment_lines is None:
            comments: dict[int, str] = {}
            try:
                tokens = tokenize.generate_tokens(
                    io.StringIO(self.text).readline)
                for token in tokens:
                    if token.type == tokenize.COMMENT:
                        comments[token.start[0]] = token.string
            except (tokenize.TokenError, IndentationError):
                # Already parsed fine, so this is a tokenizer corner
                # case; fall back to a per-line scan.
                for number, line in enumerate(
                        self.text.splitlines(), start=1):
                    if "#" in line:
                        comments[number] = \
                            line[line.index("#"):]
            self._comment_lines = comments
        return self._comment_lines

    def has_comment_between(self, first: int, last: int) -> bool:
        comments = self.comment_lines()
        return any(first <= line <= last for line in comments)

    def _scan_directives(self) -> None:
        line_directives: dict[int, set[str]] = {}
        standalone: set[int] = set()
        markers: dict[int, set[str]] = {}
        for number, comment in self.comment_lines().items():
            match = DIRECTIVE_PATTERN.search(comment)
            if match is None:
                continue
            body = match.group("body")
            source_line = self.text.splitlines()[number - 1] \
                if number <= len(self.text.splitlines()) else ""
            if source_line.lstrip().startswith("#"):
                standalone.add(number)
            for part in body.split():
                name, __, value = part.partition("=")
                if name == "disable" and value:
                    line_directives.setdefault(number, set()) \
                        .update(code.strip()
                                for code in value.split(",")
                                if code.strip())
                elif not value:
                    markers.setdefault(number, set()).add(name)
        self._line_directives = line_directives
        self._standalone = standalone
        self._markers = markers

    def waivers(self) -> list[tuple[int, str]]:
        """Every ``(directive line, code)`` waiver, in line order."""
        if "fpfa-lint:" not in self.text:
            return []  # most files: skip tokenizing
        if self._line_directives is None:
            self._scan_directives()
        return sorted((line, code)
                      for line, codes in self._line_directives.items()
                      for code in codes)

    def waiver_for(self, line: int, code: str) -> int | None:
        """The line of the directive that disables *code* at *line*
        (same line, or a standalone directive comment on the line
        above), or None."""
        if self._line_directives is None:
            self._scan_directives()
        directives = self._line_directives
        if code in directives.get(line, ()):
            return line
        if line - 1 in self._standalone \
                and code in directives.get(line - 1, ()):
            return line - 1
        return None

    def marked(self, line: int, marker: str) -> bool:
        """Whether *marker* (e.g. ``wall-clock``) annotates *line*
        (same rules as :meth:`waiver_for`)."""
        if self._markers is None:
            self._scan_directives()
        markers = self._markers
        if marker in markers.get(line, ()):
            return True
        return line - 1 in self._standalone \
            and marker in markers.get(line - 1, ())


# ---------------------------------------------------------------------------
# AST helpers shared by checkers
# ---------------------------------------------------------------------------

def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call target: ``time.time``, ``open``,
    ``os.path.join`` — None for anything not a plain name chain."""
    return dotted_name(node.func)


def dotted_name(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def terminal_name(node: ast.AST) -> str | None:
    """The last identifier of a name chain: ``self.store`` ->
    ``store``, ``cache`` -> ``cache``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk *node*'s body without entering nested function, lambda
    or class scopes — what "inside this function" means for rules
    about async bodies (a sync closure handed to an executor runs
    elsewhere)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(child))


def exception_names(handler: ast.ExceptHandler) -> list[str]:
    """Terminal names of the exceptions a handler catches
    (``asyncio.CancelledError`` -> ``CancelledError``); empty for a
    bare ``except:``."""
    node = handler.type
    if node is None:
        return []
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for item in nodes:
        name = terminal_name(item)
        if name is not None:
            names.append(name)
    return names


def contains_raise(node: ast.AST) -> bool:
    return any(isinstance(child, ast.Raise)
               for child in walk_scope(node))


# ---------------------------------------------------------------------------
# Cross-file project context
# ---------------------------------------------------------------------------

class Project:
    """Lazily computed cross-file facts (the FPL005 field sets).

    Rooted at the tree being linted, so fixture trees carry their
    own miniature ``protocol.py``/``queue.py`` and exercise the same
    machinery as the real repo.
    """

    PROTOCOL = "src/repro/service/protocol.py"
    QUEUE = "src/repro/service/queue.py"

    def __init__(self, root: pathlib.Path):
        self.root = root
        self._request_fields: frozenset[str] | None = None
        self._view_fields: frozenset[str] | None = None

    def _parse(self, rel: str) -> ast.AST | None:
        path = self.root / rel
        try:
            return ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            return None

    @staticmethod
    def _dict_keys(node: ast.AST) -> Iterator[str]:
        for child in ast.walk(node):
            if isinstance(child, ast.Dict):
                for key in child.keys:
                    if isinstance(key, ast.Constant) \
                            and isinstance(key.value, str):
                        yield key.value
            elif isinstance(child, ast.Subscript) and \
                    isinstance(child.slice, ast.Constant) and \
                    isinstance(child.slice.value, str) and \
                    isinstance(child.ctx, ast.Store):
                yield child.slice.value

    @property
    def request_fields(self) -> frozenset[str] | None:
        """Field names the protocol validators mint: the union of
        string keys in every ``normalise_*`` function's dict
        literals.  None when no protocol module exists under this
        root (FPL005 then skips)."""
        if self._request_fields is None:
            tree = self._parse(self.PROTOCOL)
            if tree is None:
                return None
            fields: set[str] = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and \
                        node.name.startswith("normalise_"):
                    fields.update(self._dict_keys(node))
            self._request_fields = frozenset(fields)
        return self._request_fields

    @property
    def view_fields(self) -> frozenset[str] | None:
        """Field names a job view/event may carry: the string keys
        of ``Job.view``/``Job.add_event`` dict literals plus
        subscript stores (``view["trace"] = ...``)."""
        if self._view_fields is None:
            tree = self._parse(self.QUEUE)
            if tree is None:
                return None
            fields: set[str] = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and \
                        node.name in ("view", "add_event"):
                    fields.update(self._dict_keys(node))
            self._view_fields = frozenset(fields)
        return self._view_fields


# ---------------------------------------------------------------------------
# Checker registry
# ---------------------------------------------------------------------------

REGISTRY: dict[str, type["Checker"]] = {}


def register(cls: type["Checker"]) -> type["Checker"]:
    if not re.fullmatch(r"FPL\d{3}", cls.code):
        raise ValueError(f"checker code {cls.code!r} is not FPLnnn")
    if cls.code in REGISTRY:
        raise ValueError(f"duplicate checker code {cls.code}")
    REGISTRY[cls.code] = cls
    return cls


class Checker:
    """One invariant with a stable code.

    Subclasses set the class attributes, implement :meth:`check`
    (yield :class:`Finding`; the framework applies waivers
    afterwards) and optionally narrow
    :meth:`applies_to`.
    """

    code = "FPL000"
    name = "base"
    severity = "error"
    description = ""

    def applies_to(self, file: LintFile) -> bool:
        return True

    def check(self, file: LintFile,
              project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, file: LintFile, node: ast.AST,
                message: str) -> Finding:
        return Finding(path=file.rel,
                       line=getattr(node, "lineno", 1),
                       column=getattr(node, "col_offset", 0) + 1,
                       code=self.code, message=message,
                       severity=self.severity)


def all_checkers() -> list[Checker]:
    """One instance per registered checker, in code order."""
    import tools.fpfa_lint.checkers  # noqa: F401 — registration
    return [REGISTRY[code]() for code in sorted(REGISTRY)]


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

@dataclass
class LintRun:
    """The outcome of one lint pass."""

    findings: list[Finding] = field(default_factory=list)
    unused_waivers: list[Waiver] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.unused_waivers \
            and not self.errors

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts


def iter_python_files(paths: Iterable[pathlib.Path]
                      ) -> Iterator[pathlib.Path]:
    for path in paths:
        if path.is_dir():
            for item in sorted(path.rglob("*.py")):
                if "__pycache__" not in item.parts:
                    yield item
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Iterable[pathlib.Path | str], *,
               root: pathlib.Path | None = None,
               checkers: Iterable[Checker] | None = None,
               select: Iterable[str] | None = None) -> LintRun:
    """Lint *paths* (files or directories).

    *root* anchors the logical repo-relative paths checkers scope
    by (default: the real repo root).  *select* restricts to the
    given checker codes; a waiver for a checker it leaves out is not
    reported as unused.
    """
    root = (root or repo_root()).resolve()
    active = list(checkers) if checkers is not None \
        else all_checkers()
    left_out: set[str] = set()
    if select is not None:
        wanted = set(select)
        unknown = wanted - {checker.code for checker in active}
        if unknown:
            raise ValueError(
                f"unknown checker code(s): {', '.join(sorted(unknown))}")
        left_out = {checker.code for checker in active} - wanted
        active = [checker for checker in active
                  if checker.code in wanted]
    project = Project(root)
    run = LintRun()
    for path in iter_python_files(
            pathlib.Path(p) for p in paths):
        path = path.resolve()
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            text = path.read_text(encoding="utf-8")
            file = LintFile(path, rel, text)
        except (OSError, SyntaxError, ValueError) as error:
            run.errors.append(f"{rel}: {error}")
            continue
        run.files += 1
        used: set[tuple[int, str]] = set()
        for checker in active:
            if not checker.applies_to(file):
                continue
            for finding in checker.check(file, project):
                waiver = file.waiver_for(finding.line, finding.code)
                if waiver is None:
                    run.findings.append(finding)
                else:
                    run.suppressed += 1
                    used.add((waiver, finding.code))
        run.unused_waivers.extend(
            Waiver(rel, line, code) for line, code in file.waivers()
            if (line, code) not in used and code not in left_out)
    run.findings.sort()
    run.unused_waivers.sort()
    return run
