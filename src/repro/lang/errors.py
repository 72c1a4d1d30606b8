"""Error types for the C-subset front-end.

All front-end errors derive from :class:`SourceError`, which renders a
``file:line:col`` header plus a caret line pointing into the offending
source text, so diagnostics look like a conventional compiler's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SourceLocation:
    """A position in the source text (1-based line and column)."""

    line: int
    column: int
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class SourceError(Exception):
    """Base class for all front-end errors carrying a source location."""

    def __init__(self, message: str, location: SourceLocation | None = None,
                 source: str | None = None):
        self.message = message
        self.location = location
        self.source = source
        super().__init__(self.render())

    def render(self, filename: str | None = None) -> str:
        """The compiler-style message; *filename* names the file
        where the parser only knew ``<input>``."""
        location = self.location
        if location is None:
            return self.message if filename is None \
                else f"{filename}: {self.message}"
        if filename is not None:
            location = replace(location, filename=filename)
        header = f"{location}: {self.message}"
        caret = self._caret_line()
        if caret is None:
            return header
        return f"{header}\n{caret}"

    def _caret_line(self) -> str | None:
        if self.source is None or self.location is None:
            return None
        lines = self.source.splitlines()
        index = self.location.line - 1
        if not 0 <= index < len(lines):
            return None
        text = lines[index]
        pointer = " " * (self.location.column - 1) + "^"
        return f"    {text}\n    {pointer}"


class LexError(SourceError):
    """Raised when the lexer meets a character it cannot tokenize."""


class ParseError(SourceError):
    """Raised when the parser meets an unexpected token."""


class SemanticError(SourceError):
    """Raised by semantic analysis (undeclared names, bad indexing, ...)."""


class MissingFunctionError(SemanticError):
    """Raised when the program lacks a function it must define, such
    as the ``main`` the flow maps."""
