"""Hand-written tokenizer for the C subset.

The lexer recognises exactly the lexical vocabulary the paper's flow
consumes: identifiers, integer literals (decimal, hex, octal and char
constants), the usual C operators including compound assignment and
increment/decrement, and both comment styles.  Every token carries a
:class:`~repro.lang.errors.SourceLocation` so later phases can produce
caret diagnostics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.lang.errors import LexError, SourceLocation


class TokenKind(enum.Enum):
    """Lexical categories produced by :class:`Lexer`."""

    IDENT = "identifier"
    INT = "integer literal"
    KEYWORD = "keyword"
    PUNCT = "punctuator"
    EOF = "end of input"


KEYWORDS = frozenset({
    "int", "void", "if", "else", "while", "for", "return",
    "do", "break", "continue", "const",
})

_PUNCTUATORS = frozenset({
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", "?", ":",
})

#: Maximal munch: try the longest spelling first.
_PUNCT_LENGTHS = sorted({len(punct) for punct in _PUNCTUATORS},
                        reverse=True)


@dataclass(frozen=True)
class Token:
    """One lexical token with its spelling and source location."""

    kind: TokenKind
    text: str
    location: SourceLocation
    value: int | None = None  # populated for INT tokens

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<eof>"
        return self.text


class Lexer:
    """Tokenizes C-subset source text.

    Parameters
    ----------
    source:
        The program text.
    filename:
        Used in diagnostics only.
    """

    def __init__(self, source: str, filename: str = "<input>"):
        self._source = source
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokens(self) -> Iterator[Token]:
        """Yield every token in the source, ending with a single EOF."""
        while True:
            token = self.next_token()
            yield token
            if token.kind is TokenKind.EOF:
                return

    def next_token(self) -> Token:
        """Return the next token, skipping whitespace and comments."""
        self._skip_trivia()
        if self._pos >= len(self._source):
            return Token(TokenKind.EOF, "", self._location())
        char = self._source[self._pos]
        if char.isalpha() or char == "_":
            return self._lex_word()
        if char.isdigit():
            return self._lex_number()
        if char == "'":
            return self._lex_char_constant()
        return self._lex_punctuator()

    # -- internals ---------------------------------------------------

    def _location(self) -> SourceLocation:
        return SourceLocation(self._line, self._column, self._filename)

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._source):
                return
            if self._source[self._pos] == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
            self._pos += 1

    def _skip_trivia(self) -> None:
        while self._pos < len(self._source):
            char = self._source[self._pos]
            if char in " \t\r\n\f\v":
                self._advance()
            elif self._source.startswith("//", self._pos):
                while (self._pos < len(self._source)
                       and self._source[self._pos] != "\n"):
                    self._advance()
            elif self._source.startswith("/*", self._pos):
                start = self._location()
                self._advance(2)
                while not self._source.startswith("*/", self._pos):
                    if self._pos >= len(self._source):
                        raise LexError("unterminated block comment",
                                       start, self._source)
                    self._advance()
                self._advance(2)
            else:
                return

    def _lex_word(self) -> Token:
        location = self._location()
        start = self._pos
        while (self._pos < len(self._source)
               and (self._source[self._pos].isalnum()
                    or self._source[self._pos] == "_")):
            self._advance()
        text = self._source[start:self._pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, location)

    def _lex_number(self) -> Token:
        location = self._location()
        start = self._pos
        source = self._source
        if source.startswith(("0x", "0X"), self._pos):
            self._advance(2)
            digits_start = self._pos
            while (self._pos < len(source)
                   and source[self._pos] in "0123456789abcdefABCDEF"):
                self._advance()
            if self._pos == digits_start:
                raise LexError("hexadecimal literal needs at least one digit",
                               location, source)
            text = source[start:self._pos]
            value = int(text, 16)
        else:
            while self._pos < len(source) and source[self._pos].isdigit():
                self._advance()
            text = source[start:self._pos]
            value = int(text, 8) if text.startswith("0") and len(text) > 1 \
                else int(text, 10)
        if (self._pos < len(source)
                and (source[self._pos].isalpha() or source[self._pos] == "_")):
            raise LexError(f"invalid suffix on integer literal {text!r}",
                           self._location(), source)
        return Token(TokenKind.INT, text, location, value=value)

    def _lex_char_constant(self) -> Token:
        location = self._location()
        source = self._source
        self._advance()  # opening quote
        if self._pos >= len(source):
            raise LexError("unterminated character constant", location, source)
        char = source[self._pos]
        if char == "\\":
            self._advance()
            if self._pos >= len(source):
                raise LexError("unterminated character constant",
                               location, source)
            escapes = {"n": 10, "t": 9, "r": 13, "0": 0,
                       "\\": 92, "'": 39, '"': 34}
            escaped = source[self._pos]
            if escaped not in escapes:
                raise LexError(f"unknown escape sequence '\\{escaped}'",
                               self._location(), source)
            value = escapes[escaped]
            self._advance()
        else:
            value = ord(char)
            self._advance()
        if self._pos >= len(source) or source[self._pos] != "'":
            raise LexError("unterminated character constant", location, source)
        self._advance()
        return Token(TokenKind.INT, f"'{char}'", location, value=value)

    def _lex_punctuator(self) -> Token:
        location = self._location()
        for length in _PUNCT_LENGTHS:
            text = self._source[self._pos:self._pos + length]
            if text in _PUNCTUATORS:
                self._advance(len(text))
                return Token(TokenKind.PUNCT, text, location)
        raise LexError(
            f"unexpected character {self._source[self._pos]!r}",
            location, self._source)


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Tokenize *source* and return the full token list (EOF included)."""
    return list(Lexer(source, filename).tokens())
