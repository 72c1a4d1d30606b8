"""Recursive-descent parser for the C subset.

Grammar (informally)::

    program     := function*
    function    := ("void" | "int") IDENT "(" param-list? ")" block
    block       := "{" statement* "}"
    statement   := declaration | block | if | while | do-while | for
                 | "return" expr? ";" | "break" ";" | "continue" ";"
                 | assignment ";" | expr ";" | ";"
    declaration := ("const")? "int" IDENT ("[" expr "]")? ("=" init)? ";"
    assignment  := lvalue ("=" | "+=" | ... ) expr
                 | lvalue "++" | lvalue "--" | "++" lvalue | "--" lvalue

    Expressions use standard C precedence:
      ?:  <  ||  <  &&  <  |  <  ^  <  &  <  ==/!=  <  relational
      <  <</>>  <  +/-  <  */ /, %  <  unary  <  postfix  <  primary

Compound assignments and ``++``/``--`` are desugared into plain
assignments during parsing, so the CDFG builder only ever sees
``target = expr``.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import ParseError, SourceLocation
from repro.lang.lexer import Token, TokenKind, tokenize

# Binary operator precedence, higher binds tighter.  Mirrors C.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_COMPOUND_ASSIGN = {
    "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}

_INTRINSICS = frozenset({"min", "max", "abs"})


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, source: str, filename: str = "<input>"):
        self._source = source
        self._filename = filename
        self._tokens = tokenize(source, filename)
        self._index = 0

    # -- token plumbing ----------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self._current
        return ParseError(message, token.location, self._source)

    def _expect_punct(self, text: str) -> Token:
        if not self._current.is_punct(text):
            raise self._error(f"expected {text!r}, found {str(self._current)!r}")
        return self._advance()

    def _expect_keyword(self, text: str) -> Token:
        if not self._current.is_keyword(text):
            raise self._error(f"expected {text!r}, found {str(self._current)!r}")
        return self._advance()

    def _expect_ident(self) -> Token:
        if self._current.kind is not TokenKind.IDENT:
            raise self._error(
                f"expected identifier, found {str(self._current)!r}")
        return self._advance()

    def _accept_punct(self, text: str) -> bool:
        if self._current.is_punct(text):
            self._advance()
            return True
        return False

    # -- top level ---------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse the whole translation unit."""
        functions = []
        while self._current.kind is not TokenKind.EOF:
            functions.append(self._parse_function())
        return ast.Program(functions=functions, source=self._source,
                           filename=self._filename)

    def _parse_function(self) -> ast.FunctionDef:
        if not (self._current.is_keyword("void")
                or self._current.is_keyword("int")):
            raise self._error(
                f"expected function definition, found {str(self._current)!r}")
        return_type = self._advance().text
        name_token = self._expect_ident()
        self._expect_punct("(")
        params: list[str] = []
        if not self._current.is_punct(")"):
            if self._current.is_keyword("void"):
                self._advance()
            else:
                while True:
                    self._expect_keyword("int")
                    params.append(self._expect_ident().text)
                    if not self._accept_punct(","):
                        break
        self._expect_punct(")")
        body = self._parse_block()
        return ast.FunctionDef(name=name_token.text, body=body,
                               location=name_token.location,
                               return_type=return_type, params=params)

    # -- statements --------------------------------------------------

    def _parse_block(self) -> ast.Block:
        open_brace = self._expect_punct("{")
        statements: list[ast.Stmt] = []
        while not self._current.is_punct("}"):
            if self._current.kind is TokenKind.EOF:
                raise self._error("unterminated block (missing '}')",
                                  open_brace)
            statements.append(self._parse_statement())
        self._expect_punct("}")
        return ast.Block(location=open_brace.location, statements=statements)

    def _parse_statement(self) -> ast.Stmt:
        token = self._current
        if token.is_punct("{"):
            return self._parse_block()
        if token.is_punct(";"):
            self._advance()
            return ast.Block(location=token.location, statements=[])
        if token.is_keyword("const") or token.is_keyword("int"):
            return self._parse_declaration()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("do"):
            return self._parse_do_while()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("return"):
            self._advance()
            value = None
            if not self._current.is_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return ast.ReturnStmt(location=token.location, value=value)
        if token.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            return ast.BreakStmt(location=token.location)
        if token.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            return ast.ContinueStmt(location=token.location)
        statement = self._parse_simple_statement()
        self._expect_punct(";")
        return statement

    def _parse_declaration(self) -> ast.Stmt:
        start = self._current
        is_const = False
        if self._current.is_keyword("const"):
            is_const = True
            self._advance()
        self._expect_keyword("int")
        name_token = self._expect_ident()
        size: int | None = None
        init: ast.Expr | None = None
        array_init: list[ast.Expr] | None = None
        if self._accept_punct("["):
            size_expr = self._parse_expression()
            if not isinstance(size_expr, ast.IntLit):
                raise self._error("array size must be an integer literal",
                                  name_token)
            if size_expr.value <= 0:
                raise self._error("array size must be positive", name_token)
            size = size_expr.value
            self._expect_punct("]")
        if self._accept_punct("="):
            if size is not None:
                self._expect_punct("{")
                array_init = []
                if not self._current.is_punct("}"):
                    while True:
                        array_init.append(self._parse_expression())
                        if not self._accept_punct(","):
                            break
                self._expect_punct("}")
                if len(array_init) > size:
                    raise self._error(
                        f"too many initialisers for array of {size}",
                        name_token)
            else:
                init = self._parse_expression()
        self._expect_punct(";")
        return ast.VarDecl(location=start.location, name=name_token.text,
                           size=size, init=init, array_init=array_init,
                           is_const=is_const)

    def _parse_if(self) -> ast.Stmt:
        token = self._expect_keyword("if")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        otherwise = None
        if self._current.is_keyword("else"):
            self._advance()
            otherwise = self._parse_statement()
        return ast.IfStmt(location=token.location, cond=cond, then=then,
                          otherwise=otherwise)

    def _parse_while(self) -> ast.Stmt:
        token = self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.WhileStmt(location=token.location, cond=cond, body=body)

    def _parse_do_while(self) -> ast.Stmt:
        token = self._expect_keyword("do")
        body = self._parse_statement()
        self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.DoWhileStmt(location=token.location, cond=cond, body=body)

    def _parse_for(self) -> ast.Stmt:
        token = self._expect_keyword("for")
        self._expect_punct("(")
        init: ast.Stmt | None = None
        if not self._current.is_punct(";"):
            if self._current.is_keyword("int") or self._current.is_keyword(
                    "const"):
                init = self._parse_declaration()
            else:
                init = self._parse_simple_statement()
                self._expect_punct(";")
        else:
            self._advance()
        cond: ast.Expr | None = None
        if not self._current.is_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        step: ast.Stmt | None = None
        if not self._current.is_punct(")"):
            step = self._parse_simple_statement()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.ForStmt(location=token.location, init=init, cond=cond,
                           step=step, body=body)

    def _parse_simple_statement(self) -> ast.Stmt:
        """Assignment, ++/--, or bare expression (without the ';')."""
        token = self._current
        if token.is_punct("++") or token.is_punct("--"):
            op = self._advance().text[0]
            lvalue = self._parse_lvalue()
            return self._make_increment(lvalue, op, token.location)
        expr = self._parse_expression()
        current = self._current
        if current.kind is TokenKind.PUNCT:
            if current.text == "=":
                self._advance()
                lvalue = self._require_lvalue(expr)
                value = self._parse_expression()
                return ast.Assign(location=current.location, target=lvalue,
                                  value=value)
            if current.text in _COMPOUND_ASSIGN:
                self._advance()
                lvalue = self._require_lvalue(expr)
                rhs = self._parse_expression()
                op = _COMPOUND_ASSIGN[current.text]
                value = ast.BinOp(location=current.location, op=op,
                                  lhs=self._copy_lvalue(lvalue), rhs=rhs)
                return ast.Assign(location=current.location, target=lvalue,
                                  value=value)
            if current.text in ("++", "--"):
                self._advance()
                lvalue = self._require_lvalue(expr)
                return self._make_increment(lvalue, current.text[0],
                                            current.location)
        return ast.ExprStmt(location=token.location, expr=expr)

    def _make_increment(self, lvalue: ast.LValue, op: str,
                        location: SourceLocation) -> ast.Assign:
        one = ast.IntLit(location=location, value=1)
        value = ast.BinOp(location=location, op=op,
                          lhs=self._copy_lvalue(lvalue), rhs=one)
        return ast.Assign(location=location, target=lvalue, value=value)

    def _parse_lvalue(self) -> ast.LValue:
        expr = self._parse_postfix()
        return self._require_lvalue(expr)

    def _require_lvalue(self, expr: ast.Expr) -> ast.LValue:
        if isinstance(expr, (ast.Ident, ast.ArrayRef)):
            return expr
        raise ParseError("expression is not assignable", expr.location,
                         self._source)

    @staticmethod
    def _copy_lvalue(lvalue: ast.LValue) -> ast.Expr:
        if isinstance(lvalue, ast.Ident):
            return ast.Ident(location=lvalue.location, name=lvalue.name)
        return ast.ArrayRef(location=lvalue.location, name=lvalue.name,
                            index=lvalue.index)

    # -- expressions -------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if not self._current.is_punct("?"):
            return cond
        token = self._advance()
        then = self._parse_expression()
        self._expect_punct(":")
        otherwise = self._parse_ternary()
        return ast.CondExpr(location=token.location, cond=cond, then=then,
                            otherwise=otherwise)

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        lhs = self._parse_unary()
        while True:
            token = self._current
            if token.kind is not TokenKind.PUNCT:
                return lhs
            precedence = _BINARY_PRECEDENCE.get(token.text)
            if precedence is None or precedence < min_precedence:
                return lhs
            self._advance()
            rhs = self._parse_binary(precedence + 1)
            lhs = ast.BinOp(location=token.location, op=token.text,
                            lhs=lhs, rhs=rhs)

    def _parse_unary(self) -> ast.Expr:
        token = self._current
        if token.kind is TokenKind.PUNCT and token.text in ("-", "+", "!",
                                                            "~"):
            self._advance()
            operand = self._parse_unary()
            if token.text == "+":
                return operand
            if token.text == "-" and isinstance(operand, ast.IntLit):
                return ast.IntLit(location=token.location,
                                  value=-operand.value)
            return ast.UnaryOp(location=token.location, op=token.text,
                               operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._current.is_punct("["):
                bracket = self._advance()
                index = self._parse_expression()
                self._expect_punct("]")
                if not isinstance(expr, ast.Ident):
                    raise ParseError("only named arrays can be indexed",
                                     bracket.location, self._source)
                expr = ast.ArrayRef(location=bracket.location, name=expr.name,
                                    index=index)
            elif self._current.is_punct("("):
                paren = self._advance()
                if not isinstance(expr, ast.Ident):
                    raise ParseError("only named functions can be called",
                                     paren.location, self._source)
                # intrinsics (min/max/abs) become CDFG operations;
                # other names must resolve to defined functions, which
                # semantic analysis checks and the inliner expands.
                args: list[ast.Expr] = []
                if not self._current.is_punct(")"):
                    while True:
                        args.append(self._parse_expression())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                expr = ast.Call(location=expr.location, name=expr.name,
                                args=args)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._current
        if token.kind is TokenKind.INT:
            self._advance()
            assert token.value is not None
            return ast.IntLit(location=token.location, value=token.value)
        if token.kind is TokenKind.IDENT:
            self._advance()
            return ast.Ident(location=token.location, name=token.text)
        if token.is_punct("("):
            self._advance()
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise self._error(f"expected expression, found {str(token)!r}")


def parse_program(source: str, filename: str = "<input>") -> ast.Program:
    """Parse C-subset *source* into a :class:`repro.lang.ast.Program`."""
    return Parser(source, filename).parse_program()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (used by tests and the REPL-ish CLI)."""
    parser = Parser(source)
    expr = parser._parse_expression()
    if parser._current.kind is not TokenKind.EOF:
        raise ParseError("trailing input after expression",
                         parser._current.location, source)
    return expr
