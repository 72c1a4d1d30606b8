"""Unit tests for the C-subset parser."""

import pytest

from repro.lang import ast
from repro.lang.errors import MissingFunctionError, ParseError
from repro.lang.parser import parse_expression, parse_program


def main_statements(body: str) -> list:
    program = parse_program("void main() { " + body + " }")
    return program.main.body.statements


def single_statement(body: str):
    statements = main_statements(body)
    assert len(statements) == 1
    return statements[0]


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expression("a + b * c")
        assert str(expr) == "(a + (b * c))"

    def test_precedence_add_over_shift(self):
        expr = parse_expression("a << b + c")
        assert str(expr) == "(a << (b + c))"

    def test_precedence_relational_over_equality(self):
        expr = parse_expression("a == b < c")
        assert str(expr) == "(a == (b < c))"

    def test_precedence_logical(self):
        expr = parse_expression("a || b && c")
        assert str(expr) == "(a || (b && c))"

    def test_precedence_bitwise_chain(self):
        expr = parse_expression("a | b ^ c & d")
        assert str(expr) == "(a | (b ^ (c & d)))"

    def test_left_associativity_sub(self):
        expr = parse_expression("a - b - c")
        assert str(expr) == "((a - b) - c)"

    def test_left_associativity_div(self):
        expr = parse_expression("a / b / c")
        assert str(expr) == "((a / b) / c)"

    def test_parentheses_override(self):
        expr = parse_expression("(a + b) * c")
        assert str(expr) == "((a + b) * c)"

    def test_unary_minus(self):
        expr = parse_expression("-a * b")
        assert str(expr) == "((-a) * b)"

    def test_unary_minus_folds_into_literal(self):
        expr = parse_expression("-5")
        assert isinstance(expr, ast.IntLit)
        assert expr.value == -5

    def test_unary_plus_is_identity(self):
        expr = parse_expression("+a")
        assert isinstance(expr, ast.Ident)

    def test_double_negation(self):
        expr = parse_expression("!!a")
        assert str(expr) == "(!(!a))"

    def test_ternary(self):
        expr = parse_expression("a ? b : c")
        assert isinstance(expr, ast.CondExpr)

    def test_ternary_right_associative(self):
        expr = parse_expression("a ? b : c ? d : e")
        assert str(expr) == "(a ? b : (c ? d : e))"

    def test_array_reference(self):
        expr = parse_expression("a[i + 1]")
        assert isinstance(expr, ast.ArrayRef)
        assert expr.name == "a"
        assert str(expr.index) == "(i + 1)"

    def test_intrinsic_call(self):
        expr = parse_expression("min(a, b)")
        assert isinstance(expr, ast.Call)
        assert expr.name == "min"
        assert len(expr.args) == 2

    def test_user_function_call_parses(self):
        expr = parse_expression("foo(a, b)")
        assert isinstance(expr, ast.Call)
        assert expr.name == "foo"

    def test_indexing_expression_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("(a + b)[0]")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a + b c")

    def test_missing_operand_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a + ")


class TestStatements:
    def test_assignment(self):
        statement = single_statement("x = 1;")
        assert isinstance(statement, ast.Assign)
        assert isinstance(statement.target, ast.Ident)

    def test_array_assignment(self):
        statement = single_statement("a[2] = x;")
        assert isinstance(statement.target, ast.ArrayRef)

    def test_compound_assignment_desugars(self):
        statement = single_statement("x += 3;")
        assert isinstance(statement, ast.Assign)
        assert str(statement.value) == "(x + 3)"

    def test_compound_shift_assignment(self):
        statement = single_statement("x <<= 2;")
        assert str(statement.value) == "(x << 2)"

    def test_postfix_increment_desugars(self):
        statement = single_statement("i++;")
        assert isinstance(statement, ast.Assign)
        assert str(statement.value) == "(i + 1)"

    def test_prefix_decrement_desugars(self):
        statement = single_statement("--i;")
        assert str(statement.value) == "(i - 1)"

    def test_array_element_increment(self):
        statement = single_statement("a[3]++;")
        assert isinstance(statement.target, ast.ArrayRef)
        assert str(statement.value) == "(a[3] + 1)"

    def test_assignment_to_rvalue_rejected(self):
        with pytest.raises(ParseError):
            main_statements("a + b = c;")

    def test_empty_statement(self):
        statement = single_statement(";")
        assert isinstance(statement, ast.Block)
        assert statement.statements == []

    def test_nested_block(self):
        statement = single_statement("{ x = 1; y = 2; }")
        assert isinstance(statement, ast.Block)
        assert len(statement.statements) == 2

    def test_if_without_else(self):
        statement = single_statement("if (x) y = 1;")
        assert isinstance(statement, ast.IfStmt)
        assert statement.otherwise is None

    def test_if_with_else(self):
        statement = single_statement("if (x) y = 1; else y = 2;")
        assert statement.otherwise is not None

    def test_dangling_else_binds_to_nearest_if(self):
        statement = single_statement(
            "if (a) if (b) x = 1; else x = 2;")
        assert statement.otherwise is None
        inner = statement.then
        assert isinstance(inner, ast.IfStmt)
        assert inner.otherwise is not None

    def test_while(self):
        statement = single_statement("while (i < 5) i = i + 1;")
        assert isinstance(statement, ast.WhileStmt)

    def test_do_while(self):
        statement = single_statement("do i = i + 1; while (i < 5);")
        assert isinstance(statement, ast.DoWhileStmt)

    def test_for_full_header(self):
        statement = single_statement(
            "for (int i = 0; i < 5; i++) x = x + i;")
        assert isinstance(statement, ast.ForStmt)
        assert isinstance(statement.init, ast.VarDecl)
        assert statement.cond is not None
        assert isinstance(statement.step, ast.Assign)

    def test_for_with_assignment_init(self):
        statement = single_statement("for (i = 0; i < 5; i++) x = i;")
        assert isinstance(statement.init, ast.Assign)

    def test_for_without_init_and_step(self):
        statement = single_statement("for (; i < 5;) i = i + 1;")
        assert statement.init is None
        assert statement.step is None

    def test_break_and_continue_parse(self):
        statements = main_statements(
            "while (x) { break; } while (y) { continue; }")
        assert isinstance(statements[0].body.statements[0], ast.BreakStmt)
        assert isinstance(statements[1].body.statements[0],
                          ast.ContinueStmt)

    def test_return_value(self):
        statement = single_statement("return x + 1;")
        assert isinstance(statement, ast.ReturnStmt)
        assert statement.value is not None

    def test_return_void(self):
        statement = single_statement("return;")
        assert statement.value is None

    def test_unterminated_block_rejected(self):
        with pytest.raises(ParseError):
            parse_program("void main() { x = 1;")


class TestDeclarations:
    def test_scalar_declaration(self):
        statement = single_statement("int x;")
        assert isinstance(statement, ast.VarDecl)
        assert not statement.is_array

    def test_scalar_with_init(self):
        statement = single_statement("int x = 2 + 3;")
        assert str(statement.init) == "(2 + 3)"

    def test_const_declaration(self):
        statement = single_statement("const int x = 1;")
        assert statement.is_const

    def test_array_declaration(self):
        statement = single_statement("int a[8];")
        assert statement.is_array
        assert statement.size == 8

    def test_array_with_initialiser_list(self):
        statement = single_statement("int a[3] = {1, 2, 3};")
        assert len(statement.array_init) == 3

    def test_array_partial_initialiser(self):
        statement = single_statement("int a[5] = {1, 2};")
        assert len(statement.array_init) == 2

    def test_too_many_initialisers_rejected(self):
        with pytest.raises(ParseError):
            main_statements("int a[2] = {1, 2, 3};")

    def test_non_constant_size_rejected(self):
        with pytest.raises(ParseError):
            main_statements("int a[n];")

    def test_zero_size_rejected(self):
        with pytest.raises(ParseError):
            main_statements("int a[0];")


class TestFunctions:
    def test_void_main(self):
        program = parse_program("void main() { }")
        assert program.main.name == "main"
        assert program.main.return_type == "void"

    def test_void_keyword_parameter_list(self):
        program = parse_program("void main(void) { }")
        assert program.main.params == []

    def test_int_function_with_params(self):
        program = parse_program("int add(int a, int b) { return a + b; }")
        function = program.function("add")
        assert function.params == ["a", "b"]
        assert function.return_type == "int"

    def test_multiple_functions(self):
        program = parse_program(
            "void f() { } void main() { } int g(int x) { return x; }")
        assert [f.name for f in program.functions] == ["f", "main", "g"]

    def test_missing_main_lookup_raises(self):
        program = parse_program("void f() { }")
        with pytest.raises(MissingFunctionError,
                           match="no function named 'main'"):
            program.main

    def test_garbage_at_top_level_rejected(self):
        with pytest.raises(ParseError):
            parse_program("x = 1;")

    def test_error_message_has_location_and_caret(self):
        with pytest.raises(ParseError) as info:
            parse_program("void main() { x = ; }")
        message = str(info.value)
        assert "1:" in message
        assert "^" in message


class TestFirExample:
    def test_paper_fir_parses(self):
        from tests.conftest import FIR_SOURCE
        program = parse_program(FIR_SOURCE)
        statements = program.main.body.statements
        assert len(statements) == 3  # sum=0; i=0; while
        assert isinstance(statements[2], ast.WhileStmt)

    def test_walkers_cover_fir(self):
        from tests.conftest import FIR_SOURCE
        program = parse_program(FIR_SOURCE)
        nodes = list(ast.walk_stmts(program.main.body))
        assert any(isinstance(node, ast.WhileStmt) for node in nodes)
        exprs = [node for statement in nodes
                 if isinstance(statement, ast.Assign)
                 for node in ast.walk_expr(statement.value)]
        assert any(isinstance(expr, ast.ArrayRef) for expr in exprs)
