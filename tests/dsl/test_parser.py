"""Unit tests for the DSL parser."""

import pytest

from repro.dsl.ast import (
    BinaryOp,
    Call,
    Number,
    Reduce,
    Subscript,
    Ternary,
    UnaryOp,
)
from repro.dsl.errors import ParseError
from repro.dsl.parser import parse

SVM = """
minibatch = 10000;
mu = 0.1;
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];

s = sum[i](w[i] * x[i]);
c = s * y;
g[i] = (c < 1) ? (-y * x[i]) : 0;

aggregator:
iterator j[0:nodes];
w[i] = sum[j](g[j, i]) / nodes;
"""


class TestDeclarations:
    def test_declaration_count(self):
        program = parse(SVM)
        assert len(program.declarations) == 6

    def test_symbolic_dims(self):
        program = parse(SVM)
        assert program.declaration("x").dims == ("n",)
        assert program.declaration("w").data_type == "model"

    def test_iterator_range(self):
        program = parse(SVM)
        assert program.declaration("i").dims == (0, "n")

    def test_scalar_declaration_has_no_dims(self):
        program = parse(SVM)
        assert program.declaration("y").dims == ()

    def test_multidim_declaration(self):
        program = parse("model w[n][m]; model v[n, m];")
        assert program.declaration("w").dims == ("n", "m")
        assert program.declaration("v").dims == ("n", "m")


class TestParams:
    def test_minibatch(self):
        assert parse(SVM).minibatch == 10000

    def test_learning_rate(self):
        assert parse(SVM).params["mu"] == pytest.approx(0.1)

    def test_negative_param(self):
        assert parse("mu = -0.5;").params["mu"] == pytest.approx(-0.5)


class TestStatements:
    def test_gradient_section_statements(self):
        program = parse(SVM)
        assert [s.target for s in program.statements] == ["s", "c", "g"]

    def test_aggregator_section(self):
        program = parse(SVM)
        assert len(program.aggregator) == 1
        agg = program.aggregator[0]
        assert agg.target == "w"
        assert agg.indices == ("i",)

    def test_reduce_node(self):
        program = parse(SVM)
        expr = program.statements[0].expr
        assert isinstance(expr, Reduce)
        assert expr.kind == "sum"
        assert expr.iterator == "i"
        assert isinstance(expr.body, BinaryOp)
        assert expr.body.op == "mul"

    def test_ternary_and_unary(self):
        program = parse(SVM)
        expr = program.statements[2].expr
        assert isinstance(expr, Ternary)
        assert isinstance(expr.cond, BinaryOp)
        assert expr.cond.op == "lt"
        # (-y * x[i]) parses as mul(neg(y), x[i]) by precedence.
        assert isinstance(expr.if_true, BinaryOp)
        assert expr.if_true.op == "mul"
        assert isinstance(expr.if_true.left, UnaryOp)
        assert isinstance(expr.if_false, Number)

    def test_multi_index_subscript(self):
        program = parse(SVM)
        # The aggregator expression is sum[j](g[j, i]) / nodes.
        body = program.aggregator[0].expr.left.body
        assert isinstance(body, Subscript)
        assert body.indices == ("j", "i")

    def test_chained_subscript_style(self):
        program = parse("h = w[i][j] * 2;")
        ref = program.statements[0].expr.left
        assert isinstance(ref, Subscript)
        assert ref.indices == ("i", "j")


class TestPrecedence:
    def test_mul_binds_tighter_than_add(self):
        expr = parse("r = a + b * c;").statements[0].expr
        assert expr.op == "add"
        assert expr.right.op == "mul"

    def test_parentheses_override(self):
        expr = parse("r = (a + b) * c;").statements[0].expr
        assert expr.op == "mul"
        assert expr.left.op == "add"

    def test_compare_lowest(self):
        expr = parse("r = a + b > c * d;").statements[0].expr
        assert expr.op == "gt"

    def test_left_associativity(self):
        expr = parse("r = a - b - c;").statements[0].expr
        assert expr.op == "sub"
        assert expr.left.op == "sub"

    def test_unary_minus_folds_literals(self):
        # "r = -3;" alone would be a scalar meta-parameter; force an
        # expression context to observe constant folding.
        expr = parse("r = -3 + a;").statements[0].expr
        assert expr.op == "add"
        assert isinstance(expr.left, Number)
        assert expr.left.value == -3

    def test_division(self):
        expr = parse("r = a / b;").statements[0].expr
        assert expr.op == "div"


class TestCalls:
    def test_sigmoid_call(self):
        expr = parse("h = sigmoid(u);").statements[0].expr
        assert isinstance(expr, Call)
        assert expr.func == "sigmoid"
        assert len(expr.args) == 1

    def test_two_arg_call(self):
        expr = parse("h = max(a, b);").statements[0].expr
        assert len(expr.args) == 2

    def test_pi_reduce(self):
        expr = parse("p = pi[i](x[i]);").statements[0].expr
        assert isinstance(expr, Reduce)
        assert expr.kind == "pi"


class TestLinesOfCode:
    def test_loc_skips_blanks_and_comments(self):
        source = "# header\n\nmodel w[n];\n// c\ns = 1 * 2;\n"
        program = parse(source)
        assert program.lines_of_code == 2

    def test_svm_loc_in_table1_range(self):
        # Table 1 reports 22-55 lines for real programs; our compact SVM
        # example has the same order of magnitude.
        assert 10 <= parse(SVM).lines_of_code <= 55


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "model ;",
            "s = ;",
            "s = a +;",
            "s = sum[](x[i]);",
            "s = (a + b;",
            "model_input x[n]",  # missing semicolon
            "g[i] = a ? b;",  # incomplete ternary
        ],
    )
    def test_malformed_programs_raise(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse("s = a +;")
        assert err.value.line == 1
