"""Property-based tests for the DSL front end."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl.lexer import FUNCTIONS, KEYWORDS, tokenize
from repro.dsl.parser import parse

idents = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
).filter(lambda s: s not in KEYWORDS and s not in FUNCTIONS)


@st.composite
def arithmetic_exprs(draw, depth=0):
    """Random well-formed arithmetic over scalars and literals."""
    if depth > 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return str(draw(st.integers(min_value=0, max_value=999)))
        return draw(idents)
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    left = draw(arithmetic_exprs(depth=depth + 1))
    right = draw(arithmetic_exprs(depth=depth + 1))
    return f"({left} {op} {right})"


class TestLexerProperties:
    @given(st.text(alphabet=" \t\n+-*/()[];,?:=<>0123456789abcxyz_", max_size=80))
    @settings(max_examples=200)
    def test_never_crashes_on_benign_charset(self, source):
        tokens = tokenize(source)
        assert tokens[-1].kind == "EOF"

    @given(st.lists(idents, min_size=1, max_size=10))
    def test_identifier_roundtrip(self, names):
        source = " ".join(names)
        tokens = tokenize(source)[:-1]
        assert [t.text for t in tokens] == names

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_number_roundtrip(self, value):
        text = repr(float(value))
        tokens = tokenize(text)[:-1]
        assert len(tokens) == 1
        assert float(tokens[0].text) == value

    @given(st.text(max_size=60))
    @settings(max_examples=200)
    def test_lexer_total_on_arbitrary_text(self, source):
        """Any input either tokenizes or raises LexError — no crashes."""
        from repro.dsl.errors import LexError

        try:
            tokenize(source)
        except LexError:
            pass


class TestParserProperties:
    @given(arithmetic_exprs())
    @settings(max_examples=150)
    def test_generated_expressions_parse(self, expr):
        program = parse(f"r = {expr} + 0;")
        # The statement exists (or folded into a param if literal-only).
        assert program.statements or program.params

    @given(st.integers(min_value=1, max_value=10_000_000))
    def test_minibatch_roundtrip(self, b):
        assert parse(f"minibatch = {b};").minibatch == b

    @given(idents, idents)
    @settings(max_examples=100)
    def test_declarations_roundtrip(self, a, b):
        if a == b:
            return
        program = parse(f"model {a}[n]; model_input {b}[n];")
        assert program.declaration(a).data_type == "model"
        assert program.declaration(b).data_type == "model_input"

    @given(st.lists(st.sampled_from("+-*/"), min_size=1, max_size=12))
    def test_left_assoc_chains_parse(self, ops):
        expr = "a" + "".join(f" {op} b" for op in ops)
        program = parse(f"model a; model b; r = {expr};")
        assert program.statements[0].target == "r"
