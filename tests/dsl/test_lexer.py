"""Unit tests for the DSL tokenizer."""

import pytest

from repro.dsl.errors import LexError
from repro.dsl.lexer import tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_source_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == "EOF"

    def test_keywords_are_tagged(self):
        toks = tokenize("model_input model gradient iterator aggregator sum")
        assert all(t.kind == "KEYWORD" for t in toks[:-1])

    def test_functions_are_tagged(self):
        toks = tokenize("sigmoid gaussian log exp sqrt")
        assert all(t.kind == "FUNC" for t in toks[:-1])

    def test_identifiers(self):
        toks = tokenize("w x_1 _tmp Theta")
        assert all(t.kind == "IDENT" for t in toks[:-1])

    def test_integer_and_float_literals(self):
        assert texts("42 3.14 0.5 1e3 2.5e-4") == ["42", "3.14", "0.5", "1e3", "2.5e-4"]
        assert kinds("42 3.14")[:-1] == ["NUMBER", "NUMBER"]

    def test_two_char_operators(self):
        assert texts(">= <= == !=") == [">=", "<=", "==", "!="]

    def test_single_char_operators(self):
        assert texts("+ - * / ( ) [ ] ; , ? : = < >") == list("+-*/()[];,?:=<>")


class TestCommentsAndPositions:
    def test_hash_comment_skipped(self):
        assert texts("a # comment here\nb") == ["a", "b"]

    def test_slash_slash_comment_skipped(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_line_numbers_advance(self):
        toks = tokenize("a\nb\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]

    def test_column_numbers(self):
        toks = tokenize("ab cd")
        assert toks[0].column == 1
        assert toks[1].column == 4


class TestErrors:
    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_error_carries_position(self):
        with pytest.raises(LexError) as err:
            tokenize("ok\n  $")
        assert err.value.line == 2
        assert err.value.column == 3


class TestRealPrograms:
    def test_svm_fragment(self):
        source = "s = sum[i](w[i] * x[i]);"
        assert kinds(source)[:-1] == [
            "IDENT", "OP", "KEYWORD", "OP", "IDENT", "OP", "OP",
            "IDENT", "OP", "IDENT", "OP", "OP", "IDENT", "OP",
            "IDENT", "OP", "OP", "OP",
        ]

    def test_ternary_tokens(self):
        assert texts("g = c > 1 ? 0 : x;") == [
            "g", "=", "c", ">", "1", "?", "0", ":", "x", ";",
        ]
