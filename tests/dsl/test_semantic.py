"""Unit tests for DSL semantic analysis."""

import pytest

from repro.dsl.errors import SemanticError
from repro.dsl.parser import parse
from repro.dsl.semantic import analyze, iterator_extent, resolve_dims


def check(source):
    return analyze(parse(source))


GOOD = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
"""


class TestAccepts:
    def test_valid_program(self):
        table = check(GOOD)
        assert table.get("w").kind == "model"
        assert table.get("s").kind == "interim"

    def test_interim_values_inferred(self):
        table = check(GOOD)
        assert "s" in table
        assert not table.get("s").is_iterator

    def test_params_enter_table(self):
        table = check("mu = 0.1;" + GOOD)
        assert table.get("mu").kind == "param"

    def test_aggregator_assigning_model_ok(self):
        # "nodes" is implicitly declared; the runtime binds it (Eq. 3b).
        source = GOOD + "\naggregator:\niterator j[0:nodes];\nw[i] = sum[j](g[j, i]) / nodes;\n"
        check(source)

    def test_nodes_cannot_be_redeclared(self):
        with pytest.raises(SemanticError):
            check("nodes = 3;" + GOOD)


class TestRejects:
    def test_duplicate_declaration(self):
        with pytest.raises(SemanticError):
            check("model w[n]; model w[m]; gradient g; g = 1 + 1;")

    def test_undeclared_identifier(self):
        with pytest.raises(SemanticError):
            check("model w[n]; gradient g; g = w_typo + 1;")

    def test_assign_to_model_input(self):
        with pytest.raises(SemanticError):
            check("model_input x[n]; model w[n]; iterator i[0:n]; x[i] = 1 + 1;")

    def test_assign_to_iterator(self):
        with pytest.raises(SemanticError):
            check("model w[n]; iterator i[0:n]; i = 1 + 1;")

    def test_subscript_not_iterator(self):
        with pytest.raises(SemanticError):
            check("model w[n]; model v[n]; gradient g[n]; iterator i[0:n]; g[v] = 1 + 1;")

    def test_missing_model(self):
        with pytest.raises(SemanticError):
            check("model_input x[n]; gradient g; g = 1 + 1;")

    def test_unassigned_gradient(self):
        with pytest.raises(SemanticError):
            check("model w[n]; gradient g[n]; iterator i[0:n]; s = w[i] * 2;")

    def test_wrong_subscript_arity(self):
        with pytest.raises(SemanticError):
            check("model w[n][m]; gradient g; iterator i[0:n]; w[i] = 1 + 1;")

    def test_empty_iterator_range(self):
        with pytest.raises(SemanticError):
            check("model w[n]; gradient g; iterator i[5:5]; g = 1 + 1;")

    def test_iterator_used_unbound(self):
        with pytest.raises(SemanticError):
            check("model w[n]; gradient g; iterator i[0:n]; g = i * 2;")

    def test_reduce_over_non_iterator(self):
        with pytest.raises(SemanticError):
            check("model w[n]; gradient g; g = sum[w](w);")

    def test_aggregator_cannot_assign_input(self):
        source = GOOD + "\naggregator:\nx = 1 + 1;\n"
        with pytest.raises(SemanticError):
            check(source)


class TestDims:
    def test_resolve_symbolic(self):
        assert resolve_dims(("n", 4, "m"), {"n": 3, "m": 5}) == (3, 4, 5)

    def test_resolve_unbound_raises(self):
        with pytest.raises(SemanticError):
            resolve_dims(("k",), {})

    def test_iterator_extent_range(self):
        table = check(GOOD)
        assert iterator_extent(table.get("i"), {"n": 8}) == (0, 8)

    def test_iterator_extent_size_form(self):
        table = check("model w[n]; gradient g[n]; iterator i[n]; g[i] = w[i] * 1;")
        assert iterator_extent(table.get("i"), {"n": 8}) == (0, 8)

    def test_iterator_extent_on_non_iterator_raises(self):
        table = check(GOOD)
        with pytest.raises(SemanticError):
            iterator_extent(table.get("w"), {"n": 8})
