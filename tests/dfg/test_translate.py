"""Unit tests for the Translator (DSL AST -> DFG)."""

import pytest

from repro.dfg.ir import CONST, DATA, INTERIM, MODEL
from repro.dfg.translate import TranslationError, translate
from repro.dsl.parser import parse

LINREG = """
mu = 0.1;
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
e = s - y;
g[i] = e * x[i];
"""

SVM = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
m = sum[i](w[i] * x[i]) * y;
g[i] = (m < 1) ? (-y * x[i]) : 0;

aggregator:
iterator j[0:nodes];
w[i] = sum[j](g[j, i]) / nodes;
"""

MLP = """
model_input x[n];
model_output y[c];
model w1[n, h];
model w2[h, c];
gradient g1[n, h];
gradient g2[h, c];
iterator i[0:n];
iterator j[0:h];
iterator k[0:c];
hid[j] = sigmoid(sum[i](w1[i, j] * x[i]));
out[k] = sigmoid(sum[j](w2[j, k] * hid[j]));
d2[k] = (out[k] - y[k]) * out[k] * (1 - out[k]);
g2[j, k] = d2[k] * hid[j];
d1[j] = sum[k](w2[j, k] * d2[k]) * hid[j] * (1 - hid[j]);
g1[i, j] = d1[j] * x[i];
"""


def lin(n=4):
    return translate(parse(LINREG), {"n": n})


class TestCategories:
    def test_data_inputs(self):
        dfg = lin().dfg
        names = {v.name for v in dfg.inputs_of_category(DATA)}
        assert names == {"x", "y"}

    def test_model_inputs(self):
        dfg = lin().dfg
        assert {v.name for v in dfg.inputs_of_category(MODEL)} == {"w"}

    def test_gradient_outputs(self):
        dfg = lin().dfg
        grads = dfg.gradient_outputs()
        assert len(grads) == 1
        assert grads[0].name == "g"
        assert grads[0].axes == ("i",)

    def test_interim_values_exist(self):
        dfg = lin().dfg
        interim = [v for v in dfg.values.values() if v.category == INTERIM]
        assert any(v.name == "s" for v in interim)

    def test_const_values(self):
        dfg = translate(parse(SVM), {"n": 4}).dfg
        consts = [v for v in dfg.values.values() if v.category == CONST]
        assert any(v.const_value == 1.0 for v in consts)


class TestShapes:
    def test_extents_bound(self):
        dfg = lin(7).dfg
        assert dfg.extents == {"i": 7}

    def test_vector_shape(self):
        dfg = lin(7).dfg
        x = next(v for v in dfg.values.values() if v.name == "x")
        assert dfg.shape(x) == (7,)

    def test_matrix_axes(self):
        t = translate(parse(MLP), {"n": 4, "h": 3, "c": 2})
        w1 = next(v for v in t.dfg.values.values() if v.name == "w1")
        assert w1.axes == ("i", "j")
        assert t.dfg.shape(w1) == (4, 3)

    def test_reduce_drops_axis(self):
        dfg = lin().dfg
        s = next(v for v in dfg.values.values() if v.name == "s")
        assert s.axes == ()


class TestStatistics:
    def test_data_words(self):
        # x[4] + y -> 5 words per sample
        assert lin(4).dfg.data_words() == 5

    def test_model_words(self):
        assert lin(4).dfg.model_words() == 4

    def test_gradient_words(self):
        assert lin(4).dfg.gradient_words() == 4

    def test_total_scalar_ops_linreg(self):
        dfg = lin(4).dfg
        # mul(4) + reduce(4) + sub(1) + final mul into g (4)
        assert dfg.total_scalar_ops() == 13

    def test_mlp_op_count_scales_with_topology(self):
        small = translate(parse(MLP), {"n": 4, "h": 3, "c": 2}).dfg
        big = translate(parse(MLP), {"n": 8, "h": 6, "c": 2}).dfg
        # Doubling n and h roughly quadruples the n*h terms.
        assert big.total_scalar_ops() > 2.5 * small.total_scalar_ops()

    def test_depth_positive(self):
        assert lin().dfg.depth() >= 4

    def test_nonlinear_detection(self):
        assert not lin().dfg.uses_nonlinear()
        mlp = translate(parse(MLP), {"n": 4, "h": 3, "c": 2}).dfg
        assert mlp.uses_nonlinear()


class TestAggregator:
    def test_default_is_mean(self):
        agg = lin().aggregator
        assert agg.kind == "mean"
        assert agg.pairs == (("w", "g"),)

    def test_explicit_mean(self):
        agg = translate(parse(SVM), {"n": 4}).aggregator
        assert agg.kind == "mean"
        assert agg.pairs == (("w", "g"),)

    def test_explicit_sum(self):
        source = SVM.replace(" / nodes;", ";")
        agg = translate(parse(source), {"n": 4}).aggregator
        assert agg.kind == "sum"

    def test_mlp_default_pairs_by_name(self):
        source = MLP.replace("gradient g1", "gradient g_w1").replace(
            "g1[i, j]", "g_w1[i, j]"
        ).replace("gradient g2", "gradient g_w2").replace(
            "g2[j, k]", "g_w2[j, k]"
        )
        agg = translate(parse(source), {"n": 4, "h": 3, "c": 2}).aggregator
        assert dict(agg.pairs) == {"w1": "g_w1", "w2": "g_w2"}

    def test_describe_mentions_kind(self):
        assert "mean" in translate(parse(SVM), {"n": 4}).aggregator.describe()


class TestMeta:
    def test_learning_rate(self):
        assert lin().learning_rate == pytest.approx(0.1)

    def test_default_minibatch(self):
        assert lin().minibatch == 10_000


class TestErrors:
    def test_unbound_dimension(self):
        with pytest.raises(Exception):
            translate(parse(LINREG), {})

    def test_inconsistent_subscripts(self):
        source = """
        model_input x[n];
        model w[n];
        gradient g[n];
        iterator i[0:n];
        iterator k[0:n];
        s = sum[i](w[i] * x[i]);
        g[k] = s * x[i];
        """
        with pytest.raises(TranslationError):
            translate(parse(source), {"n": 4})

    def test_extent_mismatch(self):
        source = """
        model_input x[n];
        model w[m];
        gradient g[n];
        iterator i[0:n];
        g[i] = w[i] * x[i];
        """
        with pytest.raises(TranslationError):
            translate(parse(source), {"n": 4, "m": 5})

    def test_reduce_over_constant_body(self):
        source = """
        model w[n];
        gradient g;
        iterator i[0:n];
        g = sum[i](3 * 2);
        """
        with pytest.raises(TranslationError):
            translate(parse(source), {"n": 4})

    def test_graph_validates(self):
        dfg = translate(parse(MLP), {"n": 4, "h": 3, "c": 2}).dfg
        dfg.validate()  # must not raise
