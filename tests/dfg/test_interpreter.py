"""Interpreter correctness against hand-written NumPy math."""

import numpy as np
import pytest

from repro.dfg.interpreter import Interpreter, InterpreterError
from repro.dfg.translate import translate
from repro.dsl.parser import parse
from repro.ml.benchmarks import BENCHMARKS

LINREG = """
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
"""

LOGREG = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
p = sigmoid(sum[i](w[i] * x[i]));
g[i] = (p - y) * x[i];
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


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestLinearRegression:
    def test_gradient_matches_closed_form(self, rng):
        n = 6
        t = translate(parse(LINREG), {"n": n})
        x = rng.normal(size=n)
        y = 1.5
        w = rng.normal(size=n)
        out = Interpreter(t.dfg).run({"x": x, "y": np.float64(y), "w": w})
        expected = (w @ x - y) * x
        np.testing.assert_allclose(out["g"], expected, rtol=1e-12)

    def test_batch_mode(self, rng):
        n, b = 5, 8
        t = translate(parse(LINREG), {"n": n})
        x = rng.normal(size=(b, n))
        y = rng.normal(size=(b,))
        w = rng.normal(size=n)
        out = Interpreter(t.dfg).run({"x": x, "y": y, "w": w}, batch=True)
        expected = (x @ w - y)[:, None] * x
        assert out["g"].shape == (b, n)
        np.testing.assert_allclose(out["g"], expected, rtol=1e-12)


class TestModelOnlyTerms:
    """Values computed from MODEL inputs alone carry no batch dim; in
    batch mode the interpreter broadcasts them to the batch."""

    RIDGE = """
    model_input x[n];
    model_output y;
    model w[n];
    gradient g[n];
    iterator i[0:n];
    s = sum[i](w[i] * x[i]);
    r = sum[i](w[i] * w[i]);
    g[i] = (s - y) * x[i] + r * w[i];
    """

    def test_batch_matches_per_sample(self, rng):
        n, b = 5, 4
        interp = Interpreter(translate(parse(self.RIDGE), {"n": n}).dfg)
        x = rng.normal(size=(b, n))
        y = rng.normal(size=(b,))
        w = rng.normal(size=n)
        out = interp.run({"x": x, "y": y, "w": w}, batch=True)
        assert out["g"].shape == (b, n)
        for k in range(b):
            one = interp.run({"x": x[k], "y": y[k], "w": w})
            np.testing.assert_array_equal(out["g"][k], one["g"])
        expected = (x @ w - y)[:, None] * x + (w @ w) * w
        np.testing.assert_allclose(out["g"], expected, rtol=1e-12)


class TestSvm:
    def test_hinge_active(self, rng):
        n = 4
        t = translate(parse(SVM), {"n": n})
        x = np.ones(n)
        w = np.zeros(n)  # margin 0 < 1 -> active
        out = Interpreter(t.dfg).run({"x": x, "y": np.float64(1.0), "w": w})
        np.testing.assert_allclose(out["g"], -x)

    def test_hinge_inactive(self):
        n = 4
        t = translate(parse(SVM), {"n": n})
        x = np.ones(n)
        w = np.ones(n)  # margin 4 > 1 -> zero gradient
        out = Interpreter(t.dfg).run({"x": x, "y": np.float64(1.0), "w": w})
        np.testing.assert_allclose(out["g"], np.zeros(n))

    def test_batch_mixed_margins(self, rng):
        n, b = 3, 10
        t = translate(parse(SVM), {"n": n})
        x = rng.normal(size=(b, n))
        y = np.sign(rng.normal(size=b))
        w = rng.normal(size=n)
        out = Interpreter(t.dfg).run({"x": x, "y": y, "w": w}, batch=True)
        margins = (x @ w) * y
        expected = np.where(
            (margins < 1)[:, None], -y[:, None] * x, 0.0
        )
        np.testing.assert_allclose(out["g"], expected, rtol=1e-12)


class TestLogisticRegression:
    def test_gradient(self, rng):
        n = 5
        t = translate(parse(LOGREG), {"n": n})
        x = rng.normal(size=n)
        w = rng.normal(size=n)
        y = 1.0
        out = Interpreter(t.dfg).run({"x": x, "y": np.float64(y), "w": w})
        expected = (sigmoid(w @ x) - y) * x
        np.testing.assert_allclose(out["g"], expected, rtol=1e-9)


class TestMlpBackprop:
    def test_matches_manual_backprop(self, rng):
        n, h, c = 6, 4, 3
        t = translate(parse(MLP), {"n": n, "h": h, "c": c})
        x = rng.normal(size=n)
        y = rng.random(size=c)
        w1 = rng.normal(size=(n, h)) * 0.3
        w2 = rng.normal(size=(h, c)) * 0.3
        out = Interpreter(t.dfg).run({"x": x, "y": y, "w1": w1, "w2": w2})

        hid = sigmoid(x @ w1)
        o = sigmoid(hid @ w2)
        d2 = (o - y) * o * (1 - o)
        g2 = np.outer(hid, d2)
        d1 = (w2 @ d2) * hid * (1 - hid)
        g1 = np.outer(x, d1)
        np.testing.assert_allclose(out["g2"], g2, rtol=1e-9)
        np.testing.assert_allclose(out["g1"], g1, rtol=1e-9)

    def test_batch_shapes(self, rng):
        n, h, c, b = 5, 4, 2, 7
        t = translate(parse(MLP), {"n": n, "h": h, "c": c})
        feeds = {
            "x": rng.normal(size=(b, n)),
            "y": rng.random(size=(b, c)),
            "w1": rng.normal(size=(n, h)),
            "w2": rng.normal(size=(h, c)),
        }
        out = Interpreter(t.dfg).run(feeds, batch=True)
        assert out["g1"].shape == (b, n, h)
        assert out["g2"].shape == (b, h, c)

    def test_batch_consistent_with_single(self, rng):
        n, h, c, b = 4, 3, 2, 5
        t = translate(parse(MLP), {"n": n, "h": h, "c": c})
        interp = Interpreter(t.dfg)
        x = rng.normal(size=(b, n))
        y = rng.random(size=(b, c))
        w1 = rng.normal(size=(n, h))
        w2 = rng.normal(size=(h, c))
        batched = interp.run({"x": x, "y": y, "w1": w1, "w2": w2}, batch=True)
        for s in range(b):
            single = interp.run({"x": x[s], "y": y[s], "w1": w1, "w2": w2})
            np.testing.assert_allclose(batched["g1"][s], single["g1"], rtol=1e-12)


class TestNonlinearOps:
    @pytest.mark.parametrize(
        "func,ref",
        [
            ("log", lambda v: np.log(v)),
            ("exp", lambda v: np.exp(v)),
            ("sqrt", lambda v: np.sqrt(v)),
            ("abs", lambda v: np.abs(v)),
            ("gaussian", lambda v: np.exp(-(v ** 2))),
        ],
    )
    def test_unary(self, func, ref, rng):
        source = f"""
        model_input x[n];
        model w[n];
        gradient g[n];
        iterator i[0:n];
        g[i] = {func}(x[i]) * w[i];
        """
        t = translate(parse(source), {"n": 5})
        x = rng.random(size=5) + 0.5
        w = np.ones(5)
        out = Interpreter(t.dfg).run({"x": x, "w": w})
        np.testing.assert_allclose(out["g"], ref(x), rtol=1e-9)

    def test_norm_reduce(self, rng):
        source = """
        model_input x[n];
        model w[n];
        gradient g;
        iterator i[0:n];
        g = norm[i](x[i]) + 0 * sum[i](w[i]);
        """
        t = translate(parse(source), {"n": 6})
        x = rng.normal(size=6)
        out = Interpreter(t.dfg).run({"x": x, "w": np.zeros(6)})
        np.testing.assert_allclose(out["g"], np.linalg.norm(x), rtol=1e-12)


class TestGradientsHelper:
    def test_gradients_filters_model_outputs(self, rng):
        t = translate(parse(LINREG), {"n": 3})
        out = Interpreter(t.dfg).gradients(
            {"x": np.ones(3), "y": np.float64(0), "w": np.ones(3)}
        )
        assert set(out) == {"g"}


class TestErrors:
    def test_missing_feed(self):
        t = translate(parse(LINREG), {"n": 3})
        with pytest.raises(InterpreterError):
            Interpreter(t.dfg).run({"x": np.ones(3), "y": np.float64(0)})

    def test_wrong_shape(self):
        t = translate(parse(LINREG), {"n": 3})
        with pytest.raises(InterpreterError):
            Interpreter(t.dfg).run(
                {"x": np.ones(4), "y": np.float64(0), "w": np.ones(3)}
            )

    def test_inconsistent_batch(self):
        t = translate(parse(LINREG), {"n": 3})
        with pytest.raises(InterpreterError):
            Interpreter(t.dfg).run(
                {"x": np.ones((4, 3)), "y": np.ones(5), "w": np.ones(3)},
                batch=True,
            )

    def test_zero_dim_batched_data_feed(self):
        t = translate(parse(LINREG), {"n": 3})
        with pytest.raises(InterpreterError, match="feed 'y' has shape"):
            Interpreter(t.dfg).run(
                {"x": np.ones((4, 3)), "y": np.float64(0), "w": np.ones(3)},
                batch=True,
            )


#: (nodes, plan steps) of the benchmarks whose plans fuse: each
#: ``mul -> reduce_sum`` pair reducing a non-innermost axis becomes one
#: einsum step. Every other benchmark has one step per node.
FUSED = {
    "mnist": (19, 17),
    "acoustic": (19, 17),
    "movielens": (11, 9),
    "netflix": (11, 9),
}


class TestFusedPlans:
    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_fused_step_counts(self, bench):
        for scaled in (False, True):
            interp = Interpreter(bench.translate(scaled=scaled).dfg)
            nodes = len(interp.dfg.nodes)
            expect = FUSED.get(bench.name, (nodes, nodes))
            for batch in (False, True):
                assert (nodes, len(interp._plans[batch])) == expect


#: How :meth:`Interpreter.shard_gradient_means` sums each gradient over
#: a shard: one einsum over the batch axis, or per-sample values summed
#: by ``add.reduce``.
CONTRACTED = {
    "mnist": ("g1", "g2"),
    "acoustic": ("g1", "g2"),
    "stock": ("g",),
    "texture": ("g",),
    "tumor": ("g",),
    "cancer1": ("g",),
    "movielens": ("g",),
    "netflix": ("g",),
}
REDUCED = {"face": ("g",), "cancer2": ("g",)}

SCALAR_GRADIENT = """
model_input x[n];
model_output y;
model w[n];
gradient g;
iterator i[0:n];
e = sum[i](w[i] * x[i]) - y;
g = e * e;
"""

ONE_BATCHED_FACTOR = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
e = sum[i](w[i] * x[i]) - y;
g[i] = w[i] * e;
"""


def shard_routes(interp):
    """Gradient name -> the op of the last per-shard step writing it."""
    last = {step.output: step.fn for step in interp._shard_tail}
    routes = {}
    for name, vid in interp._gradient_outputs:
        einsum = getattr(last[vid], "func", None) is np.einsum
        routes[name] = "einsum" if einsum else "reduce"
    return routes


class TestShardGradientMeans:
    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_route_per_gradient(self, bench):
        expect = {name: "einsum" for name in CONTRACTED.get(bench.name, ())}
        expect.update(
            (name, "reduce") for name in REDUCED.get(bench.name, ())
        )
        assert expect
        for scaled in (False, True):
            interp = Interpreter(bench.translate(scaled=scaled).dfg)
            assert shard_routes(interp) == expect

    @pytest.mark.parametrize(
        "source",
        [SCALAR_GRADIENT, ONE_BATCHED_FACTOR],
        ids=["scalar gradient", "one batched factor"],
    )
    def test_guard_cases_stay_on_reduce(self, source, rng):
        interp = Interpreter(translate(parse(source), {"n": 4}).dfg)
        assert shard_routes(interp) == {"g": "reduce"}
        x = rng.normal(size=(7, 4))
        y = rng.normal(size=7)
        w = rng.normal(size=4)
        bounds = [0, 1, 4, 7]
        means = interp.shard_gradient_means({"x": x, "y": y, "w": w}, bounds)
        for mean, lo, hi in zip(means, bounds, bounds[1:]):
            shard = {"x": x[lo:hi], "y": y[lo:hi], "w": w}
            per_sample = interp.gradients(shard, batch=True)["g"]
            expect = np.add.reduce(per_sample, axis=0) / (hi - lo)
            assert mean["g"].tobytes() == expect.tobytes()

    @pytest.mark.parametrize("bounds", [[0, 3], [0, 2, 2, 4], [1, 4], [0]])
    def test_bad_bounds_rejected(self, bounds):
        interp = Interpreter(translate(parse(LINREG), {"n": 2}).dfg)
        feeds = {"x": np.ones((4, 2)), "y": np.ones(4), "w": np.ones(2)}
        with pytest.raises(InterpreterError, match="bounds"):
            interp.shard_gradient_means(feeds, bounds)
