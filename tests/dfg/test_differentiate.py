"""Automatic differentiation: derived gradients vs hand-written ones and
vs finite differences."""

import numpy as np
import pytest

from repro.dfg.differentiate import (
    DifferentiationError,
    derive_gradients,
)
from repro.dfg.interpreter import Interpreter
from repro.dfg.translate import translate
from repro.dsl.parser import parse

LINREG_LOSS = """
model_input x[n];
model_output y;
model w[n];
iterator i[0:n];
e = sum[i](w[i] * x[i]) - y;
loss = e * e / 2;
"""

LINREG_GRAD = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
"""

LOGREG_LOSS = """
model_input x[n];
model_output y;
model w[n];
iterator i[0:n];
p = sigmoid(sum[i](w[i] * x[i]));
loss = 0 - (y * log(p) + (1 - y) * log(1 - p));
"""

MLP_LOSS = """
model_input x[n];
model_output y[c];
model w1[n, h];
model w2[h, c];
iterator i[0:n];
iterator j[0:h];
iterator k[0:c];
hid[j] = sigmoid(sum[i](w1[i, j] * x[i]));
out[k] = sigmoid(sum[j](w2[j, k] * hid[j]));
d[k] = out[k] - y[k];
loss = sum[k](d[k] * d[k]) / 2;
"""

HINGE_LOSS = """
model_input x[n];
model_output y;
model w[n];
iterator i[0:n];
m = sum[i](w[i] * x[i]) * y;
loss = max(0, 1 - m);
"""


def numeric_gradient(loss_fn, arr, eps=1e-6):
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + eps
        up = loss_fn()
        flat[idx] = orig - eps
        down = loss_fn()
        flat[idx] = orig
        gflat[idx] = (up - down) / (2 * eps)
    return grad


class TestAgainstHandWritten:
    def test_linreg_matches_manual_gradient(self):
        rng = np.random.default_rng(0)
        n = 6
        derived = derive_gradients(LINREG_LOSS, {"n": n})
        manual = translate(parse(LINREG_GRAD), {"n": n})
        feeds = {
            "x": rng.normal(size=n),
            "y": np.float64(0.4),
            "w": rng.normal(size=n),
        }
        g_auto = Interpreter(derived.dfg).run(feeds)["g_w"]
        g_hand = Interpreter(manual.dfg).run(feeds)["g"]
        np.testing.assert_allclose(g_auto, g_hand, rtol=1e-10)

    def test_aggregator_pairs_named(self):
        derived = derive_gradients(LINREG_LOSS, {"n": 4})
        assert derived.aggregator.pairs == (("w", "g_w"),)


class TestAgainstFiniteDifferences:
    @pytest.mark.parametrize(
        "source,shapes",
        [
            (LINREG_LOSS, {"w": (6,)}),
            (LOGREG_LOSS, {"w": (5,)}),
            (HINGE_LOSS, {"w": (4,)}),
        ],
    )
    def test_vector_models(self, source, shapes):
        rng = np.random.default_rng(1)
        n = shapes["w"][0]
        derived = derive_gradients(source, {"n": n})
        interp = Interpreter(derived.dfg)
        w = rng.normal(size=n) * 0.5
        feeds = {"x": rng.normal(size=n), "y": np.float64(1.0), "w": w}

        def loss():
            # Forward value: the derived graph also exposes the loss.
            return _loss_of(derived, {**feeds, "w": w})

        auto = interp.run(feeds)["g_w"]
        numeric = numeric_gradient(loss, w)
        np.testing.assert_allclose(auto, numeric, rtol=1e-5, atol=1e-7)

    def test_mlp_backprop_derived(self):
        """The headline case: reverse-mode over the MLP loss reproduces
        the paper's hand-written backpropagation."""
        rng = np.random.default_rng(2)
        n, h, c = 4, 3, 2
        derived = derive_gradients(MLP_LOSS, {"n": n, "h": h, "c": c})
        interp = Interpreter(derived.dfg)
        w1 = rng.normal(size=(n, h)) * 0.4
        w2 = rng.normal(size=(h, c)) * 0.4
        feeds = {
            "x": rng.normal(size=n),
            "y": rng.random(size=c),
            "w1": w1,
            "w2": w2,
        }
        auto = interp.run(feeds)

        def loss_with(w1v, w2v):
            hid = 1 / (1 + np.exp(-(feeds["x"] @ w1v)))
            out = 1 / (1 + np.exp(-(hid @ w2v)))
            return float(np.sum((out - feeds["y"]) ** 2) / 2)

        num1 = numeric_gradient(lambda: loss_with(w1, w2), w1)
        num2 = numeric_gradient(lambda: loss_with(w1, w2), w2)
        np.testing.assert_allclose(auto["g_w1"], num1, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(auto["g_w2"], num2, rtol=1e-5, atol=1e-7)


class TestDerivedGraphsCompile:
    def test_derived_graph_plans_and_compiles(self):
        """The derived gradient DFG is a first-class citizen: it plans,
        compiles, schedules, and simulates like a hand-written one."""
        from repro.compiler.program import compile_thread
        from repro.hw.accelerator import ThreadSimulator
        from repro.hw.spec import XILINX_VU9P
        from repro.planner.plan import Planner

        derived = derive_gradients(LINREG_LOSS, {"n": 8})
        plan = Planner(XILINX_VU9P).plan(derived.dfg, 1000)
        assert plan.samples_per_second > 0
        program = compile_thread(derived.dfg, rows=2, columns=4)
        program.verify()
        rng = np.random.default_rng(3)
        feeds = {
            "x": rng.normal(size=8),
            "y": np.float64(0.2),
            "w": rng.normal(size=8),
        }
        hw = ThreadSimulator(program).run(feeds)
        sw = Interpreter(derived.dfg).run(feeds)
        np.testing.assert_allclose(
            hw.gradient_vector("g_w", 8), sw["g_w"], rtol=1e-9
        )

    def test_derived_translation_trains(self):
        from repro.runtime.trainer import DistributedTrainer

        rng = np.random.default_rng(4)
        n, N = 6, 512
        true_w = rng.normal(size=n)
        X = rng.normal(size=(N, n))
        Y = X @ true_w
        derived = derive_gradients("mu = 0.05;" + LINREG_LOSS, {"n": n})
        trainer = DistributedTrainer(derived, nodes=2, threads_per_node=2)
        def mse(m, f):
            return float(np.mean((f["x"] @ m["w"] - f["y"]) ** 2))
        result = trainer.train(
            {"x": X, "y": Y}, epochs=10, minibatch_per_worker=16, loss_fn=mse
        )
        assert result.final_loss < 0.05 * result.loss_history[0]


class TestErrors:
    def test_missing_loss_variable(self):
        with pytest.raises(DifferentiationError):
            derive_gradients("model w[n]; iterator i[0:n]; z = sum[i](w[i]);",
                             {"n": 4})

    def test_non_scalar_loss(self):
        source = """
        model_input x[n];
        model w[n];
        iterator i[0:n];
        loss[i] = w[i] * x[i];
        """
        with pytest.raises(DifferentiationError):
            derive_gradients(source, {"n": 4})

    def test_zero_gradient_for_unused_model(self):
        # v appears in the graph (the dead sum) but cannot influence the
        # loss, so its derived gradient is identically zero.
        source = """
        model_input x[n];
        model w[n];
        model v[n];
        iterator i[0:n];
        dead = sum[i](v[i] * x[i]);
        s = sum[i](w[i] * x[i]);
        loss = s * s;
        """
        derived = derive_gradients(source, {"n": 3})
        out = Interpreter(derived.dfg).run(
            {"x": np.ones(3), "w": np.ones(3), "v": np.ones(3)}
        )
        np.testing.assert_allclose(out["g_v"], np.zeros(3))


def _loss_of(derived, feeds):
    out = Interpreter(derived.dfg).run(feeds)
    return float(out["loss"])
