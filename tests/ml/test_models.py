"""Cross-validation: DSL-translated gradients vs reference NumPy math."""

import numpy as np
import pytest

from repro.dfg.interpreter import Interpreter
from repro.ml.benchmarks import benchmark
from repro.ml.models import flops_per_sample
from tests.ml.model_reference import GRADIENTS, UPDATE_PAIRS, sgd_train


@pytest.mark.parametrize(
    "name", ["stock", "tumor", "face", "mnist", "movielens"]
)
class TestDslVsReference:
    def test_batch_gradients_match(self, name):
        """The DSL program's gradient equals the independently-written
        NumPy gradient for every algorithm."""
        b = benchmark(name)
        t = b.translate(scaled=True)
        ds = b.make_dataset(samples=24, seed=3)
        rng = np.random.default_rng(4)
        model = {
            k: rng.normal(scale=0.3, size=v.shape)
            for k, v in ds.truth.items()
        }
        dsl = Interpreter(t.dfg).gradients({**ds.feeds, **model}, batch=True)
        dsl_mean = {k: v.mean(axis=0) for k, v in dsl.items()}
        ref = GRADIENTS[b.algorithm](model, ds.feeds)
        pairs = UPDATE_PAIRS[b.algorithm]
        for gname, ref_grad in ref.items():
            if b.algorithm == "collaborative_filtering":
                dsl_grad = dsl_mean["g"]
            else:
                dsl_grad = dsl_mean[gname]
            np.testing.assert_allclose(dsl_grad, ref_grad, rtol=1e-8, atol=1e-10)


class TestReferenceTraining:
    @pytest.mark.parametrize(
        "name,lr,epochs",
        [
            ("stock", 0.05, 8),
            ("tumor", 0.5, 8),
            ("face", 0.05, 8),
            ("mnist", 0.5, 12),
            ("movielens", 1.0, 40),
        ],
    )
    def test_sgd_reduces_loss(self, name, lr, epochs):
        b = benchmark(name)
        ds = b.make_dataset(samples=512, seed=7)
        init = {
            k: np.random.default_rng(1).normal(scale=0.1, size=v.shape)
            for k, v in ds.truth.items()
        }
        before = ds.loss(init, ds.feeds)
        trained = sgd_train(
            b.algorithm, init, ds.feeds, learning_rate=lr,
            epochs=epochs, batch=32,
        )
        after = ds.loss(trained, ds.feeds)
        assert after < 0.7 * before


class TestFlopsAccounting:
    def test_linear_scales_with_features(self):
        assert flops_per_sample("linear_regression", {"n": 2000}) == pytest.approx(
            flops_per_sample("linear_regression", {"n": 1000}) * 2
        )

    def test_backprop_dominated_by_gemm(self):
        small = flops_per_sample("backpropagation", {"n": 100, "h": 100, "c": 10})
        big = flops_per_sample("backpropagation", {"n": 200, "h": 200, "c": 10})
        assert big > 3.5 * small

    def test_cf_scales_with_entity_table(self):
        """The one-hot factor update is dense over the entity table."""
        a = flops_per_sample("collaborative_filtering", {"e": 1000, "f": 10})
        b = flops_per_sample("collaborative_filtering", {"e": 100000, "f": 10})
        assert b == pytest.approx(100 * a, rel=0.01)

    def test_mnist_is_compute_heavy(self):
        mnist = benchmark("mnist")
        stock = benchmark("stock")
        assert flops_per_sample(
            mnist.algorithm, mnist.dims
        ) > 50 * flops_per_sample(stock.algorithm, stock.dims)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            flops_per_sample("kmeans", {})
