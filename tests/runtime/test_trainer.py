"""Functional correctness of distributed training (Eq. 3)."""

import numpy as np
import pytest

from repro.dfg.translate import translate
from repro.dsl.parser import parse
from repro.runtime.cluster import ClusterSimulator, ClusterSpec
from repro.runtime.trainer import DistributedTrainer

LINREG = """
mu = 0.05;
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
e = s - y;
g[i] = e * x[i];
"""

LOGREG = """
mu = 0.5;
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
p = sigmoid(sum[i](w[i] * x[i]));
g[i] = (p - y) * x[i];
"""


@pytest.fixture
def linreg_data():
    rng = np.random.default_rng(1)
    n, N = 8, 1024
    true_w = rng.normal(size=n)
    X = rng.normal(size=(N, n))
    Y = X @ true_w + 0.01 * rng.normal(size=N)
    return X, Y, true_w


def mse(model, feeds):
    return float(np.mean((feeds["x"] @ model["w"] - feeds["y"]) ** 2))


class TestConvergence:
    def test_linreg_converges(self, linreg_data):
        X, Y, true_w = linreg_data
        trainer = DistributedTrainer(
            translate(parse(LINREG), {"n": 8}), nodes=4, threads_per_node=2
        )
        result = trainer.train(
            {"x": X, "y": Y}, epochs=15, minibatch_per_worker=16, loss_fn=mse
        )
        assert result.final_loss < 0.01 * result.loss_history[0]
        assert np.linalg.norm(result.model["w"] - true_w) < 0.1

    def test_logreg_separates(self):
        rng = np.random.default_rng(2)
        n, N = 6, 1024
        true_w = rng.normal(size=n)
        X = rng.normal(size=(N, n))
        Y = (X @ true_w > 0).astype(float)
        trainer = DistributedTrainer(
            translate(parse(LOGREG), {"n": n}), nodes=2, threads_per_node=2
        )

        def accuracy(model, feeds):
            pred = (feeds["x"] @ model["w"]) > 0
            return float(np.mean(pred == (feeds["y"] > 0.5)))

        result = trainer.train(
            {"x": X, "y": Y}, epochs=20, minibatch_per_worker=32,
            loss_fn=accuracy,
        )
        assert result.final_loss > 0.95  # loss_fn here is accuracy

    def test_more_workers_same_direction(self, linreg_data):
        """Eq. 3: aggregated parallel training still descends."""
        X, Y, _ = linreg_data
        for nodes, threads in [(1, 1), (4, 4), (8, 2)]:
            trainer = DistributedTrainer(
                translate(parse(LINREG), {"n": 8}),
                nodes=nodes,
                threads_per_node=threads,
            )
            result = trainer.train(
                {"x": X, "y": Y}, epochs=10, minibatch_per_worker=8,
                loss_fn=mse,
            )
            assert result.final_loss < 0.1 * result.loss_history[0]

    def test_local_sgd_mode_converges(self, linreg_data):
        X, Y, _ = linreg_data
        trainer = DistributedTrainer(
            translate(parse(LINREG), {"n": 8}), nodes=2, threads_per_node=2
        )
        result = trainer.train(
            {"x": X[:256], "y": Y[:256]}, epochs=4,
            minibatch_per_worker=16, loss_fn=mse, mode="local_sgd",
        )
        assert result.final_loss < 0.1 * result.loss_history[0]

    def test_single_worker_minibatch_matches_manual_sgd(self, linreg_data):
        """One worker, mean aggregation == plain mini-batch SGD."""
        X, Y, _ = linreg_data
        n = 8
        t = translate(parse(LINREG), {"n": n})
        trainer = DistributedTrainer(t, nodes=1, threads_per_node=1, seed=7)
        result = trainer.train(
            {"x": X, "y": Y}, epochs=1, minibatch_per_worker=64
        )
        # Manual replication with the same shuffling.
        rng = np.random.default_rng(7)
        order = rng.permutation(len(X))
        w = np.zeros(n)
        for start in range(0, len(X) - 64 + 1, 64):
            idx = order[start : start + 64]
            grad = ((X[idx] @ w - Y[idx])[:, None] * X[idx]).mean(axis=0)
            w -= 0.05 * grad
        np.testing.assert_allclose(result.model["w"], w, rtol=1e-10)


class TestMechanics:
    def test_iterations_counted(self, linreg_data):
        X, Y, _ = linreg_data
        trainer = DistributedTrainer(
            translate(parse(LINREG), {"n": 8}), nodes=2, threads_per_node=2
        )
        result = trainer.train({"x": X, "y": Y}, epochs=2, minibatch_per_worker=64)
        assert result.iterations == 2 * (1024 // 256)

    def test_default_minibatch_from_dsl(self):
        t = translate(parse("minibatch = 64;" + LINREG), {"n": 8})
        trainer = DistributedTrainer(t, nodes=2, threads_per_node=2)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(128, 8))
        Y = rng.normal(size=128)
        result = trainer.train({"x": X, "y": Y}, epochs=1)
        assert result.iterations == 2  # 64 per iteration over 128 samples

    def test_cluster_timing_attached(self, linreg_data):
        X, Y, _ = linreg_data
        cluster = ClusterSimulator(
            ClusterSpec(nodes=2), lambda nid, s: 1e-4, update_bytes=64
        )
        trainer = DistributedTrainer(
            translate(parse(LINREG), {"n": 8}),
            nodes=2,
            threads_per_node=1,
            cluster=cluster,
        )
        result = trainer.train({"x": X, "y": Y}, epochs=1, minibatch_per_worker=64)
        assert result.simulated_seconds > 0
        assert result.iteration_timing is not None

    def test_initial_model_shapes(self):
        t = translate(parse(LINREG), {"n": 8})
        trainer = DistributedTrainer(t, nodes=1, threads_per_node=1)
        model = trainer.initial_model()
        assert model["w"].shape == (8,)
        assert np.all(model["w"] == 0)

    def test_mismatched_feeds_rejected(self):
        t = translate(parse(LINREG), {"n": 8})
        trainer = DistributedTrainer(t, nodes=1, threads_per_node=1)
        with pytest.raises(ValueError):
            trainer.train({"x": np.ones((10, 8)), "y": np.ones(9)})

    def test_zero_dim_feed_rejected(self):
        t = translate(parse(LINREG), {"n": 8})
        trainer = DistributedTrainer(t, nodes=1, threads_per_node=1)
        with pytest.raises(ValueError, match="'y' is 0-d"):
            trainer.train({"x": np.ones((10, 8)), "y": np.float64(1.0)})

    def test_unknown_mode_rejected(self):
        t = translate(parse(LINREG), {"n": 8})
        trainer = DistributedTrainer(t, nodes=1, threads_per_node=1)
        with pytest.raises(ValueError):
            trainer.train(
                {"x": np.ones((4, 8)), "y": np.ones(4)}, mode="magic"
            )

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_fewer_than_one_epoch_rejected(self, epochs):
        t = translate(parse(LINREG), {"n": 8})
        trainer = DistributedTrainer(t, nodes=1, threads_per_node=1)
        with pytest.raises(ValueError, match="epochs"):
            trainer.train(
                {"x": np.ones((4, 8)), "y": np.ones(4)}, epochs=epochs
            )

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (
                {"minibatch_per_worker": 8},
                "dataset of 4 samples is smaller than one global "
                "mini-batch of 8",
            ),
            (
                {"minibatch_per_worker": 2, "max_iterations": 0},
                "max_iterations must be at least 1",
            ),
        ],
        ids=["small-dataset", "max-iterations-0"],
    )
    def test_run_without_an_iteration_rejected(self, kwargs, match):
        t = translate(parse(LINREG), {"n": 8})
        trainer = DistributedTrainer(t, nodes=1, threads_per_node=1)
        with pytest.raises(ValueError, match=match):
            trainer.train({"x": np.ones((4, 8)), "y": np.ones(4)}, **kwargs)

    def test_invalid_topology_rejected(self):
        t = translate(parse(LINREG), {"n": 8})
        with pytest.raises(ValueError):
            DistributedTrainer(t, nodes=0, threads_per_node=1)
