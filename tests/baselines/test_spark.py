"""Tests for the Spark+MLlib baseline model."""

import pytest

from repro.baselines.spark import SparkModel
from repro.ml.benchmarks import benchmark


class TestIteration:
    def test_breakdown_sums(self):
        b = benchmark("stock")
        it = SparkModel(4).iteration(b, 10_000)
        assert it.total_s == pytest.approx(
            it.compute_s + it.scheduling_s + it.aggregation_s + it.broadcast_s
        )

    def test_compute_shrinks_with_nodes(self):
        b = benchmark("stock")
        four = SparkModel(4).iteration(b, 10_000)
        sixteen = SparkModel(16).iteration(b, 10_000)
        assert sixteen.compute_s < four.compute_s

    def test_scheduling_does_not_shrink(self):
        """The fixed per-iteration taxes are why Spark scales poorly."""
        b = benchmark("stock")
        four = SparkModel(4).iteration(b, 10_000)
        sixteen = SparkModel(16).iteration(b, 10_000)
        assert sixteen.scheduling_s >= four.scheduling_s

    def test_aggregation_grows_with_model(self):
        small = SparkModel(4).iteration(benchmark("face"), 10_000)
        big = SparkModel(4).iteration(benchmark("netflix"), 10_000)
        assert big.aggregation_s > 10 * small.aggregation_s

    def test_aggregation_grows_with_nodes(self):
        b = benchmark("mnist")
        assert (
            SparkModel(16).aggregation_seconds(b)
            > SparkModel(2).aggregation_seconds(b)
        )

    def test_compute_bound_benchmark_uses_blas_term(self):
        """mnist's per-record time exceeds the linear models' (GEMM work)."""
        mnist = SparkModel(4).compute_seconds(benchmark("mnist"), 1000)
        stock = SparkModel(4).compute_seconds(benchmark("stock"), 1000)
        assert mnist > stock


class TestEpoch:
    def test_epoch_counts_iterations_globally(self):
        """MLlib's iteration count per epoch is dataset/global_batch,
        independent of the cluster size."""
        b = benchmark("stock")  # 130,503 vectors
        model = SparkModel(4)
        t_small_batch = model.epoch_seconds(b, 1_000)
        t_large_batch = model.epoch_seconds(b, 100_000)
        assert t_small_batch > 5 * t_large_batch

    def test_epoch_scaling_sublinear(self):
        """Figure 8(b): 4 -> 16 nodes gives well under 4x."""
        b = benchmark("stock")
        four = SparkModel(4).epoch_seconds(b)
        sixteen = SparkModel(16).epoch_seconds(b)
        assert 1.0 < four / sixteen < 2.5

    def test_remainder_iteration_counted(self):
        b = benchmark("mnist")  # 60,000 vectors
        t = SparkModel(4).epoch_seconds(b, 40_000)
        single = SparkModel(4).iteration(b, 40_000).total_s
        assert t > single  # 1 full + 1 partial

    def test_cf_is_slowest_per_epoch(self):
        """movielens' per-record cost makes it Spark's worst workload."""
        times = {
            name: SparkModel(4).epoch_seconds(benchmark(name))
            for name in ("stock", "mnist", "movielens")
        }
        assert times["movielens"] > 50 * times["stock"]


class TestValidation:
    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            SparkModel(0)
