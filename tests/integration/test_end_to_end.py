"""Cross-layer integration tests: one small experiment through every
layer of the stack, checking consistency between independent paths.

These are the tests a release would gate on: they do not test one module,
they test that the modules agree with each other.
"""

import numpy as np
import pytest

from repro.baselines.spark import SparkModel
from repro.compiler.program import compile_thread
from repro.core.stack import CosmicStack
from repro.core.system import CosmicSystem, platform_for
from repro.dfg.interpreter import Interpreter
from repro.hw.accelerator import ThreadSimulator
from repro.hw.node import NodeAccelerator
from repro.hw.spec import XILINX_VU9P
from repro.ml.benchmarks import benchmark
from repro.planner.plan import Planner
from repro.runtime.cluster import ClusterSimulator, ClusterSpec


class TestThreePathGradientAgreement:
    """The same gradient, three independent ways: NumPy interpreter,
    cycle-level PE simulation, and the reference math."""

    @pytest.mark.parametrize("name", ["stock", "tumor", "face"])
    def test_all_paths_agree(self, name):
        from tests.ml.model_reference import GRADIENTS

        b = benchmark(name)
        t = b.translate(scaled=True)
        n = b.functional_dims["n"]
        rng = np.random.default_rng(42)
        x = rng.normal(size=n)
        y = np.float64(1.0)
        w = rng.normal(size=n)

        interp = Interpreter(t.dfg).run({"x": x, "y": y, "w": w})["g"]
        program = compile_thread(t.dfg, rows=2, columns=4)
        hw = ThreadSimulator(program).run({"x": x, "y": y, "w": w})
        cycle_sim = hw.gradient_vector("g", n)
        ref = GRADIENTS[b.algorithm](
            {"w": w}, {"x": x[None, :], "y": np.array([y])}
        )["g"]

        np.testing.assert_allclose(cycle_sim, interp, rtol=1e-9)
        np.testing.assert_allclose(interp, ref, rtol=1e-9)


class TestNodeVsTrainerAgreement:
    def test_node_accelerator_matches_trainer_step(self):
        """One NodeAccelerator pass equals the trainer's node-level math
        when shards divide evenly."""
        b = benchmark("stock")
        t = b.translate(scaled=True)
        plan = Planner(XILINX_VU9P).plan(t.dfg, 1024)
        accel = NodeAccelerator(t, plan)
        rng = np.random.default_rng(7)
        n = b.functional_dims["n"]
        N = accel.threads * 16
        feeds = {"x": rng.normal(size=(N, n)), "y": rng.normal(size=N)}
        model = {"w": rng.normal(size=n)}
        node_partial = accel.process_partition(feeds, model).partials["g"]
        full_mean = Interpreter(t.dfg).gradients(
            {**feeds, **model}, batch=True
        )["g"].mean(axis=0)
        np.testing.assert_allclose(node_partial, full_mean, rtol=1e-10)


class TestTimingConsistency:
    def test_cluster_uses_platform_times(self):
        """The cluster's reported compute time is exactly the platform
        model's per-node time."""
        b = benchmark("stock")
        platform = platform_for(b, "fpga")
        system = CosmicSystem(b, platform, 4)
        timing = system.iteration(10_000)
        expected = platform.compute_seconds(10_000)
        assert timing.compute_max_s == pytest.approx(expected, rel=1e-9)

    def test_epoch_equals_iterations_times_iteration(self):
        b = benchmark("tumor")  # 387,944 vectors
        platform = platform_for(b, "fpga")
        system = CosmicSystem(b, platform, 4)
        per_iter = system.iteration(10_000).total_s
        full, rem = divmod(b.input_vectors, 40_000)
        expected = full * per_iter + system.cluster().iteration(rem).total_s
        assert system.epoch_seconds() == pytest.approx(expected, rel=1e-9)


class TestMiniFigure7:
    """A shrunken Figure 7 run must preserve the paper's core claims."""

    @pytest.fixture(scope="class")
    def grid(self):
        names = ["mnist", "stock", "movielens"]
        spark, cosmic = {}, {}
        for name in names:
            b = benchmark(name)
            platform = platform_for(b, "fpga")
            spark[name] = {n: SparkModel(n).epoch_seconds(b) for n in (4, 16)}
            cosmic[name] = {
                n: CosmicSystem(b, platform, n).epoch_seconds()
                for n in (4, 16)
            }
        return spark, cosmic

    def test_cosmic_wins_every_cell(self, grid):
        spark, cosmic = grid
        for name in spark:
            for n in (4, 16):
                assert cosmic[name][n] < spark[name][n]

    def test_recommender_gap_largest(self, grid):
        spark, cosmic = grid
        gaps = {
            name: spark[name][4] / cosmic[name][16] for name in spark
        }
        assert gaps["movielens"] > gaps["stock"] > gaps["mnist"]

    def test_cosmic_scales_better_on_comm_heavy(self, grid):
        spark, cosmic = grid
        cosmic_scaling = cosmic["stock"][4] / cosmic["stock"][16]
        spark_scaling = spark["stock"][4] / spark["stock"][16]
        assert cosmic_scaling > spark_scaling


class TestFullStackTraining:
    def test_benchmark_trains_with_cluster_timing(self):
        b = benchmark("cancer1")
        stack = CosmicStack.from_benchmark(b)
        platform = platform_for(b, "fpga")
        cluster = ClusterSimulator(
            ClusterSpec(nodes=4),
            lambda node, samples: platform.compute_seconds(samples),
            update_bytes=b.model_bytes(),
        )
        trainer = stack.trainer(nodes=4, threads_per_node=2, cluster=cluster)
        dataset = b.make_dataset(samples=2048, seed=11)
        result = trainer.train(
            dataset.feeds,
            epochs=8,
            minibatch_per_worker=32,
            loss_fn=dataset.loss,
            learning_rate=0.5,
        )
        assert result.final_loss < 0.6 * result.loss_history[0]
        assert result.simulated_seconds > 0
        assert result.iteration_timing.wire_bytes > 0
