"""Tests for the CosmicStack facade: every layer reachable from one object."""

import numpy as np
import pytest

from repro.core.stack import CosmicStack
from repro.hw.spec import PASIC_F, XILINX_VU9P
from repro.ml.benchmarks import benchmark

SOURCE = """
minibatch = 2000;
mu = 0.05;
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
"""


@pytest.fixture
def stack():
    return CosmicStack(SOURCE, bindings={"n": 256}, functional_bindings={"n": 8})


class TestLayers:
    def test_translation_paper_scale(self, stack):
        assert stack.translation.dfg.extents == {"i": 256}

    def test_functional_translation_scaled(self, stack):
        assert stack.functional_translation.dfg.extents == {"i": 8}

    def test_plan_default_chip(self, stack):
        plan = stack.plan()
        assert plan.chip.name == XILINX_VU9P.name
        assert plan.design.threads >= 1

    def test_plan_cached(self, stack):
        assert stack.plan() is stack.plan()

    def test_plan_other_chip(self, stack):
        plan = stack.plan(PASIC_F)
        assert plan.chip.name == "P-ASIC-F"

    def test_compile_functional_scale(self, stack):
        prog = stack.compile(rows=2, columns=4)
        prog.verify()
        assert prog.grid.n_pe == 8

    def test_rtl_fpga(self, stack):
        design = stack.rtl(rows=1, columns=4, target="fpga")
        assert "cosmic_control_fsm" in design.verilog

    def test_rtl_pasic(self, stack):
        design = stack.rtl(rows=1, columns=4, target="pasic")
        assert "cosmic_microcode_rom" in design.verilog

    def test_trainer_trains(self, stack):
        rng = np.random.default_rng(0)
        n, N = 8, 512
        w = rng.normal(size=n)
        X = rng.normal(size=(N, n))
        Y = X @ w
        trainer = stack.trainer(nodes=2, threads_per_node=2)
        result = trainer.train(
            {"x": X, "y": Y},
            epochs=10,
            minibatch_per_worker=16,
            loss_fn=lambda m, f: float(np.mean((f["x"] @ m["w"] - f["y"]) ** 2)),
        )
        assert result.final_loss < 0.05 * result.loss_history[0]


class TestFromBenchmark:
    @pytest.mark.parametrize("name", ["stock", "mnist", "movielens"])
    def test_all_layers_run(self, name):
        stack = CosmicStack.from_benchmark(benchmark(name))
        assert stack.plan().samples_per_second > 0
        # Functional-scale compile + RTL for one thread.
        design = stack.rtl(rows=1, columns=4)
        assert design.pe_count == 4

    def test_minibatch_from_dsl(self):
        stack = CosmicStack.from_benchmark(benchmark("stock"))
        assert stack.translation.minibatch == 10_000
