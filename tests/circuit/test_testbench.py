"""Testbench-generator tests."""

import numpy as np
import pytest

from repro.circuit.testbench import generate_testbench, golden_vectors
from repro.compiler import compile_thread
from repro.dfg import Interpreter, translate
from repro.dsl import parse

LINREG = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
"""

#: LINREG with the inner product kept as a model variable: ``s`` is a
#: named output of the graph that is not a gradient.
MODEL_OUTPUT = LINREG.replace("model w[n];", "model w[n];\nmodel s;") + """
aggregator:
iterator j[0:nodes];
w[i] = sum[j](g[j, i]) / nodes;
"""


@pytest.fixture
def setup():
    n = 6
    t = translate(parse(LINREG), {"n": n})
    program = compile_thread(t.dfg, rows=1, columns=3)
    rng = np.random.default_rng(0)
    feeds = {
        "x": rng.normal(size=n),
        "y": np.float64(0.5),
        "w": rng.normal(size=n),
    }
    return t, program, feeds, n


class TestGenerateTestbench:
    def test_structure(self, setup):
        _, program, feeds, _ = setup
        tb = generate_testbench(program, feeds)
        assert tb.startswith("// Self-checking testbench")
        assert "module cosmic_tb;" in tb
        assert tb.rstrip().endswith("endmodule")
        assert f"Expected latency: {program.schedule.makespan} cycles" in tb

    def test_all_stimulus_listed(self, setup):
        _, program, feeds, n = setup
        tb = generate_testbench(program, feeds)
        for i in range(n):
            assert f"x[{i}]" in tb
            assert f"w[{i}]" in tb
        assert "feed y" in tb

    def test_golden_values_match_interpreter(self, setup):
        t, program, feeds, n = setup
        tb = generate_testbench(program, feeds)
        golden = Interpreter(t.dfg).run(feeds)["g"]
        for i in range(n):
            assert f"{golden[i]:+.9e}" in tb

    def test_one_check_per_gradient_element(self, setup):
        _, program, feeds, n = setup
        tb = generate_testbench(program, feeds)
        assert tb.count("FAIL g[") == n
        assert f"gradients checked\", {n});" in tb

    def test_latency_wait_beyond_makespan(self, setup):
        _, program, feeds, _ = setup
        tb = generate_testbench(program, feeds)
        assert f"repeat ({program.schedule.makespan + 8})" in tb


class TestGoldenVectors:
    def test_keys_are_the_gradient_elements(self, setup):
        _, program, feeds, n = setup
        golden = golden_vectors(program, feeds)
        names = {v.name for v in program.expansion.dfg.gradient_outputs()}
        assert set(golden) == names
        assert len(names) == n

    def test_non_gradient_output_is_left_out(self):
        n = 4
        t = translate(parse(MODEL_OUTPUT), {"n": n, "nodes": 2})
        program = compile_thread(t.dfg, rows=1, columns=2)
        rng = np.random.default_rng(1)
        feeds = {
            "x": rng.normal(size=n),
            "y": np.float64(0.5),
            "w": rng.normal(size=n),
            "s": np.float64(0.0),
        }
        dfg = program.expansion.dfg
        assert "s" in dfg.outputs
        golden = golden_vectors(program, feeds)
        assert set(golden) == {v.name for v in dfg.gradient_outputs()}
        assert "s" not in golden
