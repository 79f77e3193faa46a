"""Optimisation-pass tests: semantics preserved, work reduced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfg.differentiate import derive_gradients
from repro.dfg.interpreter import Interpreter
from repro.dfg.optimize import optimize
from repro.dfg.translate import translate
from repro.dsl.parser import parse

CSE_HEAVY = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
a = sum[i](w[i] * x[i]);
b = sum[i](w[i] * x[i]);
g[i] = (a - y) * x[i] + (b - y) * 0;
"""

CONST_HEAVY = """
model_input x[n];
model w[n];
gradient g[n];
iterator i[0:n];
c = 2 * 3 + 4;
d = c / 5;
g[i] = w[i] * x[i] * d;
"""

DEAD_CODE = """
model_input x[n];
model w[n];
gradient g[n];
iterator i[0:n];
unused = sum[i](w[i] + x[i]);
also_unused = unused * 3;
g[i] = w[i] * x[i];
"""


def run_both(source, n, feeds):
    t = translate(parse(source), {"n": n})
    before = Interpreter(t.dfg).run(feeds)
    optimized, report = optimize(t.dfg)
    after = Interpreter(optimized).run(feeds)
    return before, after, report, t.dfg, optimized


@pytest.fixture
def feeds():
    rng = np.random.default_rng(0)
    return {
        "x": rng.normal(size=8),
        "y": np.float64(0.7),
        "w": rng.normal(size=8),
    }


class TestSemanticsPreserved:
    @pytest.mark.parametrize("source", [CSE_HEAVY, CONST_HEAVY, DEAD_CODE])
    def test_outputs_identical(self, source, feeds):
        use = dict(feeds)
        if "model_output" not in source:
            use.pop("y")
        before, after, _, _, _ = run_both(source, 8, use)
        for key in before:
            np.testing.assert_allclose(after[key], before[key], rtol=0)

    def test_benchmark_programs_survive(self):
        from repro.ml.benchmarks import benchmark

        rng = np.random.default_rng(1)
        for name in ("stock", "mnist", "movielens"):
            b = benchmark(name)
            t = b.translate(scaled=True)
            ds = b.make_dataset(samples=4, seed=2)
            model = {k: rng.normal(size=v.shape) for k, v in ds.truth.items()}
            sample = {k: np.asarray(v)[0] for k, v in ds.feeds.items()}
            before = Interpreter(t.dfg).run({**sample, **model})
            optimized, _ = optimize(t.dfg)
            after = Interpreter(optimized).run({**sample, **model})
            for key in before:
                np.testing.assert_allclose(after[key], before[key], rtol=0)


class TestEachPass:
    def test_constant_folding(self, feeds):
        use = {k: v for k, v in feeds.items() if k != "y"}
        _, _, report, before, after = run_both(CONST_HEAVY, 8, use)
        assert report.folded >= 3  # 2*3, +4, /5
        assert report.nodes_after < report.nodes_before

    def test_cse_merges_duplicate_reduction(self, feeds):
        _, _, report, _, _ = run_both(CSE_HEAVY, 8, feeds)
        assert report.cse_merged >= 2  # the mul and the reduce

    def test_dce_removes_unreachable(self, feeds):
        use = {k: v for k, v in feeds.items() if k != "y"}
        _, _, report, _, after = run_both(DEAD_CODE, 8, use)
        assert report.dead_removed >= 2
        names = {v.name for v in after.values.values()}
        assert "unused" not in names

    def test_passes_selectable(self, feeds):
        t = translate(parse(DEAD_CODE), {"n": 8})
        _, report = optimize(t.dfg, passes=("fold",))
        assert report.dead_removed == 0

    def test_unknown_pass_rejected(self):
        t = translate(parse(DEAD_CODE), {"n": 8})
        with pytest.raises(ValueError):
            optimize(t.dfg, passes=("inline",))


class TestDownstreamIntegration:
    def test_optimized_graph_compiles(self, feeds):
        from repro.compiler.program import compile_thread
        from repro.hw.accelerator import ThreadSimulator

        t = translate(parse(CSE_HEAVY), {"n": 8})
        optimized, _ = optimize(t.dfg)
        program = compile_thread(optimized, rows=2, columns=4)
        program.verify()
        hw = ThreadSimulator(program).run(feeds)
        sw = Interpreter(optimized).run(feeds)
        np.testing.assert_allclose(
            hw.gradient_vector("g", 8), sw["g"], rtol=1e-9
        )

    def test_autodiff_output_shrinks(self):
        """Derived gradient graphs carry redundancy the passes remove."""
        derived = derive_gradients(
            """
            model_input x[n];
            model_output y;
            model w[n];
            iterator i[0:n];
            e = sum[i](w[i] * x[i]) - y;
            loss = e * e / 2;
            """,
            {"n": 8},
        )
        optimized, report = optimize(derived.dfg)
        assert report.nodes_after <= report.nodes_before
        rng = np.random.default_rng(3)
        feeds = {
            "x": rng.normal(size=8),
            "y": np.float64(0.1),
            "w": rng.normal(size=8),
        }
        a = Interpreter(derived.dfg).run(feeds)["g_w"]
        b = Interpreter(optimized).run(feeds)["g_w"]
        np.testing.assert_allclose(a, b, rtol=0)


class TestPropertyEquivalence:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_optimize_is_identity_on_results(self, n, seed):
        rng = np.random.default_rng(seed)
        t = translate(parse(CSE_HEAVY), {"n": n})
        feeds = {
            "x": rng.normal(size=n),
            "y": np.float64(rng.normal()),
            "w": rng.normal(size=n),
        }
        before = Interpreter(t.dfg).run(feeds)
        optimized, _ = optimize(t.dfg)
        after = Interpreter(optimized).run(feeds)
        for key in before:
            np.testing.assert_allclose(after[key], before[key], rtol=0)
