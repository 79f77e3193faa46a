"""Scalar expansion tests: structure, sizes, and functional equivalence."""

import numpy as np
import pytest

from repro.compiler.program import compile_thread
from repro.dfg.interpreter import Interpreter
from repro.dfg.ir import DATA, MODEL, Dfg
from repro.dfg.optimize import optimize
from repro.dfg.scalarize import ExpansionTooLarge, scalarize
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


def lin(n=4):
    return translate(parse(LINREG), {"n": n}).dfg


class TestStructure:
    def test_scalar_graph_has_no_axes(self):
        exp = scalarize(lin(4))
        assert all(v.axes == () for v in exp.dfg.values.values())

    def test_node_count_matches_macro_estimate(self):
        macro = lin(4)
        exp = scalarize(macro)
        # reduce expands to w-1 adds + 1 identity vs w "applications".
        assert len(exp.dfg.nodes) == pytest.approx(macro.total_scalar_ops(), abs=2)

    def test_elements_enumerated(self):
        exp = scalarize(lin(3))
        names = {(name, idx) for (name, idx) in exp.elements}
        assert ("x", (0,)) in names
        assert ("x", (2,)) in names
        assert ("w", (1,)) in names
        assert ("y", ()) in names

    def test_input_elements_by_category(self):
        exp = scalarize(lin(3))
        data = exp.input_elements(DATA)
        model = exp.input_elements(MODEL)
        assert [name for name, _, _ in model] == ["w", "w", "w"]
        assert {name for name, _, _ in data} == {"x", "y"}

    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_input_elements_match_sorted_scan(self, bench):
        """The per-category lists built at expansion equal a fresh scan:
        sort every element, keep the inputs of the category. A caller
        that changes its list does not change the next caller's."""
        exp = scalarize(optimize(bench.translate(scaled=True).dfg)[0])
        for category in (DATA, MODEL):
            scan = [
                (name, index, vid)
                for (name, index), vid in sorted(exp.elements.items())
                if exp.dfg.values[vid].producer is None
                and exp.dfg.values[vid].category == category
            ]
            got = exp.input_elements(category)
            assert got == scan
            got.reverse()
            got.append(("tampered", (), -1))
            assert exp.input_elements(category) == scan

    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_expansion_is_valid(self, bench):
        scalarize(optimize(bench.translate(scaled=True).dfg)[0]).dfg.validate()

    def test_compile_thread_validates_scalar_graph_once(self, monkeypatch):
        validated = []
        validate = Dfg.validate

        def counting(dfg):
            validated.append(dfg)
            validate(dfg)

        monkeypatch.setattr(Dfg, "validate", counting)
        program = compile_thread(lin(4), rows=1, columns=2)
        scalar = program.expansion.dfg
        assert [dfg for dfg in validated if dfg is scalar] == [scalar]

    def test_reduction_tree_is_balanced(self):
        exp = scalarize(lin(8))
        # depth of chain: mul -> 3 tree levels -> sub -> mul -> identity
        assert exp.dfg.depth() <= 1 + 3 + 1 + 1 + 1

    def test_budget_guard(self):
        with pytest.raises(ExpansionTooLarge):
            scalarize(lin(4), max_nodes=3)


class TestEquivalence:
    def test_scalar_outputs_match_macro(self):
        rng = np.random.default_rng(0)
        n = 5
        macro = lin(n)
        exp = scalarize(macro)
        x = rng.normal(size=n)
        y = 0.7
        w = rng.normal(size=n)

        macro_out = Interpreter(macro).run({"x": x, "y": np.float64(y), "w": w})

        feeds = {f"x[{i}]": np.float64(x[i]) for i in range(n)}
        feeds.update({f"w[{i}]": np.float64(w[i]) for i in range(n)})
        feeds["y"] = np.float64(y)
        scalar_out = Interpreter(exp.dfg).run(feeds)
        # The scalar graph exposes a representative element of g: g[0].
        np.testing.assert_allclose(scalar_out["g"], macro_out["g"][0], rtol=1e-12)

    def test_gradient_elements_flagged(self):
        exp = scalarize(lin(3))
        grads = exp.dfg.gradient_outputs()
        assert len(grads) == 3


class TestOddWidths:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 9])
    def test_tree_handles_any_width(self, n):
        exp = scalarize(lin(n))
        exp.dfg.validate()
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        w = rng.normal(size=n)
        feeds = {f"x[{i}]": np.float64(x[i]) for i in range(n)}
        feeds.update({f"w[{i}]": np.float64(w[i]) for i in range(n)})
        feeds["y"] = np.float64(0.0)
        out = Interpreter(exp.dfg).run(feeds)
        np.testing.assert_allclose(out["g"], (w @ x) * x[0], rtol=1e-12)
