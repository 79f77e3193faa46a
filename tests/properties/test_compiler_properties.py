"""Property-based tests on compiler/mapping/scheduling invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.mapping import PeGrid, communication_edges, map_graph
from repro.compiler.program import compile_thread
from repro.dfg.interpreter import Interpreter
from repro.dfg.scalarize import scalarize
from repro.dfg.translate import translate
from repro.dsl.parser import parse

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

geometries = st.tuples(
    st.integers(min_value=1, max_value=4),  # rows
    st.sampled_from([1, 2, 4, 8]),  # columns
)
widths = st.integers(min_value=1, max_value=24)


class TestMappingInvariants:
    @given(widths, geometries)
    @settings(max_examples=40, deadline=None)
    def test_every_node_mapped_once(self, n, geometry):
        rows, columns = geometry
        exp = scalarize(translate(parse(LINREG), {"n": n}).dfg)
        mapping = map_graph(exp, PeGrid(rows, columns))
        nodes = {node.nid for node in exp.dfg.topo_order()}
        assert set(mapping.pe_of_node) == nodes
        listed = [
            nid for ops in mapping.operation_map.values() for nid in ops
        ]
        assert sorted(listed) == sorted(nodes)

    @given(widths, geometries)
    @settings(max_examples=40, deadline=None)
    def test_pes_within_grid(self, n, geometry):
        rows, columns = geometry
        exp = scalarize(translate(parse(LINREG), {"n": n}).dfg)
        mapping = map_graph(exp, PeGrid(rows, columns))
        n_pe = rows * columns
        assert all(0 <= pe < n_pe for pe in mapping.pe_of_node.values())
        assert all(0 <= pe < n_pe for pe in mapping.pe_of_value.values())

    @given(widths, geometries)
    @settings(max_examples=30, deadline=None)
    def test_comm_edges_are_cross_pe(self, n, geometry):
        rows, columns = geometry
        exp = scalarize(translate(parse(SVM), {"n": n}).dfg)
        mapping = map_graph(exp, PeGrid(rows, columns))
        for _, _, src, dst in communication_edges(exp.dfg, mapping):
            assert src != dst


class TestScheduleInvariants:
    @given(widths, geometries)
    @settings(max_examples=25, deadline=None)
    def test_schedules_always_verify(self, n, geometry):
        rows, columns = geometry
        dfg = translate(parse(LINREG), {"n": n}).dfg
        program = compile_thread(dfg, rows=rows, columns=columns)
        # deep=True also replays transfers on the structural interconnect.
        program.verify(deep=True)

    @given(widths)
    @settings(max_examples=15, deadline=None)
    def test_makespan_monotone_in_resources(self, n):
        """More PEs never cost more than a bounded communication slack
        (tiny graphs gain nothing but pay a few bus hops)."""
        dfg = translate(parse(LINREG), {"n": n}).dfg
        small = compile_thread(dfg, rows=1, columns=1, include_stream=False)
        large = compile_thread(dfg, rows=2, columns=4, include_stream=False)
        assert large.cycles <= small.cycles + 24


class TestEndToEndFunctional:
    @given(
        widths,
        geometries,
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_simulator_equals_interpreter(self, n, geometry, seed):
        """For any width, geometry, and data: the cycle simulator's
        gradient equals the NumPy interpreter's."""
        from repro.hw.accelerator import ThreadSimulator

        rows, columns = geometry
        t = translate(parse(SVM), {"n": n})
        program = compile_thread(t.dfg, rows=rows, columns=columns)
        rng = np.random.default_rng(seed)
        feeds = {
            "x": rng.normal(size=n),
            "y": np.float64(rng.choice([-1.0, 1.0])),
            "w": rng.normal(size=n),
        }
        hw = ThreadSimulator(program).run(feeds)
        sw = Interpreter(t.dfg).run(feeds)
        np.testing.assert_allclose(
            hw.gradient_vector("g", n), sw["g"], rtol=1e-9, atol=1e-12
        )
