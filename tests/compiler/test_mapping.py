"""Tests for Algorithm 1 (minimum-communication mapping)."""


from repro.compiler.mapping import PeGrid, communication_edges, map_graph
from repro.dfg.ir import DATA, MODEL
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


def expansion(n=16):
    return scalarize(translate(parse(LINREG), {"n": n}).dfg)


class TestGrid:
    def test_indexing_roundtrip(self):
        grid = PeGrid(rows=4, columns=8)
        for pe in range(grid.n_pe):
            row, col = grid.position(pe)
            assert grid.pe_of(row, col) == pe

    def test_stream_pe_follows_columns(self):
        grid = PeGrid(rows=2, columns=4)
        assert grid.stream_pe(0) == 0
        assert grid.stream_pe(3) == 3
        assert grid.stream_pe(4) == 4  # wraps to row 1, col 0
        assert grid.stream_pe(8) == 0  # wraps back to row 0


class TestDataPlacement:
    def test_every_data_element_placed(self):
        exp = expansion()
        mapping = map_graph(exp, PeGrid(2, 4))
        for _, _, vid in exp.input_elements(DATA):
            assert vid in mapping.pe_of_value

    def test_data_pinned_to_stream_column(self):
        """Step 1: data lands on the PE of the column that streams it."""
        exp = expansion()
        grid = PeGrid(2, 4)
        mapping = map_graph(exp, grid)
        for vid, pos in mapping.stream_position.items():
            assert mapping.pe_of_value[vid] == grid.stream_pe(pos)

    def test_stream_positions_dense(self):
        exp = expansion(8)
        mapping = map_graph(exp, PeGrid(2, 4))
        positions = sorted(mapping.stream_position.values())
        assert positions == list(range(len(positions)))


class TestOperationMapping:
    def test_every_node_mapped_exactly_once(self):
        exp = expansion()
        mapping = map_graph(exp, PeGrid(2, 4))
        nodes = [n.nid for n in exp.dfg.topo_order()]
        assert sorted(mapping.pe_of_node) == sorted(nodes)
        listed = [nid for ops in mapping.operation_map.values() for nid in ops]
        assert sorted(listed) == sorted(nodes)

    def test_ops_with_data_operand_run_on_data_pe(self):
        """Step 3 of Algorithm 1."""
        exp = expansion()
        mapping = map_graph(exp, PeGrid(2, 4))
        dfg = exp.dfg
        for node in dfg.topo_order():
            for vid in node.inputs:
                value = dfg.values[vid]
                if value.category == DATA and value.producer is None:
                    assert (
                        mapping.pe_of_node[node.nid]
                        == mapping.pe_of_value[vid]
                    )
                    break

    def test_model_colocated_with_consumer(self):
        """Steps 3-4: model parameters live where their op runs."""
        exp = expansion()
        mapping = map_graph(exp, PeGrid(2, 4))
        dfg = exp.dfg
        for node in dfg.topo_order():
            has_data = any(
                dfg.values[v].category == DATA and dfg.values[v].producer is None
                for v in node.inputs
            )
            if not has_data:
                continue
            for vid in node.inputs:
                value = dfg.values[vid]
                if value.category == MODEL and value.producer is None:
                    assert (
                        mapping.pe_of_value[vid]
                        == mapping.pe_of_node[node.nid]
                    )

    def test_single_pe_grid(self):
        exp = expansion(4)
        mapping = map_graph(exp, PeGrid(1, 1))
        assert set(mapping.pe_of_node.values()) == {0}


class TestCommunicationMinimisation:
    def test_first_level_muls_are_local(self):
        """w[i] * x[i] never crosses PEs: data-first mapping puts the
        model weight next to its data element."""
        exp = expansion(32)
        mapping = map_graph(exp, PeGrid(2, 4))
        dfg = exp.dfg
        edges = communication_edges(dfg, mapping)
        # Nodes whose operands are exactly one DATA element and one MODEL
        # parameter are the w[i]*x[i] products; data-first mapping makes
        # them fully local.
        local_muls = set()
        for n in dfg.topo_order():
            cats = sorted(dfg.values[v].category for v in n.inputs)
            if n.op == "mul" and cats == [DATA, MODEL]:
                local_muls.add(n.nid)
        assert local_muls
        for nid, _, _, _ in edges:
            assert nid not in local_muls

    def test_fewer_pes_less_communication(self):
        exp = expansion(32)
        small = map_graph(exp, PeGrid(1, 2))
        exp2 = expansion(32)
        large = map_graph(exp2, PeGrid(4, 8))
        assert len(communication_edges(exp.dfg, small)) <= len(
            communication_edges(exp2.dfg, large)
        )

    def test_no_communication_on_one_pe(self):
        exp = expansion(8)
        mapping = map_graph(exp, PeGrid(1, 1))
        assert communication_edges(exp.dfg, mapping) == []


class TestRoundRobin:
    def test_model_only_graph_spreads_over_pes(self):
        source = """
        model w[n];
        model_input x[n];
        gradient g[n];
        iterator i[0:n];
        g[i] = w[i] * 0.5 + x[i] * 0;
        """
        exp = scalarize(translate(parse(source), {"n": 8}).dfg)
        mapping = map_graph(exp, PeGrid(1, 4))
        used = {pe for pe, ops in mapping.operation_map.items() if ops}
        assert len(used) > 1
