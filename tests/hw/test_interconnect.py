"""Structural interconnect tests: topology rules and schedule replay."""

import pytest

from repro.compiler.mapping import PeGrid
from repro.compiler.program import compile_thread
from repro.compiler.scheduling import (
    NEIGHBOR_LATENCY,
    ROW_BUS_LATENCY,
    Transfer,
    tree_bus_latency,
)
from repro.dfg.translate import translate
from repro.dsl.parser import parse
from repro.hw.interconnect import (
    InterconnectError,
    NeighborLinks,
    RowBus,
    TreeBus,
    replay_transfers,
)

LINREG = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
"""


class TestNeighborLinks:
    def test_adjacent_ok(self):
        links = NeighborLinks(PeGrid(2, 4))
        links.carry(0, 1, 0, NEIGHBOR_LATENCY)
        links.carry(5, 4, 3, NEIGHBOR_LATENCY)
        assert links.transfers == 2

    def test_cross_row_rejected(self):
        links = NeighborLinks(PeGrid(2, 4))
        with pytest.raises(InterconnectError):
            links.carry(0, 4, 0, NEIGHBOR_LATENCY)

    def test_non_adjacent_rejected(self):
        links = NeighborLinks(PeGrid(1, 4))
        with pytest.raises(InterconnectError):
            links.carry(0, 2, 0, NEIGHBOR_LATENCY)

    def test_wrong_latency_rejected(self):
        links = NeighborLinks(PeGrid(1, 4))
        with pytest.raises(InterconnectError):
            links.carry(0, 1, 0, NEIGHBOR_LATENCY + 1)


class TestRowBus:
    def test_single_grant_per_cycle(self):
        bus = RowBus(0)
        bus.carry(3, ROW_BUS_LATENCY)
        with pytest.raises(InterconnectError):
            bus.carry(3, ROW_BUS_LATENCY)
        bus.carry(4, ROW_BUS_LATENCY)
        assert bus.transfers == 2


class TestTreeBus:
    def test_levels_logarithmic(self):
        assert TreeBus(2).levels == 1
        assert TreeBus(16).levels == 4
        assert TreeBus(48).levels == 6

    def test_latency_checked(self):
        tree = TreeBus(8)
        tree.carry(0, tree_bus_latency(8))
        with pytest.raises(InterconnectError):
            tree.carry(1, 1)

    def test_reduction_alus(self):
        tree = TreeBus(4)
        assert tree.reduce([1.0, 2.0, 3.0]) == 6.0
        assert tree.reduce([2.0, 3.0], op="prod") == 6.0
        assert tree.reductions == 2
        with pytest.raises(InterconnectError):
            tree.reduce([1.0], op="max")


class TestReplay:
    @pytest.mark.parametrize("rows,columns", [(1, 4), (2, 4), (4, 4)])
    def test_compiled_schedules_replay_clean(self, rows, columns):
        """Every schedule the compiler emits books real, conflict-free
        interconnect resources."""
        dfg = translate(parse(LINREG), {"n": 16}).dfg
        program = compile_thread(dfg, rows=rows, columns=columns)
        fabric = replay_transfers(program.schedule)
        summary = fabric.traffic_summary()
        assert sum(summary.values()) == len(program.schedule.transfers)

    def test_multirow_uses_tree_bus(self):
        dfg = translate(parse(LINREG), {"n": 32}).dfg
        program = compile_thread(dfg, rows=4, columns=4)
        fabric = replay_transfers(program.schedule)
        assert fabric.traffic_summary()["tree_bus"] > 0

    def test_single_row_never_uses_tree(self):
        dfg = translate(parse(LINREG), {"n": 16}).dfg
        program = compile_thread(dfg, rows=1, columns=4)
        fabric = replay_transfers(program.schedule)
        assert fabric.traffic_summary()["tree_bus"] == 0

    def test_tampered_transfer_caught(self):
        dfg = translate(parse(LINREG), {"n": 16}).dfg
        program = compile_thread(dfg, rows=2, columns=4)
        bad = Transfer(
            value=0, src_pe=0, dst_pe=1, start=0, latency=99,
            resource="neighbor",
        )
        program.schedule.transfers.append(bad)
        with pytest.raises(InterconnectError):
            replay_transfers(program.schedule)

    def test_unknown_resource_caught(self):
        dfg = translate(parse(LINREG), {"n": 8}).dfg
        program = compile_thread(dfg, rows=1, columns=2)
        program.schedule.transfers.append(
            Transfer(0, 0, 1, 0, 1, resource="noc_mesh")
        )
        with pytest.raises(InterconnectError):
            replay_transfers(program.schedule)

    def test_same_row_tree_routing_caught(self):
        dfg = translate(parse(LINREG), {"n": 8}).dfg
        program = compile_thread(dfg, rows=2, columns=4)
        program.schedule.transfers.append(
            Transfer(0, 0, 2, 1000, tree_bus_latency(2), "tree_bus")
        )
        with pytest.raises(InterconnectError):
            replay_transfers(program.schedule)
