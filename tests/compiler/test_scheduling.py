"""Tests for the static list scheduler and its legality checker."""

import pytest

from repro.compiler.program import compile_thread
from repro.compiler.scheduling import tree_bus_latency, verify_schedule
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

LOGREG = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
p = sigmoid(sum[i](w[i] * x[i]));
g[i] = (p - y) * x[i];
"""


def program(source=LINREG, n=16, rows=2, columns=4, **kw):
    dfg = translate(parse(source), {"n": n}).dfg
    return compile_thread(dfg, rows=rows, columns=columns, **kw)


class TestLegality:
    @pytest.mark.parametrize("rows,columns", [(1, 1), (1, 4), (2, 4), (4, 8)])
    def test_schedule_verifies(self, rows, columns):
        program(rows=rows, columns=columns).verify()

    def test_nonlinear_program_verifies(self):
        program(LOGREG).verify()

    def test_every_op_scheduled(self):
        prog = program()
        assert len(prog.schedule.ops) == len(prog.expansion.dfg.nodes)

    def test_pe_exclusivity(self):
        prog = program(rows=2, columns=2)
        for pe in range(prog.grid.n_pe):
            ops = prog.schedule.ops_on_pe(pe)
            for a, b in zip(ops, ops[1:]):
                assert b.start >= a.end

    def test_verify_catches_tampering(self):
        prog = program()
        # Pull the last-finishing op (which has dependencies) back to 0.
        nid = max(prog.schedule.ops, key=lambda k: prog.schedule.ops[k].start)
        bad = prog.schedule.ops[nid]
        prog.schedule.ops[nid] = type(bad)(bad.nid, bad.pe, 0, 1)
        with pytest.raises(ValueError):
            verify_schedule(prog.expansion.dfg, prog.mapping, prog.schedule)

    def test_verify_catches_two_ops_on_one_pe(self):
        prog = program(rows=2, columns=2)
        dfg, schedule = prog.expansion.dfg, prog.schedule
        consumed = {vid for node in dfg.topo_order() for vid in node.inputs}
        # Delay a sink op (nothing reads its output) to the start of a
        # later op on its PE: its own operands and transfers still arrive
        # in time, so only the PE exclusivity check can catch it.
        sink, later = next(
            (a, b)
            for a in schedule.ops.values()
            if dfg.nodes[a.nid].output not in consumed
            for b in schedule.ops.values()
            if b.pe == a.pe and b.start > a.start
        )
        schedule.ops[sink.nid] = type(sink)(
            sink.nid, sink.pe, later.start, later.start + sink.end - sink.start
        )
        with pytest.raises(ValueError, match="runs two ops"):
            verify_schedule(dfg, prog.mapping, schedule)


class TestMakespan:
    def test_more_pes_not_slower_per_sample(self):
        fast = program(n=64, rows=4, columns=8, include_stream=False)
        slow = program(n=64, rows=1, columns=1, include_stream=False)
        assert fast.cycles < slow.cycles

    def test_single_pe_serialises_everything(self):
        prog = program(n=16, rows=1, columns=1, include_stream=False)
        # All ops run back to back on one PE: makespan >= weighted work.
        total = sum(
            op.end - op.start for op in prog.schedule.ops.values()
        )
        assert prog.cycles >= total

    def test_streaming_gates_start(self):
        with_stream = program(n=64, rows=2, columns=4)
        without = program(n=64, rows=2, columns=4, include_stream=False)
        assert with_stream.cycles >= without.cycles


class TestInterconnectModel:
    def test_tree_latency_logarithmic(self):
        assert tree_bus_latency(2) == 4
        assert tree_bus_latency(4) == 6
        assert tree_bus_latency(16) == 10
        assert tree_bus_latency(48) < tree_bus_latency(2) * 4

    def test_row_bus_serialisation(self):
        """Two transfers on one row bus cannot start in the same cycle."""
        prog = program(n=32, rows=1, columns=8)
        starts = {}
        for t in prog.schedule.transfers:
            if t.resource.startswith("row_bus"):
                key = (t.resource, t.start)
                assert key not in starts, "row bus double-granted"
                starts[key] = t

    def test_transfers_only_cross_pe(self):
        prog = program(n=32, rows=2, columns=4)
        for t in prog.schedule.transfers:
            assert t.src_pe != t.dst_pe


class TestPriorities:
    def test_critical_chain_scheduled_early(self):
        """The reduction chain (longest path) should not be starved."""
        prog = program(n=32, rows=2, columns=4, include_stream=False)
        dfg = prog.expansion.dfg
        # The final gradient ops depend on the full reduction; they must
        # appear after it but the overall makespan should stay near the
        # reduction depth, not the total op count.
        assert prog.cycles < len(dfg.nodes)


class TestMemorySchedule:
    def test_sample_words_match_data(self):
        prog = program(n=16)
        assert prog.memory.sample_words == 17  # x[16] + y

    def test_preload_words_match_model(self):
        prog = program(n=16)
        assert prog.memory.preload_words == 16

    def test_drain_words_match_gradient(self):
        prog = program(n=16)
        assert prog.memory.drain_words == 16

    def test_preload_entries_broadcast(self):
        prog = program(n=16)
        assert all(e.broadcast for e in prog.memory.preload)
        assert all(not e.broadcast for e in prog.memory.per_sample)

    def test_burst_sizes_bounded_by_columns(self):
        prog = program(n=16, rows=2, columns=4)
        for entry in prog.memory.per_sample:
            assert 1 <= entry.size <= 4

    def test_directions(self):
        prog = program(n=16)
        assert all(e.direction == "RD" for e in prog.memory.per_sample)
        assert all(e.direction == "WR" for e in prog.memory.drain)


class TestThreadIndexTable:
    def test_offsets(self):
        from repro.compiler.memsched import build_thread_index_table

        table = build_thread_index_table(
            threads=3, rows_per_thread=2, columns=4, words_per_thread=100
        )
        assert [e.pe_offset for e in table] == [0, 8, 16]
        assert [e.mem_addr for e in table] == [0, 100, 200]
        assert [e.thread for e in table] == [0, 1, 2]
