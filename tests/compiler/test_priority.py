"""Ablation of the scheduler's longest-dependence-chain priority."""

import pytest

from repro.compiler.mapping import PeGrid, map_graph
from repro.compiler.scheduling import schedule_graph, verify_schedule
from repro.dfg.scalarize import scalarize
from repro.dfg.translate import translate
from repro.dsl.parser import parse

# Two independent chains of different depths share PEs with a wide
# elementwise stage: a naive FIFO schedule can starve the deep chain.
MIXED = """
model_input x[n];
model_output y;
model w[n];
model v[n];
gradient g_w[n];
iterator i[0:n];
deep = sigmoid(sigmoid(sigmoid(sum[i](w[i] * x[i]))));
wide[i] = v[i] * x[i] + v[i];
g_w[i] = (deep - y) * wide[i];
"""


def schedules(n=24, rows=2, columns=4):
    exp = scalarize(translate(parse(MIXED), {"n": n}).dfg)
    mapping = map_graph(exp, PeGrid(rows, columns))
    chain = schedule_graph(exp.dfg, mapping, priority="longest_chain")
    exp2 = scalarize(translate(parse(MIXED), {"n": n}).dfg)
    mapping2 = map_graph(exp2, PeGrid(rows, columns))
    fifo = schedule_graph(exp2.dfg, mapping2, priority="source_order")
    return (exp, mapping, chain), (exp2, mapping2, fifo)


class TestPriorityPolicy:
    def test_both_policies_legal(self):
        (exp, mapping, chain), (exp2, mapping2, fifo) = schedules()
        verify_schedule(exp.dfg, mapping, chain)
        verify_schedule(exp2.dfg, mapping2, fifo)

    def test_longest_chain_not_worse(self):
        (_, _, chain), (_, _, fifo) = schedules()
        assert chain.makespan <= fifo.makespan

    def test_unknown_policy_rejected(self):
        exp = scalarize(translate(parse(MIXED), {"n": 8}).dfg)
        mapping = map_graph(exp, PeGrid(1, 4))
        with pytest.raises(ValueError):
            schedule_graph(exp.dfg, mapping, priority="random")
