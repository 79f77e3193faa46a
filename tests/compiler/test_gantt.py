"""Per-PE utilisation of a compiled schedule."""

import pytest

from repro.compiler import compile_thread
from repro.compiler.program import utilization_by_pe
from repro.dfg import translate
from repro.dsl import parse

LOGREG = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
p = sigmoid(sum[i](w[i] * x[i]));
g[i] = (p - y) * x[i];
"""


@pytest.fixture
def program():
    dfg = translate(parse(LOGREG), {"n": 8}).dfg
    return compile_thread(dfg, rows=2, columns=4)


class TestUtilization:
    def test_fractions_bounded(self, program):
        util = utilization_by_pe(program)
        assert len(util) == program.grid.n_pe
        for value in util.values():
            assert 0.0 <= value <= 1.0

    def test_some_pe_is_busy(self, program):
        util = utilization_by_pe(program)
        assert max(util.values()) > 0.1
