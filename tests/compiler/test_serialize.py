"""Reproducible builds: compiling the same graph twice yields the same
artifact (schedule, memory program and microcode)."""

from repro.compiler.program import compile_thread
from repro.dfg.translate import translate
from repro.dsl.parser import parse

LINREG = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
"""


def _artifact(program):
    return program.schedule, program.memory, program.microcode


class TestReproducibleBuilds:
    def test_recompilation_produces_identical_artifact(self):
        dfg_a = translate(parse(LINREG), {"n": 12}).dfg
        dfg_b = translate(parse(LINREG), {"n": 12}).dfg
        a = compile_thread(dfg_a, rows=2, columns=4)
        b = compile_thread(dfg_b, rows=2, columns=4)
        assert _artifact(a) == _artifact(b)

    def test_different_geometry_different_artifact(self):
        dfg = translate(parse(LINREG), {"n": 12}).dfg
        a = compile_thread(dfg, rows=2, columns=4)
        dfg2 = translate(parse(LINREG), {"n": 12}).dfg
        b = compile_thread(dfg2, rows=1, columns=4)
        assert _artifact(a) != _artifact(b)
