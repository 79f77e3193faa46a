"""Tests for the Constructor's RTL and microcode generation."""

import pytest

from repro.circuit.constructor import construct, opcode_of
from repro.circuit.microcode import decode, encode_microcode
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


def program(source=LINREG, n=8, rows=2, columns=4):
    dfg = translate(parse(source), {"n": n}).dfg
    return compile_thread(dfg, rows=rows, columns=columns)


class TestFpgaTarget:
    def test_modules_present(self):
        design = construct(program(), target="fpga")
        names = design.module_names()
        assert "cosmic_pe" in names
        assert "cosmic_row_bus" in names
        assert "cosmic_tree_bus" in names
        assert "cosmic_mem_interface" in names
        assert "cosmic_control_fsm" in names
        assert "cosmic_accelerator_top" in names

    def test_fsm_states_cover_schedule(self):
        prog = program()
        design = construct(prog, target="fpga")
        assert design.fsm_states == prog.schedule.makespan + 1

    def test_no_microcode_rom_on_fpga(self):
        design = construct(program(), target="fpga")
        assert "cosmic_microcode_rom" not in design.module_names()

    def test_geometry_in_header(self):
        design = construct(program(rows=2, columns=4))
        assert "2 rows x 4 columns" in design.verilog
        assert design.pe_count == 8

    def test_nonlinear_unit_only_when_needed(self):
        plain = construct(program(LINREG))
        nonlin = construct(program(LOGREG))
        assert "nlu_lut" not in plain.verilog
        assert "nlu_lut" in nonlin.verilog


class TestPasicTarget:
    def test_microcode_rom_replaces_fsm(self):
        design = construct(program(), target="pasic")
        names = design.module_names()
        assert "cosmic_microcode_rom" in names
        assert "cosmic_control_fsm" not in names

    def test_microcode_covers_all_ops(self):
        prog = program()
        design = construct(prog, target="pasic")
        assert len(design.microcode) == len(prog.schedule.ops)

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            construct(program(), target="gpu")


class TestMicrocode:
    def test_encode_decode_roundtrip(self):
        prog = program()
        for uop in encode_microcode(prog):
            decoded = decode(uop.encode())
            assert decoded["cycle"] == uop.cycle
            assert decoded["pe"] == uop.pe
            assert decoded["opcode"] == uop.opcode
            assert decoded["writes_gradient"] == uop.writes_gradient

    def test_stream_sorted_by_cycle(self):
        micro = encode_microcode(program())
        cycles = [u.cycle for u in micro]
        assert cycles == sorted(cycles)

    def test_gradient_flag_set(self):
        micro = encode_microcode(program())
        assert any(u.writes_gradient for u in micro)

    def test_opcodes_distinct(self):
        assert opcode_of("add") != opcode_of("mul")
        assert opcode_of("sigmoid") != opcode_of("select")

    def test_opcode_of_unknown_raises(self):
        with pytest.raises(KeyError):
            opcode_of("frobnicate")
