"""Direct unit tests for the PE model and chip specifications."""

import pytest

from repro.hw.pe import PIPELINE_DEPTH, PIPELINE_STAGES, Pe
from repro.hw.spec import PASIC_F, PASIC_G, XILINX_VU9P


class TestPipelineConstants:
    def test_five_stages(self):
        """Figure 6: read, register, select, ALU, write-back."""
        assert PIPELINE_DEPTH == 5
        assert PIPELINE_STAGES == (
            "read", "register", "select", "alu", "writeback",
        )


class TestPeBuffers:
    def test_partitioned_storage(self):
        pe = Pe(0)
        pe.store("DATA", 1, 0.5)
        pe.store("MODEL", 2, 1.5)
        pe.store("INTERIM", 3, 2.5)
        assert pe.buffers.data == {1: 0.5}
        assert pe.buffers.model == {2: 1.5}
        assert pe.buffers.interim == {3: 2.5}
        assert pe.buffers.words() == 3

    def test_load_searches_partitions(self):
        pe = Pe(0)
        pe.store("MODEL", 7, 3.25)
        assert pe.load(7) == 3.25
        assert pe.load(99) is None


class TestExecution:
    def test_alu_op(self):
        pe = Pe(3)
        assert pe.execute("add", [1.5, 2.5], out_vid=10) == 4.0
        assert pe.buffers.interim[10] == 4.0
        assert pe.ops_executed == 1

    def test_nonlinear_requires_lut_unit(self):
        plain = Pe(0, has_nonlinear_unit=False)
        with pytest.raises(RuntimeError, match="non-linear"):
            plain.execute("sigmoid", [0.0], out_vid=1)
        lut = Pe(1, has_nonlinear_unit=True)
        assert lut.execute("sigmoid", [0.0], out_vid=1) == pytest.approx(0.5)

    def test_alu_ops_never_need_lut(self):
        plain = Pe(0, has_nonlinear_unit=False)
        assert plain.execute("mul", [3.0, 4.0], out_vid=2) == 12.0


class TestChipSpecs:
    def test_vu9p_derivations(self):
        assert XILINX_VU9P.max_pes == 855  # 6840 DSPs / 8 per PE
        assert XILINX_VU9P.columns == 16
        assert XILINX_VU9P.row_max == 48
        assert XILINX_VU9P.onchip_bytes == 2160 * 4608  # 9720 KB

    def test_pasic_explicit_pes(self):
        assert PASIC_F.max_pes == 768
        assert PASIC_G.max_pes == 2880

    def test_pasic_frozen_geometry(self):
        assert PASIC_F.columns == 16
        assert PASIC_G.columns == 64

    def test_scaled_preserves_other_fields(self):
        doubled = XILINX_VU9P.scaled(bandwidth_bytes=19.2e9)
        assert doubled.dsp_slices == XILINX_VU9P.dsp_slices
        assert doubled.columns == 32

    def test_words_per_cycle_floor(self):
        tiny = XILINX_VU9P.scaled(bandwidth_bytes=1.0)
        assert tiny.words_per_cycle == 1

    def test_table2_power(self):
        assert XILINX_VU9P.tdp_watts == 42.0
        assert PASIC_F.tdp_watts == 11.0
        assert PASIC_G.tdp_watts == 37.0
