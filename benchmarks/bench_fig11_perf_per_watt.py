"""Figure 11: Performance-per-Watt vs the 3-GPU system."""

from repro.bench.figures import figure11


def test_figure11(regen):
    result = regen(figure11, rounds=1)
    # Paper: FPGA 4.2x, P-ASIC-F 6.9x, P-ASIC-G 8.2x better than GPU.
    fpga = result.summary["geomean_fpga_x"]
    f = result.summary["geomean_pasic_f_x"]
    g = result.summary["geomean_pasic_g_x"]
    assert 2.0 < fpga < 7.0
    assert 3.5 < f < 11.0
    assert 5.0 < g < 18.0
    assert fpga < f  # the P-ASICs are strictly more efficient
    # Every accelerated platform beats the GPU on efficiency.
    for row in result.rows:
        assert row["fpga_x"] > 1.0
        assert row["pasic_f_x"] > 1.0
