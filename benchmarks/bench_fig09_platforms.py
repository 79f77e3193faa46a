"""Figure 9: system-wide speedup of P-ASICs and GPU over 3-FPGA-CoSMIC."""

from repro.bench.figures import figure9


def test_figure9(regen):
    result = regen(figure9, rounds=1)
    # Paper: P-ASIC-F 1.2x, P-ASIC-G 2.3x, GPU 1.5x — modest, because
    # the system software bounds what raw compute can deliver.
    f = result.summary["geomean_pasic_f_x"]
    g = result.summary["geomean_pasic_g_x"]
    gpu = result.summary["geomean_gpu_x"]
    assert 1.0 <= f < 2.2
    assert 1.5 < g < 6.5
    assert 1.0 < gpu < 2.5
    assert g > f
    # Streaming benchmarks gain nothing from P-ASIC-F's clock alone.
    rows = {r["name"]: r for r in result.rows}
    assert rows["stock"]["pasic_f_x"] < 1.1
