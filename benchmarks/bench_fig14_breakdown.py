"""Figure 14: speedup breakdown between the FPGAs and the specialised
system software (vs the 3-node Spark system)."""

from repro.bench.figures import figure14


def test_figure14(regen):
    result = regen(figure14, rounds=1)
    # Both components contribute on every benchmark (paper: FPGAs 20.7x,
    # system software 28.4x on average).
    for row in result.rows:
        assert row["fpga_x"] > 1.0
        assert row["syssw_x"] > 1.0
    assert result.summary["geomean_fpga_x"] > 3
    assert result.summary["geomean_syssw_x"] > 3
    # Data-transfer-sensitive benchmarks gain relatively more from the
    # system software than from the accelerator (Section 7.2).
    rows = {r["name"]: r for r in result.rows}
    for name in ("stock", "texture", "cancer1", "cancer2"):
        assert rows[name]["syssw_x"] > rows[name]["fpga_x"]
