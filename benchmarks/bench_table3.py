"""Table 3: chosen thread counts and FPGA resource utilization."""

from repro.bench.figures import table3


def test_table3(regen):
    result = regen(table3)
    rows = {r["name"]: r for r in result.rows}
    # Compute-bound benchmarks use most of the fabric, bandwidth-bound
    # ones a small corner (the paper's utilization dichotomy).
    assert rows["mnist"]["dsp_pct"] > 50
    assert rows["stock"]["dsp_pct"] < 25
    # Everything fits on the chip.
    for row in result.rows:
        for col in ("luts_pct", "ffs_pct", "bram_pct", "dsp_pct"):
            assert 0 < row[col] <= 100
    # Multi-threading is used wherever the model replica allows it.
    assert rows["stock"]["threads"] >= 4
    assert rows["netflix"]["threads"] == 1  # 2.9 MB replica per thread
