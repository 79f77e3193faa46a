"""Figure 12: CoSMIC vs Spark across the mini-batch sweep (b=500..100k)."""

from repro.bench.figures import figure12


def test_figure12(regen):
    result = regen(figure12, rounds=1)
    # CoSMIC is faster at every mini-batch size (paper: 16.8x at b=500,
    # 9.1x at b=100,000 — the gap narrows as Spark's overheads amortise).
    for row in result.rows:
        for b in (500, 1_000, 10_000, 100_000):
            assert row[f"cosmic_b{b}"] > row[f"spark_b{b}"]
    gap_small = result.summary["geomean_gap_b500"]
    gap_large = result.summary["geomean_gap_b100000"]
    assert gap_small > gap_large
    assert 8 < gap_small < 40
    assert 4 < gap_large < 20
    # Both systems get faster with larger mini-batches.
    for row in result.rows:
        assert row["spark_b100000"] > row["spark_b500"]
        assert row["cosmic_b100000"] > row["cosmic_b500"]
