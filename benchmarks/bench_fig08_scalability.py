"""Figure 8: CoSMIC vs Spark self-relative scalability."""

from repro.bench.figures import figure8


def test_figure8(regen):
    result = regen(figure8, rounds=1)
    # Paper: CoSMIC 1.8x/2.7x, Spark 1.3x/1.8x when scaling 4 -> 8 -> 16.
    assert 1.4 < result.summary["geomean_cosmic8x"] < 2.2
    assert 2.0 < result.summary["geomean_cosmic16x"] < 3.4
    assert 1.1 < result.summary["geomean_spark8x"] < 1.6
    assert 1.4 < result.summary["geomean_spark16x"] < 2.2
    assert (
        result.summary["geomean_cosmic16x"]
        > result.summary["geomean_spark16x"]
    )
    # The gap is widest on the communication-heavy benchmarks.
    rows = {r["name"]: r for r in result.rows}
    assert rows["stock"]["cosmic16x"] > rows["mnist"]["cosmic16x"]
