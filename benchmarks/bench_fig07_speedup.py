"""Figure 7: speedup over the 4-node Spark baseline, 4/8/16 nodes."""

from repro.bench.figures import figure7


def test_figure7(regen):
    result = regen(figure7, rounds=1)
    by_name = {r["name"]: r for r in result.rows}
    # Every configuration beats Spark on every benchmark.
    for row in result.rows:
        for n in (4, 8, 16):
            assert row[f"cosmic{n}x"] > row[f"spark{n}x"]
    # Paper: movielens highest (~100.7x), backprop lowest (mnist 6.8x).
    cosmic16 = {name: r["cosmic16x"] for name, r in by_name.items()}
    assert cosmic16["movielens"] == max(cosmic16.values())
    assert cosmic16["mnist"] == min(cosmic16.values())
    # Paper averages: 12.6x / 23.1x / 33.8x.
    assert 6 < result.summary["geomean_cosmic4x"] < 25
    assert 10 < result.summary["geomean_cosmic8x"] < 40
    assert 18 < result.summary["geomean_cosmic16x"] < 55
