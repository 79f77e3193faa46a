"""Figure 17: CoSMIC's template architecture vs TABLA's on UltraScale+."""

from repro.bench.figures import figure17


def test_figure17(regen):
    result = regen(figure17, rounds=1)
    # Paper: 3.9x average; CoSMIC wins on every benchmark thanks to the
    # tree bus, data-first mapping, and multithreading.
    for row in result.rows:
        assert row["speedup"] > 1.0
    assert 1.8 < result.summary["geomean_speedup"] < 8.0
