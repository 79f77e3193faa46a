"""Figure 10: computation-only speedup over the FPGA."""

from repro.bench.figures import figure10


def test_figure10(regen):
    result = regen(figure10, rounds=1)
    rows = {r["name"]: r for r in result.rows}
    # Paper: averages 1.5x (P-ASIC-F), 11.4x (P-ASIC-G), 1.9x (GPU);
    # GPU stands out only on backprop (mnist 20.3x, acoustic 12.8x).
    assert 1.2 < result.summary["geomean_pasic_f_x"] < 3.5
    assert 7 < result.summary["geomean_pasic_g_x"] < 20
    assert 1.2 < result.summary["geomean_gpu_x"] < 3.5
    assert 10 < rows["mnist"]["gpu_x"] < 40
    assert 10 < rows["acoustic"]["gpu_x"] < 40
    for name in ("stock", "texture", "tumor", "cancer1", "face", "cancer2"):
        assert rows[name]["gpu_x"] < 2.5
        assert rows[name]["pasic_f_x"] < 1.2  # same bandwidth, no gain


def test_compute_gain_exceeds_system_gain(regen):
    """The paper's core systems lesson: an 11x compute win shrinks to
    ~2-3x once networking and aggregation are accounted."""
    from repro.bench.figures import figure9, figure10

    names = ["mnist", "stock", "movielens", "tumor"]
    compute = regen(figure10, names, rounds=1)
    system = figure9(names)
    assert (
        compute.summary["geomean_pasic_g_x"]
        > 2 * system.summary["geomean_pasic_g_x"]
    )
