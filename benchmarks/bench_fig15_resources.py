"""Figure 15: sensitivity to the number of PEs and to memory bandwidth."""

from repro.bench.figures import figure15

COMPUTE_BOUND = ("mnist", "acoustic", "movielens", "netflix")
BANDWIDTH_BOUND = ("stock", "texture", "tumor", "cancer1", "face", "cancer2")


def test_figure15(regen):
    result = regen(figure15, rounds=1)
    rows = {r["name"]: r for r in result.rows}
    # (a) PE sweep 192 -> 6144: backprop and collaborative filtering
    # scale; the linear models are flat.
    for name in COMPUTE_BOUND:
        assert rows[name]["pe6144"] > 4 * rows[name]["pe192"]
    for name in BANDWIDTH_BOUND:
        assert rows[name]["pe6144"] < 1.3 * rows[name]["pe192"]
    # (b) bandwidth sweep: the mirror image.
    for name in BANDWIDTH_BOUND:
        assert rows[name]["bw4.0x"] > 8 * rows[name]["bw0.25x"]
    for name in COMPUTE_BOUND:
        assert rows[name]["bw4.0x"] < rows["stock"]["bw4.0x"]
    # Summary statistics capture the dichotomy.
    assert result.summary["compute_bound_pe_scaling"] > 5
    assert result.summary["bandwidth_bound_pe_scaling"] < 1.3
