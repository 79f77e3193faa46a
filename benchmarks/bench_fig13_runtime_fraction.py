"""Figure 13: computation vs communication fraction of CoSMIC runtime."""

from repro.bench.figures import figure13


def test_figure13(regen):
    result = regen(figure13, rounds=1)
    # Paper: compute is 12% of runtime at b=500 and 95% at b=100,000.
    assert result.summary["mean_frac_b500"] < 0.5
    assert result.summary["mean_frac_b100000"] > 0.8
    # Monotone per benchmark.
    for row in result.rows:
        fracs = [
            row[f"compute_frac_b{b}"] for b in (500, 1_000, 10_000, 100_000)
        ]
        assert fracs == sorted(fracs)
        assert all(0 < f <= 1 for f in fracs)
    # The recommender models (large updates) stay communication-heavy the
    # longest.
    rows = {r["name"]: r for r in result.rows}
    assert (
        rows["netflix"]["compute_frac_b10000"]
        < rows["stock"]["compute_frac_b10000"]
    )
