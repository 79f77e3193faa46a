"""Calibration robustness: the paper's qualitative conclusions must not
hinge on the exact values of the free parameters.

The baseline models have a handful of calibrated constants
(`repro/baselines/calibration.py`). These tests perturb them by +/-25%
and check that every *ordering* claim the reproduction rests on still
holds — if a conclusion flipped under such perturbations it would be an
artifact of tuning, not of the modelled systems.
"""

import pytest

from repro.baselines import calibration as cal


@pytest.fixture(params=[0.75, 1.25], ids=["minus25pct", "plus25pct"])
def perturbed(request, monkeypatch):
    """Scale the Spark free parameters by the factor under test."""
    factor = request.param
    monkeypatch.setattr(
        cal, "SPARK_JOB_OVERHEAD_S", cal.SPARK_JOB_OVERHEAD_S * factor
    )
    monkeypatch.setattr(
        cal, "SPARK_TASK_OVERHEAD_S", cal.SPARK_TASK_OVERHEAD_S * factor
    )
    monkeypatch.setattr(
        cal,
        "SPARK_PER_SAMPLE_OVERHEAD_S",
        {k: v * factor for k, v in cal.SPARK_PER_SAMPLE_OVERHEAD_S.items()},
    )
    monkeypatch.setattr(
        cal,
        "SPARK_EFFICIENCY",
        {k: min(0.95, v / factor) for k, v in cal.SPARK_EFFICIENCY.items()},
    )
    return factor


class TestFigure7Robust:
    def test_cosmic_still_wins_everywhere(self, perturbed):
        from repro.bench.figures import figure7

        result = figure7(["mnist", "stock", "movielens"])
        for row in result.rows:
            assert row["cosmic16x"] > row["spark16x"]

    def test_recommender_still_leads(self, perturbed):
        from repro.bench.figures import figure7

        result = figure7(["mnist", "stock", "movielens"])
        by_name = {r["name"]: r["cosmic16x"] for r in result.rows}
        assert by_name["movielens"] > by_name["stock"] > by_name["mnist"]


class TestFigure8Robust:
    def test_cosmic_still_scales_better(self, perturbed):
        from repro.bench.figures import figure8

        result = figure8(["stock", "tumor", "face"])
        assert (
            result.summary["geomean_cosmic16x"]
            > result.summary["geomean_spark16x"]
        )


class TestFigure12Robust:
    def test_gap_still_narrows_with_minibatch(self, perturbed):
        from repro.bench.figures import figure12

        result = figure12(["stock", "tumor"])
        assert (
            result.summary["geomean_gap_b500"]
            > result.summary["geomean_gap_b100000"]
        )


class TestGpuRobust:
    @pytest.fixture(params=[0.75, 1.25], ids=["minus", "plus"])
    def gpu_perturbed(self, request, monkeypatch):
        factor = request.param
        monkeypatch.setattr(
            cal,
            "GPU_EFFICIENCY",
            {k: min(0.9, v * factor) for k, v in cal.GPU_EFFICIENCY.items()},
        )
        return factor

    def test_gpu_still_wins_only_on_backprop(self, gpu_perturbed):
        from repro.bench.figures import figure10

        result = figure10(["mnist", "stock", "movielens"])
        rows = {r["name"]: r["gpu_x"] for r in result.rows}
        assert rows["mnist"] > 5
        assert rows["stock"] < 2.5
        assert rows["movielens"] < 2.5
