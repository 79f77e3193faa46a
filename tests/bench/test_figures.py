"""Shape tests for the experiment harness: the paper's qualitative claims
must hold in every regenerated figure."""

import pytest

from repro.bench.figures import (
    EXPERIMENTS,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    table1,
    table2,
    table3,
)
from repro.bench.results import geomean

FAST = ["mnist", "stock", "movielens", "tumor"]


class TestGeomean:
    def test_geomean_basics(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([2, 2, 2]) == pytest.approx(2.0)

    def test_geomean_skips_nonpositive(self):
        assert geomean([0.0, 4.0]) == pytest.approx(4.0)

    def test_geomean_empty_is_nan(self):
        import math

        assert math.isnan(geomean([]))


class TestTables:
    def test_table1_rows(self):
        t = table1()
        assert len(t.rows) == 10
        assert "model_kb" in t.columns

    def test_table1_loc_within_paper(self):
        for row in table1().rows:
            assert row["loc_ours"] <= row["loc_paper"]

    def test_table2_lists_five_platforms(self):
        t = table2()
        platforms = [r["platform"] for r in t.rows]
        assert platforms == [
            "Xeon E3-1275 v5", "Tesla K40c", "UltraScale+ VU9P",
            "P-ASIC-F", "P-ASIC-G",
        ]
        rows = {r["platform"]: r for r in t.rows}
        assert rows["P-ASIC-F"]["compute_units"] == 768
        assert rows["P-ASIC-G"]["compute_units"] == 2880
        assert rows["Tesla K40c"]["power_w"] == 235.0

    def test_table3_within_budget(self):
        for row in table3().rows:
            for col in ("luts_pct", "ffs_pct", "bram_pct", "dsp_pct"):
                assert 0 < row[col] <= 100.0

    def test_table3_compute_bound_use_more(self):
        rows = {r["name"]: r for r in table3().rows}
        assert rows["mnist"]["dsp_pct"] > 4 * rows["stock"]["dsp_pct"]

    def test_render_has_header(self):
        text = table1().to_table()
        assert "Table 1" in text
        assert "mnist" in text


class TestFigure7and8:
    @pytest.fixture(scope="class")
    def fig7(self):
        return figure7(FAST)

    def test_cosmic_beats_spark_everywhere(self, fig7):
        for row in fig7.rows:
            assert row["cosmic16x"] > row["spark16x"]

    def test_movielens_highest(self):
        full = figure7()
        by_name = {r["name"]: r["cosmic16x"] for r in full.rows}
        assert by_name["movielens"] == max(by_name.values())
        assert by_name["mnist"] == min(by_name.values())

    def test_average_speedup_in_paper_band(self):
        full = figure7()
        s16 = full.summary["geomean_cosmic16x"]
        assert 20 < s16 < 50  # paper: 33.8

    def test_figure8_cosmic_scales_better(self):
        fig8 = figure8()
        assert (
            fig8.summary["geomean_cosmic16x"]
            > fig8.summary["geomean_spark16x"]
        )
        assert 2.0 < fig8.summary["geomean_cosmic16x"] < 3.5  # paper: 2.7
        assert 1.3 < fig8.summary["geomean_spark16x"] < 2.2  # paper: 1.8

    def test_comm_heavy_benchmarks_scale_best(self):
        """Figure 8: the improvement gap is larger for stock-like
        benchmarks than for the compute-bound ones."""
        fig8 = figure8(["stock", "mnist"])
        rows = {r["name"]: r for r in fig8.rows}
        assert rows["stock"]["cosmic16x"] > rows["mnist"]["cosmic16x"]


class TestFigure9to11:
    def test_platform_ordering(self):
        fig9 = figure9(FAST)
        f = fig9.summary["geomean_pasic_f_x"]
        g = fig9.summary["geomean_pasic_g_x"]
        assert 1.0 <= f < g  # P-ASIC-G strictly better than P-ASIC-F

    def test_compute_gains_exceed_system_gains(self):
        """The paper's headline lesson: computation speedup does not
        translate to proportional system-wide improvement."""
        sys9 = figure9(FAST).summary["geomean_pasic_g_x"]
        comp10 = figure10(FAST).summary["geomean_pasic_g_x"]
        assert comp10 > 2 * sys9

    def test_gpu_wins_big_only_on_backprop(self):
        fig10 = figure10()
        rows = {r["name"]: r["gpu_x"] for r in fig10.rows}
        assert rows["mnist"] > 10
        assert rows["acoustic"] > 10
        assert rows["stock"] < 2
        assert rows["movielens"] < 2

    def test_mnist_gpu_near_paper_203(self):
        fig10 = figure10(["mnist"])
        assert 10 < fig10.rows[0]["gpu_x"] < 40  # paper: 20.3

    def test_perf_per_watt_favours_accelerators(self):
        fig11 = figure11(FAST)
        assert fig11.summary["geomean_fpga_x"] > 1.5
        assert (
            fig11.summary["geomean_pasic_f_x"]
            > fig11.summary["geomean_fpga_x"]
        )


class TestFigure12to14:
    def test_gap_narrows_with_minibatch(self):
        """Figure 12: Spark's overheads amortise at large b, so the
        CoSMIC/Spark gap shrinks from b=500 to b=100,000."""
        fig12 = figure12(FAST)
        assert (
            fig12.summary["geomean_gap_b500"]
            > fig12.summary["geomean_gap_b100000"]
        )

    def test_compute_fraction_rises(self):
        fig13 = figure13(FAST)
        assert fig13.summary["mean_frac_b500"] < 0.5
        assert fig13.summary["mean_frac_b100000"] > 0.8

    def test_fraction_monotone_per_benchmark(self):
        fig13 = figure13(["stock"], minibatches=(500, 10_000, 100_000))
        row = fig13.rows[0]
        assert (
            row["compute_frac_b500"]
            < row["compute_frac_b10000"]
            < row["compute_frac_b100000"]
        )

    def test_breakdown_both_components_speed_up(self):
        fig14 = figure14(FAST)
        assert fig14.summary["geomean_fpga_x"] > 1
        assert fig14.summary["geomean_syssw_x"] > 1


class TestFigure15and16:
    @pytest.fixture(scope="class")
    def fig15(self):
        return figure15(
            FAST, pe_counts=(192, 768, 3072), bandwidth_x=(0.5, 1.0, 2.0)
        )

    def test_compute_bound_scale_with_pes(self, fig15):
        rows = {r["name"]: r for r in fig15.rows}
        assert rows["mnist"]["pe3072"] > 3
        assert rows["movielens"]["pe3072"] > 3

    def test_bandwidth_bound_flat_with_pes(self, fig15):
        rows = {r["name"]: r for r in fig15.rows}
        assert rows["stock"]["pe3072"] < 1.2
        assert rows["tumor"]["pe3072"] < 1.2

    def test_bandwidth_bound_scale_with_bandwidth(self, fig15):
        rows = {r["name"]: r for r in fig15.rows}
        assert rows["stock"]["bw2.0x"] > 3
        assert rows["mnist"]["bw2.0x"] < rows["stock"]["bw2.0x"]

    def test_dse_multithreading_helps(self):
        fig16 = figure16(["stock"])
        rows = {
            r["point"]: r["speedup"]
            for r in fig16.rows
            if not str(r["point"]).startswith("best")
        }
        assert rows["T2xR1"] > rows["T1xR1"]

    def test_dse_compute_bound_peaks_at_full_fabric(self):
        fig16 = figure16(["mnist"])
        best = [r for r in fig16.rows if str(r["point"]).startswith("best")]
        label = best[0]["point"]
        # T3xR16 = 48 rows: the whole fabric.
        assert "R16" in label or "R48" in label or "R32" in label


class TestFigure17:
    def test_cosmic_beats_tabla(self):
        fig17 = figure17(FAST)
        for row in fig17.rows:
            assert row["speedup"] > 1.0

    def test_average_in_band(self):
        fig17 = figure17()
        assert 1.5 < fig17.summary["geomean_speedup"] < 8.0  # paper: 3.9


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3",
            "figure7", "figure8", "figure9", "figure10", "figure11",
            "figure12", "figure13", "figure14", "figure15", "figure16",
            "figure17",
        }
