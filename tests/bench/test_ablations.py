"""Tests for the design-choice ablation studies."""


from repro.bench.ablations import (
    ABLATIONS,
    ablate_aggregation_hierarchy,
    ablate_interconnect,
    ablate_mapping,
    ablate_multithreading,
    ablate_straggler,
    ablate_system_software,
)

FAST = ["mnist", "stock", "movielens", "tumor"]


class TestInterconnect:
    def test_flat_bus_never_faster(self):
        result = ablate_interconnect(FAST)
        for row in result.rows:
            assert row["flat_penalty_x"] >= 1.0

    def test_reduction_heavy_benchmarks_hurt_most(self):
        result = ablate_interconnect(["mnist", "stock"])
        rows = {r["name"]: r["flat_penalty_x"] for r in result.rows}
        # mnist's matvec reductions spread over many PEs.
        assert rows["mnist"] > 1.05


class TestMapping:
    def test_ops_first_never_faster(self):
        result = ablate_mapping(FAST)
        for row in result.rows:
            assert row["penalty_x"] >= 1.0
        assert result.summary["geomean_penalty_x"] > 1.2


class TestMultithreading:
    def test_compute_bound_benchmarks_gain(self):
        result = ablate_multithreading(["mnist"])
        assert result.rows[0]["gain_x"] > 1.25
        assert result.rows[0]["threads"] > 1

    def test_never_worse_than_single_thread(self):
        result = ablate_multithreading(FAST)
        for row in result.rows:
            assert row["gain_x"] >= 0.99


class TestHierarchy:
    def test_grouping_helps_large_models_at_scale(self):
        result = ablate_aggregation_hierarchy(["netflix"], nodes=16)
        assert result.rows[0]["flat_penalty_x"] > 1.1

    def test_small_models_insensitive(self):
        result = ablate_aggregation_hierarchy(["face"], nodes=16)
        assert result.rows[0]["flat_penalty_x"] < 1.5


class TestSystemSoftware:
    def test_generic_runtime_always_slower(self):
        result = ablate_system_software(FAST)
        for row in result.rows:
            assert row["generic_penalty_x"] > 1.0

    def test_penalty_larger_for_short_iterations(self):
        """Fixed per-iteration overheads hurt most when the iteration is
        short (stock streams its batch in milliseconds); wire-dominated
        iterations (netflix's 2.8 MB updates) hide them."""
        result = ablate_system_software(["netflix", "stock"])
        rows = {r["name"]: r["generic_penalty_x"] for r in result.rows}
        assert rows["stock"] > rows["netflix"]


class TestStraggler:
    def test_slowdown_tracks_factor_when_compute_bound(self):
        result = ablate_straggler(["mnist"], factors=(1.0, 4.0))
        row = result.rows[0]
        assert 2.0 < row["x4"] <= 4.5

    def test_monotone_in_factor(self):
        result = ablate_straggler(["stock"], factors=(1.0, 2.0, 4.0, 8.0))
        row = result.rows[0]
        assert row["x1"] <= row["x2"] <= row["x4"] <= row["x8"]


class TestSyncVsAsync:
    def test_async_absorbs_straggler(self):
        from repro.bench.ablations import ablate_sync_vs_async

        result = ablate_sync_vs_async(["stock"], straggler_factor=4.0)
        assert result.rows[0]["async_gain_x"] > 2.0

    def test_gain_grows_with_straggler(self):
        from repro.bench.ablations import ablate_sync_vs_async

        mild = ablate_sync_vs_async(["stock"], straggler_factor=2.0)
        severe = ablate_sync_vs_async(["stock"], straggler_factor=8.0)
        assert (
            severe.rows[0]["async_gain_x"] > mild.rows[0]["async_gain_x"]
        )


class TestScalingProjection:
    def test_streaming_benchmarks_keep_scaling(self):
        from repro.bench.ablations import project_scaling

        result = project_scaling(["stock"], node_counts=(4, 64))
        assert result.rows[0]["n64"] > 5

    def test_small_dataset_saturates(self):
        """mnist's 60k vectors cannot feed 256 nodes: aggregation
        overhead eventually wins and scaling reverses."""
        from repro.bench.ablations import project_scaling

        result = project_scaling(["mnist"], node_counts=(4, 16, 256))
        row = result.rows[0]
        assert row["n256"] < row["n16"]


class TestRegistry:
    def test_all_ablations_registered(self):
        assert set(ABLATIONS) == {
            "interconnect",
            "mapping",
            "multithreading",
            "aggregation_hierarchy",
            "system_software",
            "straggler",
            "sync_vs_async",
            "scaling_projection",
        }

    def test_all_return_summaries(self):
        for fn in ABLATIONS.values():
            result = fn(["stock"])
            assert result.summary
            assert result.rows
