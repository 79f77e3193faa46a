"""Ablation benches: the measured value of each CoSMIC design choice.

Beyond the paper's figures, these quantify the decisions DESIGN.md calls
out — tree bus, data-first mapping, multi-threading, hierarchical
aggregation, the specialised system software — plus a straggler
sensitivity study for the synchronous-aggregation design.
"""

from repro.bench.ablations import (
    ablate_aggregation_hierarchy,
    ablate_interconnect,
    ablate_mapping,
    ablate_multithreading,
    ablate_straggler,
    ablate_system_software,
)


def test_ablate_interconnect(regen):
    result = regen(ablate_interconnect, rounds=1)
    assert result.summary["geomean_flat_penalty_x"] >= 1.0
    for row in result.rows:
        assert row["flat_penalty_x"] >= 1.0


def test_ablate_mapping(regen):
    result = regen(ablate_mapping, rounds=1)
    assert result.summary["geomean_penalty_x"] > 1.2


def test_ablate_multithreading(regen):
    result = regen(ablate_multithreading, rounds=1)
    rows = {r["name"]: r for r in result.rows}
    assert rows["mnist"]["gain_x"] > 1.25  # compute-bound: threads pay off
    for row in result.rows:
        assert row["gain_x"] >= 0.99


def test_ablate_aggregation_hierarchy(regen):
    result = regen(ablate_aggregation_hierarchy, rounds=1)
    rows = {r["name"]: r for r in result.rows}
    # Grouping matters for the megabyte-scale model updates.
    assert rows["netflix"]["flat_penalty_x"] > 1.1
    assert result.summary["geomean_flat_penalty_x"] >= 1.0


def test_ablate_system_software(regen):
    result = regen(ablate_system_software, rounds=1)
    assert result.summary["geomean_generic_penalty_x"] > 1.05
    for row in result.rows:
        assert row["generic_penalty_x"] > 1.0


def test_ablate_straggler(regen):
    result = regen(ablate_straggler, ["mnist", "stock", "netflix"], rounds=1)
    for row in result.rows:
        assert row["x1"] == 1.0
        assert row["x8"] > row["x2"]


def test_ablate_sync_vs_async(regen):
    from repro.bench.ablations import ablate_sync_vs_async

    result = regen(
        ablate_sync_vs_async, ["mnist", "stock", "netflix"], rounds=1
    )
    # The barrier costs roughly the straggler factor; async absorbs it.
    assert result.summary["geomean_async_gain_x"] > 2.0


def test_scaling_projection(regen):
    from repro.bench.ablations import project_scaling

    result = regen(project_scaling, rounds=1)
    rows = {r["name"]: r for r in result.rows}
    # Large-V streaming benchmarks keep scaling; mnist's 60k vectors
    # saturate and reverse.
    assert rows["netflix"]["n256"] > 8
    assert rows["mnist"]["n256"] < rows["mnist"]["n16"]
