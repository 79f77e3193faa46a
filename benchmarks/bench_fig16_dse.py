"""Figure 16: the Planner's (threads x rows) design-space exploration."""

from repro.bench.figures import figure16


def test_figure16(regen):
    result = regen(figure16, rounds=1)
    points = {}
    for row in result.rows:
        if not str(row["point"]).startswith("best"):
            points.setdefault(row["name"], {})[row["point"]] = row["speedup"]
    # Compute-bound benchmarks peak when the whole fabric is used.
    assert result.summary["mnist_best"] > 20
    assert result.summary["movielens_best"] > 20
    # Bandwidth-bound benchmarks saturate early (paper: beyond 16 rows).
    assert result.summary["stock_best"] < 6
    assert result.summary["tumor_best"] < 6
    # "for a fixed number of PE rows, increasing the number of threads
    # improves performance" — the multithreading argument.
    for name in ("mnist", "stock"):
        assert points[name]["T2xR1"] > points[name]["T1xR1"]


def test_design_space_is_27_points():
    """Section 4.4: the pruned UltraScale+ space has 27 design points."""
    from repro.hw.spec import XILINX_VU9P
    from repro.ml.benchmarks import benchmark
    from repro.planner.plan import Planner

    dfg = benchmark("stock").translate().dfg
    space = Planner(XILINX_VU9P).design_space(dfg, 10_000)
    assert len(space) == 27
