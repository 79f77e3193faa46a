"""Tests for the Planner's design-space exploration."""

import pytest

from repro.baselines.tabla import TABLA_PARAMS
from repro.bench.figures import figure15
from repro.dfg.translate import translate
from repro.dsl.parser import parse
from repro.hw.spec import PASIC_F, PASIC_G, XILINX_VU9P
from repro.ml.benchmarks import benchmark
from repro.planner.estimator import FLAT, CostParams, CostProfile
from repro.planner.plan import DesignPoint, Planner

LINREG = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
e = s - y;
g[i] = e * x[i];
"""

MLP = """
model_input x[n];
model_output y[c];
model w1[n, h];
model w2[h, c];
gradient g1[n, h];
gradient g2[h, c];
iterator i[0:n];
iterator j[0:h];
iterator k[0:c];
hid[j] = sigmoid(sum[i](w1[i, j] * x[i]));
out[k] = sigmoid(sum[j](w2[j, k] * hid[j]));
d2[k] = (out[k] - y[k]) * out[k] * (1 - out[k]);
g2[j, k] = d2[k] * hid[j];
d1[j] = sum[k](w2[j, k] * d2[k]) * hid[j] * (1 - hid[j]);
g1[i, j] = d1[j] * x[i];
"""


def lin(n=8000):
    return translate(parse(LINREG), {"n": n}).dfg


def mlp():
    return translate(parse(MLP), {"n": 784, "h": 784, "c": 10}).dfg


def _count_profiles(monkeypatch):
    """Record the ``(graph, params)`` of every CostProfile built."""
    built = []
    init = CostProfile.__init__

    def counting_init(self, dfg, params=CostParams()):
        built.append((dfg, params))
        init(self, dfg, params)

    monkeypatch.setattr(CostProfile, "__init__", counting_init)
    return built


class TestChipDerivation:
    def test_vu9p_columns_from_bandwidth(self):
        # 9.6 GB/s / (4 B * 150 MHz) = 16 words per cycle.
        assert XILINX_VU9P.columns == 16

    def test_vu9p_row_max(self):
        assert XILINX_VU9P.row_max == 48

    def test_vu9p_max_pes_match_pasic_f(self):
        assert XILINX_VU9P.columns * XILINX_VU9P.row_max == PASIC_F.max_pes

    def test_pasic_geometry_is_frozen(self):
        assert PASIC_F.columns == 16
        assert PASIC_G.columns == 64

    def test_scaled_override(self):
        chip = XILINX_VU9P.scaled(bandwidth_bytes=19.2e9)
        assert chip.columns == 32


class TestDesignSpace:
    def test_vu9p_has_27_design_points(self):
        """Section 4.4: "in UltraScale+, the design space is limited to
        27 design points"."""
        planner = Planner(XILINX_VU9P)
        assert len(planner.design_space(lin(100), 10_000)) == 27

    def test_points_respect_row_budget(self):
        planner = Planner(XILINX_VU9P)
        for point in planner.design_space(lin(), 10_000):
            assert point.total_rows <= XILINX_VU9P.row_max

    def test_minibatch_limits_threads(self):
        planner = Planner(XILINX_VU9P)
        for point in planner.design_space(lin(), minibatch=2):
            assert point.threads <= 2

    def test_storage_limits_threads(self):
        planner = Planner(XILINX_VU9P)
        t_max = planner.max_threads(mlp(), 10_000)
        assert 1 <= t_max <= 4  # ~2.4 MB model replica per thread

    def test_labels(self):
        assert DesignPoint(4, 2, 16).label() == "T4xR2"
        assert DesignPoint(4, 2, 16).total_pes == 128


class TestPlanSelection:
    @pytest.mark.parametrize("method", ["plan", "sweep"])
    @pytest.mark.parametrize("minibatch", [0, -5])
    def test_minibatch_below_one_rejected(self, method, minibatch):
        planner = Planner(XILINX_VU9P)
        with pytest.raises(ValueError, match="minibatch must be at least 1"):
            getattr(planner, method)(lin(), minibatch)

    def test_compute_bound_mlp_uses_all_rows(self):
        plan = Planner(XILINX_VU9P).plan(mlp(), 10_000)
        assert plan.design.total_rows == XILINX_VU9P.row_max
        assert plan.compute_bound

    def test_bandwidth_bound_linreg_stays_small(self):
        plan = Planner(XILINX_VU9P).plan(lin(), 10_000)
        assert not plan.compute_bound
        assert plan.design.total_pes < XILINX_VU9P.max_pes / 2

    def test_plan_is_best_in_sweep(self):
        planner = Planner(XILINX_VU9P)
        dfg = mlp()
        plan = planner.plan(dfg, 10_000)
        sweep = planner.sweep(dfg, 10_000)
        best_time = min(p.seconds_for(10_000) for p in sweep.values())
        assert plan.seconds_for(10_000) <= best_time * 1.011

    def test_plan_memoised_on_the_graph(self):
        dfg = mlp()
        first = Planner(XILINX_VU9P).plan(dfg, 10_000)
        assert Planner(XILINX_VU9P).plan(dfg, 10_000) is first
        # A scaled chip keeps its display name but is a different input.
        scaled = XILINX_VU9P.scaled(
            bandwidth_bytes=2 * XILINX_VU9P.bandwidth_bytes
        )
        assert scaled.name == XILINX_VU9P.name
        other = Planner(scaled).plan(dfg, 10_000)
        assert other is not first
        assert other.chip == scaled

    def test_figure15_builds_one_profile_per_graph(self, monkeypatch):
        """Figure 15 plans one graph on eleven chips under one set of
        cost params: one profile serves them all."""
        built = _count_profiles(monkeypatch)
        bench = benchmark("tumor")
        # A fresh translation, so no earlier plan of the graph counts.
        monkeypatch.setitem(bench.__dict__, "_translations", {})
        figure15(names=["tumor"])
        assert built == [(bench.translate().dfg, CostParams())]

    def test_cost_params_never_share_a_profile(self, monkeypatch):
        built = _count_profiles(monkeypatch)
        dfg = mlp()
        all_params = [
            CostParams(),
            TABLA_PARAMS,
            CostParams(interconnect=FLAT),
            CostParams(mapping="ops_first"),
        ]
        for params in all_params + all_params:
            Planner(XILINX_VU9P, params).plan(dfg, 10_000)
            Planner(PASIC_G, params).sweep(dfg, 10_000)
        assert built == [(dfg, params) for params in all_params]

    def test_multithreading_helps_at_fixed_rows(self):
        """Figure 16: for a fixed rows-per-thread, more threads win."""
        planner = Planner(XILINX_VU9P)
        dfg = lin(2000)
        sweep = planner.sweep(dfg, 10_000)
        t1 = sweep["T1xR1"].seconds_for(10_000)
        t8 = sweep["T8xR1"].seconds_for(10_000)
        assert t8 < t1

    def test_pasic_g_outperforms_fpga_on_compute_bound(self):
        dfg = mlp()
        fpga = Planner(XILINX_VU9P).plan(dfg, 10_000)
        asic = Planner(PASIC_G).plan(dfg, 10_000)
        assert asic.samples_per_second > 5 * fpga.samples_per_second

    def test_pasic_f_no_gain_on_bandwidth_bound(self):
        dfg = lin()
        fpga = Planner(XILINX_VU9P).plan(dfg, 10_000)
        asic = Planner(PASIC_F).plan(dfg, 10_000)
        assert asic.samples_per_second == pytest.approx(
            fpga.samples_per_second, rel=0.25
        )


class TestTiming:
    def test_seconds_scale_with_samples(self):
        plan = Planner(XILINX_VU9P).plan(lin(), 10_000)
        assert plan.seconds_for(20_000) > 1.8 * plan.seconds_for(10_000)

    def test_zero_samples_only_model_io(self):
        plan = Planner(XILINX_VU9P).plan(lin(), 10_000)
        assert plan.seconds_for(0) == pytest.approx(plan.model_io_seconds())

    def test_model_io_positive(self):
        plan = Planner(XILINX_VU9P).plan(lin(), 10_000)
        assert plan.model_io_seconds() > 0


class TestResources:
    def test_utilization_within_chip(self):
        for dfg in (lin(), mlp()):
            plan = Planner(XILINX_VU9P).plan(dfg, 10_000)
            util = plan.resources().utilization(XILINX_VU9P)
            for key, value in util.items():
                assert 0 < value <= 1.0, (key, value)

    def test_compute_bound_uses_more_dsp(self):
        """Table 3: utilization highest for compute-bound benchmarks."""
        small = Planner(XILINX_VU9P).plan(lin(), 10_000)
        big = Planner(XILINX_VU9P).plan(mlp(), 10_000)
        assert (
            big.resources().dsp_slices > 2 * small.resources().dsp_slices
        )

    def test_bram_dominated_by_buffers(self):
        plan = Planner(XILINX_VU9P).plan(mlp(), 10_000)
        util = plan.resources().utilization(XILINX_VU9P)
        assert util["bram"] > 0.5
