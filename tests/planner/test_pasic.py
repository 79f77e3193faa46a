"""P-ASIC budget-planning tests, pinned to Table 2's design points."""

import pytest

from repro.ml.benchmarks import benchmark
from repro.planner.pasic import (
    DEFAULT_BUFFER_BYTES,
    PasicBudget,
    area_mm2,
    buffer_bytes_for,
    plan_pasic,
    power_w,
)


class TestCalibration:
    def test_pasic_f_point(self):
        """Table 2: 768 PEs at 29 mm^2 and 11 W."""
        assert area_mm2(768) == pytest.approx(29.0, abs=0.01)
        assert power_w(768) == pytest.approx(11.0, abs=0.01)

    def test_pasic_g_point(self):
        """Table 2: 2880 PEs at 105 mm^2 and 37 W."""
        assert area_mm2(2880) == pytest.approx(105.0, abs=0.01)
        assert power_w(2880) == pytest.approx(37.0, abs=0.01)

    def test_bigger_buffers_cost_area(self):
        assert area_mm2(768, buffer_bytes=8192) > area_mm2(768)


class TestBudgetSolve:
    def test_recovers_pasic_f_from_its_budget(self):
        plan = plan_pasic(PasicBudget(area_mm2=29.0, power_w=11.0))
        assert plan.pe_count == pytest.approx(768, abs=16)

    def test_recovers_pasic_g_from_its_budget(self):
        plan = plan_pasic(
            PasicBudget(area_mm2=105.0, power_w=37.0, columns=64)
        )
        assert plan.pe_count == pytest.approx(2880, abs=64)

    def test_area_limited(self):
        plan = plan_pasic(PasicBudget(area_mm2=30.0, power_w=100.0))
        assert plan.limited_by == "area"
        assert plan.area_mm2 <= 30.0

    def test_power_limited(self):
        plan = plan_pasic(PasicBudget(area_mm2=500.0, power_w=12.0))
        assert plan.limited_by == "power"
        assert plan.power_w <= 12.0

    def test_row_granularity(self):
        plan = plan_pasic(PasicBudget(area_mm2=40.0, power_w=20.0, columns=16))
        assert plan.pe_count % 16 == 0

    def test_impossible_budgets_rejected(self):
        with pytest.raises(ValueError):
            PasicBudget(area_mm2=1.0, power_w=11.0)
        with pytest.raises(ValueError):
            PasicBudget(area_mm2=29.0, power_w=0.5)


class TestBufferSizing:
    def test_default_for_small_benchmarks(self):
        dfgs = [benchmark("face").translate().dfg]
        assert buffer_bytes_for(dfgs) >= DEFAULT_BUFFER_BYTES

    def test_big_model_grows_buffers(self):
        small = buffer_bytes_for([benchmark("face").translate().dfg])
        big = buffer_bytes_for([benchmark("mnist").translate().dfg])
        assert big > small

    def test_power_of_two(self):
        size = buffer_bytes_for([benchmark("mnist").translate().dfg])
        assert size & (size - 1) == 0


class TestChipMaterialisation:
    def test_chip_is_usable_by_the_stack(self):
        from repro.planner.plan import Planner

        budget = PasicBudget(area_mm2=50.0, power_w=25.0)
        plan = plan_pasic(budget)
        chip = plan.chip(budget, name="demo-asic")
        assert chip.max_pes == plan.pe_count
        accel = Planner(chip).plan(
            benchmark("stock").translate().dfg, 10_000
        )
        assert accel.samples_per_second > 0

    def test_bigger_budget_more_throughput_on_compute_bound(self):
        from repro.planner.plan import Planner

        dfg = benchmark("mnist").translate().dfg
        small_b = PasicBudget(area_mm2=35.0, power_w=40.0)
        large_b = PasicBudget(area_mm2=105.0, power_w=40.0)
        small = plan_pasic(small_b).chip(small_b)
        large = plan_pasic(large_b).chip(large_b)
        t_small = Planner(small).plan(dfg, 10_000).samples_per_second
        t_large = Planner(large).plan(dfg, 10_000).samples_per_second
        assert t_large > t_small
