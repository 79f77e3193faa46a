"""Tests for CosmicSystem: platform x cluster assembly."""

import pytest

from repro.core.system import CosmicSystem, platform_for
from repro.ml.benchmarks import benchmark


class TestPlatforms:
    def test_four_kinds(self):
        b = benchmark("stock")
        for kind in ("fpga", "pasic-f", "pasic-g", "gpu"):
            platform = platform_for(b, kind)
            assert platform.compute_seconds(1000) > 0
            assert platform.node_power_watts() > 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            platform_for(benchmark("stock"), "tpu")

    def test_gpu_node_hot(self):
        b = benchmark("stock")
        gpu = platform_for(b, "gpu").node_power_watts()
        fpga = platform_for(b, "fpga").node_power_watts()
        assert gpu > 3 * fpga

    def test_pasic_f_matches_fpga_on_streaming(self):
        """Same PEs + same bandwidth, only frequency differs; streaming
        workloads gain nothing (Figure 10's flat P-ASIC-F bars)."""
        b = benchmark("texture")
        fpga = platform_for(b, "fpga").compute_seconds(10_000)
        asic = platform_for(b, "pasic-f").compute_seconds(10_000)
        assert asic == pytest.approx(fpga, rel=0.3)


class TestSystem:
    def test_epoch_scales_down_with_nodes(self):
        b = benchmark("stock")
        platform = platform_for(b, "fpga")
        four = CosmicSystem(b, platform, 4).epoch_seconds()
        sixteen = CosmicSystem(b, platform, 16).epoch_seconds()
        assert sixteen < four

    def test_iteration_breakdown(self):
        b = benchmark("mnist")
        system = CosmicSystem(b, platform_for(b, "fpga"), 3)
        timing = system.iteration(10_000)
        assert 0 < timing.compute_fraction < 1
        assert timing.total_s > timing.compute_s

    def test_system_power(self):
        b = benchmark("stock")
        system = CosmicSystem(b, platform_for(b, "fpga"), 3)
        assert system.system_power_watts() == pytest.approx(
            3 * platform_for(b, "fpga").node_power_watts()
        )

    def test_groups_forwarded(self):
        b = benchmark("stock")
        system = CosmicSystem(b, platform_for(b, "fpga"), 16, groups=4)
        assert system.cluster().topology.groups == 4
