"""Tests for the GPU roofline and the TABLA comparator."""

import pytest

from repro.baselines.gpu import GpuModel
from repro.baselines.tabla import TablaModel, cosmic_vs_tabla_speedup
from repro.hw.spec import XILINX_VU9P
from repro.ml.benchmarks import benchmark
from repro.planner.plan import Planner


class TestGpuModel:
    def test_residency_by_dataset_size(self):
        gpu = GpuModel()
        assert gpu.dataset_resident(benchmark("mnist"))  # 0.4 GB
        assert not gpu.dataset_resident(benchmark("cancer2"))  # 20 GB

    def test_streaming_workload_pcie_bound(self):
        """Non-resident datasets ingest over PCIe — the reason the GPU's
        edge over the FPGA is modest outside backprop (Figure 10)."""
        gpu = GpuModel()
        b = benchmark("stock")
        t = gpu.compute_seconds(b, 10_000)
        pcie_floor = 10_000 * b.bytes_per_sample() / gpu.spec.pcie_bandwidth_bytes
        assert t == pytest.approx(pcie_floor, rel=0.01)

    def test_gemm_workload_flops_bound(self):
        gpu = GpuModel()
        b = benchmark("mnist")
        t = gpu.compute_seconds(b, 10_000)
        pcie_floor = 10_000 * b.bytes_per_sample() / gpu.spec.pcie_bandwidth_bytes
        assert t > pcie_floor  # arithmetic dominates; and it's resident

    def test_mnist_gpu_vs_fpga_near_paper(self):
        """Figure 10 reports 20.3x for mnist."""
        b = benchmark("mnist")
        fpga = Planner(XILINX_VU9P).plan(b.translate().dfg, 10_000)
        fpga_t = fpga.seconds_for(10_000)
        gpu_t = GpuModel().compute_seconds(b, 10_000)
        assert 10 < fpga_t / gpu_t < 40

    def test_throughput_positive(self):
        assert GpuModel().samples_per_second(benchmark("tumor")) > 0

    def test_node_power(self):
        assert GpuModel().node_power_watts() == pytest.approx(80 + 235)


class TestTabla:
    def test_single_threaded_only(self):
        b = benchmark("stock")
        plan = TablaModel().plan(b.translate().dfg)
        assert plan.design.threads == 1

    def test_pinned_pes_respected(self):
        b = benchmark("stock")
        plan = TablaModel().plan(b.translate().dfg, pes=128)
        assert plan.design.total_pes <= 128

    def test_dse_never_worse_than_full_chip(self):
        b = benchmark("tumor")
        dfg = b.translate().dfg
        model = TablaModel()
        best = model.plan(dfg)
        full = model.plan(dfg, pes=XILINX_VU9P.row_max * XILINX_VU9P.columns)
        assert best.seconds_for(10_000) <= full.seconds_for(10_000) * 1.001

    def test_no_stream_overlap(self):
        plan = TablaModel().plan(benchmark("stock").translate().dfg)
        assert not plan.params.overlap_stream

    @pytest.mark.parametrize(
        "name", ["mnist", "stock", "tumor", "face", "movielens"]
    )
    def test_cosmic_always_faster(self, name):
        """Figure 17: CoSMIC wins on every benchmark."""
        b = benchmark(name)
        speedup = cosmic_vs_tabla_speedup(b.translate().dfg, density=b.density)
        assert speedup > 1.0

    def test_average_speedup_in_paper_ballpark(self):
        """Paper reports 3.9x average; our structural model lands in the
        same regime (>2x, <8x)."""
        import math

        speedups = [
            cosmic_vs_tabla_speedup(
                benchmark(n).translate().dfg, density=benchmark(n).density
            )
            for n in ("mnist", "acoustic", "stock", "tumor", "face")
        ]
        geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        assert 2.0 < geomean < 8.0
