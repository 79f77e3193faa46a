"""Scale-out system assembly: benchmark x platform x cluster.

A :class:`NodePlatform` answers "how long does one node's accelerator take
for k samples, and what does the node draw"; :class:`CosmicSystem` puts
``nodes`` of them behind the CoSMIC system software (the event-driven
cluster simulation) and reports iteration/epoch times — the quantity every
figure in Section 7 is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..baselines.gpu import GpuModel
from ..hw.spec import ChipSpec, PASIC_F, PASIC_G, XILINX_VU9P
from ..ml.benchmarks import Benchmark
from ..planner.plan import Planner
from ..runtime.cluster import ClusterSimulator, ClusterSpec, IterationTiming

#: Host CPU TDP per node (Table 2's Xeon E3).
HOST_TDP_WATTS = 80.0

#: Measured (WattsUp-style) wall power of the host while the accelerator
#: computes. With an FPGA/P-ASIC the CPU mostly waits on aggregation
#: events (~half TDP); feeding a GPU keeps it considerably busier.
HOST_ACTIVE_WATTS = 40.0
GPU_HOST_ACTIVE_WATTS = 55.0

#: Measured board draw of the accelerators under load. The VU9P's 42 W is
#: a worst-case TDP; the generated designs clock 150 MHz and draw ~25 W.
MEASURED_BOARD_WATTS = {
    "UltraScale+ VU9P": 25.0,
    "P-ASIC-F": 11.0,
    "P-ASIC-G": 37.0,
    "Tesla K40c": 245.0,
}


@dataclass
class NodePlatform:
    """One node's accelerator: timing model + power."""

    name: str
    compute_seconds: Callable[[int], float]  # samples -> seconds
    accelerator_tdp_watts: float

    def node_power_watts(self) -> float:
        """Wall power of one node under training load (Figure 11)."""
        board = MEASURED_BOARD_WATTS.get(self.name, self.accelerator_tdp_watts)
        host = (
            GPU_HOST_ACTIVE_WATTS
            if self.name == "Tesla K40c"
            else HOST_ACTIVE_WATTS
        )
        return host + board


#: PCIe 3.0 x16 effective host-to-board bandwidth, and the accelerator
#: board's local DRAM capacity. A training set that fits on the board is
#: staged once and streams at the chip's full off-chip bandwidth; larger
#: sets re-stream from the host every epoch, capped by PCIe — the reason
#: P-ASIC-G's huge raw bandwidth yields only modest *system* gains on the
#: multi-GB workloads (Figure 9 vs Figure 10).
PCIE_BANDWIDTH_BYTES = 12e9
BOARD_MEMORY_BYTES = 16e9
BOARD_RESIDENT_FRACTION = 0.8


def accelerator_platform(
    bench: Benchmark,
    chip: ChipSpec = XILINX_VU9P,
    minibatch: int = 10_000,
    ingest_cap: bool = True,
) -> NodePlatform:
    """FPGA or P-ASIC platform via the Planner's chosen design.

    ``ingest_cap=False`` evaluates the bare accelerator at its own
    off-chip bandwidth (the Figure 10 computation-only comparison);
    the default applies the PCIe ceiling for non-resident datasets
    (the Figure 9 system-level view).
    """
    resident = (
        bench.data_gb * 1e9 <= BOARD_MEMORY_BYTES * BOARD_RESIDENT_FRACTION
    )
    if (
        ingest_cap
        and not resident
        and chip.bandwidth_bytes > PCIE_BANDWIDTH_BYTES
    ):
        chip = chip.scaled(bandwidth_bytes=PCIE_BANDWIDTH_BYTES)
    plan = Planner(chip).plan(
        bench.translate().dfg,
        minibatch,
        bench.density,
        stream_words=bench.bytes_per_sample() / chip.word_bytes,
    )
    return NodePlatform(
        name=chip.name,
        compute_seconds=plan.seconds_for,
        accelerator_tdp_watts=chip.tdp_watts,
    )


def gpu_platform(bench: Benchmark, model: Optional[GpuModel] = None) -> NodePlatform:
    """GPU platform (the CoSMIC runtime extended for GPUs, Section 7.1)."""
    model = model or GpuModel()
    return NodePlatform(
        name=model.spec.name,
        compute_seconds=lambda samples: model.compute_seconds(bench, samples),
        accelerator_tdp_watts=model.spec.tdp_watts,
    )


def platform_for(
    bench: Benchmark,
    kind: str,
    minibatch: int = 10_000,
    ingest_cap: bool = True,
) -> NodePlatform:
    """Shorthand: ``"fpga"``, ``"pasic-f"``, ``"pasic-g"``, or ``"gpu"``."""
    chips = {"fpga": XILINX_VU9P, "pasic-f": PASIC_F, "pasic-g": PASIC_G}
    if kind in chips:
        return accelerator_platform(bench, chips[kind], minibatch, ingest_cap)
    if kind == "gpu":
        return gpu_platform(bench)
    raise ValueError(f"unknown platform {kind!r}")


@dataclass
class CosmicSystem:
    """``nodes`` accelerator-augmented machines under the CoSMIC runtime.

    One instance binds a (benchmark, platform) pair; every timing method
    accepts a ``nodes`` override so figure sweeps construct the system
    once and reuse it across node counts and mini-batch points instead of
    re-deriving the platform per sweep point.
    """

    bench: Benchmark
    platform: NodePlatform
    nodes: int
    groups: Optional[int] = None
    spec_overrides: dict = field(default_factory=dict)

    def cluster(self, nodes: Optional[int] = None) -> ClusterSimulator:
        spec = ClusterSpec(
            nodes=nodes or self.nodes,
            groups=self.groups,
            **self.spec_overrides,
        )
        return ClusterSimulator(
            spec,
            lambda node_id, samples: self.platform.compute_seconds(samples),
            update_bytes=self.bench.model_bytes(),
        )

    def iteration(
        self, minibatch_per_node: int = 10_000, nodes: Optional[int] = None
    ) -> IterationTiming:
        nodes = nodes or self.nodes
        return self.cluster(nodes).iteration(minibatch_per_node * nodes)

    def epoch_seconds(
        self, minibatch_per_node: int = 10_000, nodes: Optional[int] = None
    ) -> float:
        """One pass over the benchmark's paper-scale training set."""
        return self.cluster(nodes).epoch_seconds(
            self.bench.input_vectors, minibatch_per_node
        )

    def system_power_watts(self, nodes: Optional[int] = None) -> float:
        return (nodes or self.nodes) * self.platform.node_power_watts()
