"""Ablation studies: what each CoSMIC design choice buys.

The paper argues for its design decisions qualitatively (tree bus,
data-first mapping, multi-threading, prefetch buffer, hierarchical
aggregation, specialised thread pools); these experiments toggle each one
off and measure the cost on the Table 1 workloads. Registered alongside
the paper's figures in :data:`repro.bench.figures.EXPERIMENTS` consumers
via :data:`ABLATIONS`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..core.system import CosmicSystem, platform_for
from ..hw.spec import XILINX_VU9P
from ..ml.benchmarks import BENCHMARKS, Benchmark, benchmark
from ..planner.estimator import FLAT, TREE, CostParams
from ..planner.plan import Planner
from ..runtime.faults import FaultSpec, apply_faults
from ..runtime.network import NetworkConfig
from ..runtime.threads import PoolConfig
from .results import ExperimentResult, geomean


def _benches(names: Optional[Iterable[str]]) -> List[Benchmark]:
    if names is None:
        return list(BENCHMARKS)
    return [benchmark(n) for n in names]


def ablate_interconnect(
    names: Optional[Iterable[str]] = None,
) -> ExperimentResult:
    """Tree bus vs a flat shared bus, everything else equal."""
    result = ExperimentResult(
        "Ablation: interconnect",
        "Per-sample thread cycles, tree bus vs flat bus (same design point)",
        ["name", "tree_cycles", "flat_cycles", "flat_penalty_x"],
    )
    for b in _benches(names):
        dfg = b.translate().dfg
        plan = Planner(XILINX_VU9P, CostParams(interconnect=TREE)).plan(
            dfg, 10_000
        )
        flat = Planner(
            XILINX_VU9P, CostParams(interconnect=FLAT)
        ).evaluate(dfg, plan.design, 10_000)
        result.add_row(
            name=b.name,
            tree_cycles=plan.cycles_per_sample,
            flat_cycles=flat.cycles_per_sample,
            flat_penalty_x=flat.cycles_per_sample / plan.cycles_per_sample,
        )
    result.summary["geomean_flat_penalty_x"] = geomean(
        result.column("flat_penalty_x")
    )
    return result


def ablate_mapping(
    names: Optional[Iterable[str]] = None,
) -> ExperimentResult:
    """Algorithm 1's data-first mapping vs a latency-first (ops-first)
    mapping, on the same design point."""
    result = ExperimentResult(
        "Ablation: mapping order",
        "Data-first (Algorithm 1) vs ops-first mapping",
        ["name", "data_first_cycles", "ops_first_cycles", "penalty_x"],
    )
    for b in _benches(names):
        dfg = b.translate().dfg
        plan = Planner(XILINX_VU9P).plan(dfg, 10_000)
        ops_first = Planner(
            XILINX_VU9P, CostParams(mapping="ops_first")
        ).evaluate(dfg, plan.design, 10_000)
        result.add_row(
            name=b.name,
            data_first_cycles=plan.cycles_per_sample,
            ops_first_cycles=ops_first.cycles_per_sample,
            penalty_x=ops_first.cycles_per_sample / plan.cycles_per_sample,
        )
    result.summary["geomean_penalty_x"] = geomean(result.column("penalty_x"))
    return result


def ablate_multithreading(
    names: Optional[Iterable[str]] = None,
) -> ExperimentResult:
    """The planned multi-threaded design vs the best single-thread one."""
    result = ExperimentResult(
        "Ablation: multithreading",
        "Planned design vs best single-threaded design (same chip)",
        ["name", "threads", "multi_sps", "single_sps", "gain_x"],
    )
    for b in _benches(names):
        dfg = b.translate().dfg
        planner = Planner(XILINX_VU9P)
        stream = b.bytes_per_sample() / XILINX_VU9P.word_bytes
        multi = planner.plan(dfg, 10_000, b.density, stream_words=stream)
        sweep = planner.sweep(dfg, 10_000, b.density, stream_words=stream)
        single = max(
            (p for p in sweep.values() if p.design.threads == 1),
            key=lambda p: p.samples_per_second,
        )
        result.add_row(
            name=b.name,
            threads=multi.design.threads,
            multi_sps=multi.samples_per_second,
            single_sps=single.samples_per_second,
            gain_x=multi.samples_per_second / single.samples_per_second,
        )
    result.summary["geomean_gain_x"] = geomean(result.column("gain_x"))
    return result


def ablate_aggregation_hierarchy(
    names: Optional[Iterable[str]] = None, nodes: int = 16
) -> ExperimentResult:
    """Hierarchical (grouped) Sigma aggregation vs one flat master."""
    result = ExperimentResult(
        "Ablation: aggregation hierarchy",
        f"{nodes}-node iteration time, grouped vs flat aggregation",
        ["name", "grouped_ms", "flat_ms", "flat_penalty_x"],
    )
    for b in _benches(names):
        platform = platform_for(b, "fpga")
        grouped = CosmicSystem(b, platform, nodes).iteration(10_000)
        flat = CosmicSystem(b, platform, nodes, groups=1).iteration(10_000)
        result.add_row(
            name=b.name,
            grouped_ms=1e3 * grouped.total_s,
            flat_ms=1e3 * flat.total_s,
            flat_penalty_x=flat.total_s / grouped.total_s,
        )
    result.summary["geomean_flat_penalty_x"] = geomean(
        result.column("flat_penalty_x")
    )
    return result


def ablate_system_software(
    names: Optional[Iterable[str]] = None, nodes: int = 8
) -> ExperimentResult:
    """Lean pools/epoll vs a generic thread-per-connection runtime.

    The generic variant pays OS thread wake-ups instead of epoll event
    dispatch, spawns a thread per connection (higher per-message cost),
    and copies through unpooled buffers (lower copy/aggregate rates) —
    the overheads Section 3 is designed to avoid.
    """
    result = ExperimentResult(
        "Ablation: system software",
        f"{nodes}-node iteration, specialised vs generic runtime",
        ["name", "lean_ms", "generic_ms", "generic_penalty_x"],
    )
    generic_spec = dict(
        network=NetworkConfig(per_message_overhead_s=2e-3,
                              per_chunk_overhead_s=30e-6),
        pools=PoolConfig(
            networking_threads=1,
            aggregation_threads=1,
            copy_bytes_per_s=2.5e9,
            aggregate_bytes_per_s=1.5e9,
            wakeup_overhead_s=60e-6,  # OS context switch per event
        ),
        management_overhead_s=4e-3,  # generic scheduler involvement
    )
    for b in _benches(names):
        platform = platform_for(b, "fpga")
        lean = CosmicSystem(b, platform, nodes).iteration(10_000)
        generic = CosmicSystem(
            b, platform, nodes, spec_overrides=generic_spec
        ).iteration(10_000)
        result.add_row(
            name=b.name,
            lean_ms=1e3 * lean.total_s,
            generic_ms=1e3 * generic.total_s,
            generic_penalty_x=generic.total_s / lean.total_s,
        )
    result.summary["geomean_generic_penalty_x"] = geomean(
        result.column("generic_penalty_x")
    )
    return result


def ablate_straggler(
    names: Optional[Iterable[str]] = None,
    nodes: int = 8,
    factors: Iterable[float] = (1.0, 2.0, 4.0, 8.0),
) -> ExperimentResult:
    """Cost of one straggling node under synchronous aggregation."""
    result = ExperimentResult(
        "Ablation: straggler",
        f"{nodes}-node iteration slowdown with one slow node",
        ["name"] + [f"x{f:g}" for f in factors],
    )
    for b in _benches(names):
        platform = platform_for(b, "fpga")
        system = CosmicSystem(b, platform, nodes)
        base = None
        row = {"name": b.name}
        for factor in factors:
            sim = apply_faults(
                system.cluster(),
                FaultSpec.single_straggler(nodes - 1, factor)
                if factor > 1
                else None,
            )
            total = sim.iteration(10_000 * nodes).total_s
            base = base or total
            row[f"x{factor:g}"] = total / base
        result.add_row(**row)
    last = f"x{list(factors)[-1]:g}"
    result.summary[f"geomean_slowdown_{last}"] = geomean(result.column(last))
    return result


def ablate_sync_vs_async(
    names: Optional[Iterable[str]] = None,
    nodes: int = 8,
    straggler_factor: float = 4.0,
) -> ExperimentResult:
    """Synchronous barrier vs asynchronous (stale-gradient) aggregation
    under one straggling node — the barrier's price in wall-clock."""
    from ..runtime.async_sgd import async_batch_seconds, sync_batch_seconds

    result = ExperimentResult(
        "Ablation: sync vs async",
        f"{nodes}-node batch time with one {straggler_factor:g}x straggler",
        ["name", "sync_ms", "async_ms", "async_gain_x"],
    )
    faults = FaultSpec.single_straggler(nodes - 1, straggler_factor)
    for b in _benches(names):
        platform = platform_for(b, "fpga")
        compute = {i: platform.compute_seconds(10_000) for i in range(nodes)}
        sync = sync_batch_seconds(compute, b.model_bytes(), faults=faults)
        asyn = async_batch_seconds(compute, b.model_bytes(), faults=faults)
        result.add_row(
            name=b.name,
            sync_ms=1e3 * sync,
            async_ms=1e3 * asyn,
            async_gain_x=sync / asyn,
        )
    result.summary["geomean_async_gain_x"] = geomean(
        result.column("async_gain_x")
    )
    return result


def project_scaling(
    names: Optional[Iterable[str]] = None,
    node_counts: Iterable[int] = (4, 16, 64, 256),
) -> ExperimentResult:
    """Beyond the paper's 16 nodes: where does scaling saturate?

    The paper stops at 16 nodes with CoSMIC at 2.7x; this projection runs
    the same cluster model out to hundreds of nodes, where the master
    Sigma's aggregation and broadcast eventually dominate.
    """
    counts = list(node_counts)
    result = ExperimentResult(
        "Projection: scaling beyond 16 nodes",
        "Epoch speedup over 4 nodes as the cluster grows",
        ["name"] + [f"n{c}" for c in counts],
    )
    for b in _benches(names):
        platform = platform_for(b, "fpga")
        base = None
        row = {"name": b.name}
        for count in counts:
            epoch = CosmicSystem(b, platform, count).epoch_seconds()
            base = base or epoch
            row[f"n{count}"] = base / epoch
        result.add_row(**row)
    last = f"n{counts[-1]}"
    result.summary[f"geomean_speedup_{last}"] = geomean(result.column(last))
    return result


#: Ablation id -> harness function.
ABLATIONS = {
    "interconnect": ablate_interconnect,
    "mapping": ablate_mapping,
    "multithreading": ablate_multithreading,
    "aggregation_hierarchy": ablate_aggregation_hierarchy,
    "system_software": ablate_system_software,
    "straggler": ablate_straggler,
    "sync_vs_async": ablate_sync_vs_async,
    "scaling_projection": project_scaling,
}
