"""Experiment harness: one function per table/figure of Section 7.

Every function regenerates the corresponding result from the models —
same workloads, same sweeps, same normalisations — and returns an
:class:`repro.bench.results.ExperimentResult` whose summary rows carry the
paper-reported values for side-by-side comparison. ``benchmarks/`` wraps
these in pytest-benchmark entry points; ``EXPERIMENTS.md`` records the
outcomes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..baselines.spark import SparkModel
from ..baselines.tabla import cosmic_vs_tabla_speedup
from ..core.system import CosmicSystem, platform_for
from ..hw.spec import XILINX_VU9P
from ..ml.benchmarks import BENCHMARKS, Benchmark, benchmark
from ..planner.plan import Planner
from .results import ExperimentResult, geomean

DEFAULT_NODES = (4, 8, 16)
PLATFORMS = ("fpga", "pasic-f", "pasic-g", "gpu")


def _benches(names: Optional[Iterable[str]] = None) -> List[Benchmark]:
    if names is None:
        return list(BENCHMARKS)
    return [benchmark(n) for n in names]


def _per_bench(names: Optional[Iterable[str]], point_fn, *args) -> List:
    """``point_fn(bench, *args)`` for every benchmark, in benchmark order.

    A plain loop on purpose: the whole reproduction runs in about a
    second on one core, and a thread pool over these points measured
    slower end to end than this loop (``docs/performance.md``)."""
    return [point_fn(b, *args) for b in _benches(names)]


def _system(bench: Benchmark, kind: str, nodes: int,
            ingest_cap: bool = True) -> CosmicSystem:
    """One reusable system per (bench, platform): the platform (and the
    Planner run behind it) is derived once; node counts and mini-batch
    sizes vary per call afterwards."""
    return CosmicSystem(
        bench, platform_for(bench, kind, ingest_cap=ingest_cap), nodes
    )


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table1() -> ExperimentResult:
    """Table 1: benchmarks, model sizes, dataset shapes, DSL LoC."""
    result = ExperimentResult(
        "Table 1",
        "Benchmarks, algorithms, application domains, and datasets",
        [
            "name", "algorithm", "domain", "features", "topology",
            "model_kb", "loc_paper", "loc_ours", "vectors", "data_gb",
        ],
    )
    for b in BENCHMARKS:
        result.add_row(
            name=b.name,
            algorithm=b.algorithm,
            domain=b.domain,
            features=b.features,
            topology=b.topology,
            model_kb=round(b.model_bytes() / 1024),
            loc_paper=b.loc,
            loc_ours=b.translate().program.lines_of_code,
            vectors=b.input_vectors,
            data_gb=b.data_gb,
        )
    return result


def table2() -> ExperimentResult:
    """Table 2: the evaluated platforms (model inputs, echoed for the
    record alongside the derived geometry)."""
    from ..baselines.calibration import TESLA_K40C, XEON_E3
    from ..hw.spec import PASIC_F, PASIC_G

    result = ExperimentResult(
        "Table 2",
        "CPU, GPU, FPGA, and P-ASICs",
        [
            "platform", "compute_units", "frequency_mhz", "bandwidth_gbps",
            "power_w", "technology_nm", "columns", "rows",
        ],
    )
    result.add_row(
        platform=XEON_E3.name, compute_units=XEON_E3.cores,
        frequency_mhz=XEON_E3.frequency_hz / 1e6,
        bandwidth_gbps=XEON_E3.memory_bandwidth_bytes * 8 / 1e9,
        power_w=XEON_E3.tdp_watts, technology_nm=14, columns="-", rows="-",
    )
    result.add_row(
        platform=TESLA_K40C.name, compute_units=TESLA_K40C.cores,
        frequency_mhz=TESLA_K40C.frequency_hz / 1e6,
        bandwidth_gbps=TESLA_K40C.memory_bandwidth_bytes * 8 / 1e9,
        power_w=TESLA_K40C.tdp_watts, technology_nm=28,
        columns="-", rows="-",
    )
    for chip, nm in ((XILINX_VU9P, 16), (PASIC_F, 45), (PASIC_G, 45)):
        result.add_row(
            platform=chip.name, compute_units=chip.max_pes,
            frequency_mhz=chip.frequency_hz / 1e6,
            bandwidth_gbps=chip.bandwidth_bytes * 8 / 1e9,
            power_w=chip.tdp_watts, technology_nm=nm,
            columns=chip.columns, rows=chip.row_max,
        )
    return result


def table3() -> ExperimentResult:
    """Table 3: chosen thread counts and FPGA resource utilisation."""
    result = ExperimentResult(
        "Table 3",
        "Number of threads and FPGA resource utilization",
        [
            "name", "threads", "rows_per_thread", "luts_pct", "ffs_pct",
            "bram_pct", "dsp_pct",
        ],
        paper={"mnist_threads": 2, "stock_threads": 8},
    )
    for b in BENCHMARKS:
        plan = Planner(XILINX_VU9P).plan(b.translate().dfg, 10_000, b.density)
        util = plan.resources().utilization(XILINX_VU9P)
        result.add_row(
            name=b.name,
            threads=plan.design.threads,
            rows_per_thread=plan.design.rows_per_thread,
            luts_pct=100 * util["luts"],
            ffs_pct=100 * util["flip_flops"],
            bram_pct=100 * util["bram"],
            dsp_pct=100 * util["dsp"],
        )
    return result


# ---------------------------------------------------------------------------
# Figures 7 & 8: CoSMIC vs Spark at scale
# ---------------------------------------------------------------------------


def _epoch_point(b: Benchmark, nodes: Sequence[int]):
    spark_b = {n: SparkModel(n).epoch_seconds(b) for n in nodes}
    system = _system(b, "fpga", nodes[0])
    cosmic_b = {n: system.epoch_seconds(nodes=n) for n in nodes}
    return b.name, spark_b, cosmic_b


def _epoch_grid(
    names: Optional[Iterable[str]], nodes: Sequence[int]
) -> Tuple[Dict[str, Dict[int, float]], Dict[str, Dict[int, float]]]:
    spark: Dict[str, Dict[int, float]] = {}
    cosmic: Dict[str, Dict[int, float]] = {}
    for name, spark_b, cosmic_b in _per_bench(names, _epoch_point, nodes):
        spark[name] = spark_b
        cosmic[name] = cosmic_b
    return spark, cosmic


def figure7(
    names: Optional[Iterable[str]] = None,
    nodes: Sequence[int] = DEFAULT_NODES,
) -> ExperimentResult:
    """Figure 7: speedup over the 4-node Spark baseline."""
    spark, cosmic = _epoch_grid(names, nodes)
    result = ExperimentResult(
        "Figure 7",
        "Speedup over 4-CPU-Spark as nodes scale",
        ["name"]
        + [f"spark{n}x" for n in nodes]
        + [f"cosmic{n}x" for n in nodes],
        paper={
            "geomean_cosmic4x": 12.6,
            "geomean_cosmic8x": 23.1,
            "geomean_cosmic16x": 33.8,
            "geomean_spark16x": 1.8,
        },
    )
    base_nodes = nodes[0]
    for name in spark:
        base = spark[name][base_nodes]
        result.add_row(
            name=name,
            **{f"spark{n}x": base / spark[name][n] for n in nodes},
            **{f"cosmic{n}x": base / cosmic[name][n] for n in nodes},
        )
    for n in nodes:
        result.summary[f"geomean_cosmic{n}x"] = geomean(
            result.column(f"cosmic{n}x")
        )
    result.summary[f"geomean_spark{nodes[-1]}x"] = geomean(
        result.column(f"spark{nodes[-1]}x")
    )
    return result


def figure8(
    names: Optional[Iterable[str]] = None,
    nodes: Sequence[int] = DEFAULT_NODES,
) -> ExperimentResult:
    """Figure 8: each system's scalability against its own 4-node setup."""
    spark, cosmic = _epoch_grid(names, nodes)
    result = ExperimentResult(
        "Figure 8",
        "Self-relative scalability, 4 -> 8 -> 16 nodes",
        ["name"]
        + [f"cosmic{n}x" for n in nodes[1:]]
        + [f"spark{n}x" for n in nodes[1:]],
        paper={
            "geomean_cosmic8x": 1.8,
            "geomean_cosmic16x": 2.7,
            "geomean_spark8x": 1.3,
            "geomean_spark16x": 1.8,
        },
    )
    base = nodes[0]
    for name in spark:
        result.add_row(
            name=name,
            **{
                f"cosmic{n}x": cosmic[name][base] / cosmic[name][n]
                for n in nodes[1:]
            },
            **{
                f"spark{n}x": spark[name][base] / spark[name][n]
                for n in nodes[1:]
            },
        )
    for n in nodes[1:]:
        result.summary[f"geomean_cosmic{n}x"] = geomean(
            result.column(f"cosmic{n}x")
        )
        result.summary[f"geomean_spark{n}x"] = geomean(
            result.column(f"spark{n}x")
        )
    return result


# ---------------------------------------------------------------------------
# Figures 9-11: acceleration platforms
# ---------------------------------------------------------------------------


def _figure9_point(b: Benchmark, nodes: int):
    epochs = {
        kind: _system(b, kind, nodes).epoch_seconds()
        for kind in PLATFORMS
    }
    return {
        "name": b.name,
        "pasic_f_x": epochs["fpga"] / epochs["pasic-f"],
        "pasic_g_x": epochs["fpga"] / epochs["pasic-g"],
        "gpu_x": epochs["fpga"] / epochs["gpu"],
    }


def figure9(
    names: Optional[Iterable[str]] = None, nodes: int = 3
) -> ExperimentResult:
    """Figure 9: system-wide speedup over the 3-FPGA-CoSMIC system."""
    result = ExperimentResult(
        "Figure 9",
        "System-wide speedup over 3-FPGA-CoSMIC",
        ["name", "pasic_f_x", "pasic_g_x", "gpu_x"],
        paper={
            "geomean_pasic_f_x": 1.2,
            "geomean_pasic_g_x": 2.3,
            "geomean_gpu_x": 1.5,
        },
    )
    for row in _per_bench(names, _figure9_point, nodes):
        result.add_row(**row)
    for col in ("pasic_f_x", "pasic_g_x", "gpu_x"):
        result.summary[f"geomean_{col}"] = geomean(result.column(col))
    return result


def _figure10_point(b: Benchmark, samples: int):
    # Computation-only: each chip streams from its own off-chip memory at
    # full rate (no host/PCIe ceiling — that belongs to the system-level
    # Figure 9).
    times = {
        kind: platform_for(b, kind, ingest_cap=False).compute_seconds(
            samples
        )
        for kind in PLATFORMS
    }
    return {
        "name": b.name,
        "pasic_f_x": times["fpga"] / times["pasic-f"],
        "pasic_g_x": times["fpga"] / times["pasic-g"],
        "gpu_x": times["fpga"] / times["gpu"],
    }


def figure10(
    names: Optional[Iterable[str]] = None, samples: int = 10_000
) -> ExperimentResult:
    """Figure 10: computation-only speedup over the FPGA."""
    result = ExperimentResult(
        "Figure 10",
        "Computation speedup over FPGA (no system software)",
        ["name", "pasic_f_x", "pasic_g_x", "gpu_x"],
        paper={
            "geomean_pasic_f_x": 1.5,
            "geomean_pasic_g_x": 11.4,
            "geomean_gpu_x": 1.9,
            "mnist_gpu_x": 20.3,
            "acoustic_gpu_x": 12.8,
        },
    )
    for row in _per_bench(names, _figure10_point, samples):
        result.add_row(**row)
        if row["name"] in ("mnist", "acoustic"):
            result.summary[f"{row['name']}_gpu_x"] = row["gpu_x"]
    for col in ("pasic_f_x", "pasic_g_x", "gpu_x"):
        result.summary[f"geomean_{col}"] = geomean(result.column(col))
    return result


def _figure11_point(b: Benchmark, nodes: int):
    perf_per_watt = {}
    for kind in PLATFORMS:
        system = _system(b, kind, nodes)
        epoch = system.epoch_seconds()
        perf_per_watt[kind] = 1.0 / (epoch * system.system_power_watts())
    gpu = perf_per_watt["gpu"]
    return {
        "name": b.name,
        "fpga_x": perf_per_watt["fpga"] / gpu,
        "pasic_f_x": perf_per_watt["pasic-f"] / gpu,
        "pasic_g_x": perf_per_watt["pasic-g"] / gpu,
    }


def figure11(
    names: Optional[Iterable[str]] = None, nodes: int = 3
) -> ExperimentResult:
    """Figure 11: Performance-per-Watt relative to the 3-GPU system."""
    result = ExperimentResult(
        "Figure 11",
        "Performance-per-Watt vs 3-GPU-CoSMIC",
        ["name", "fpga_x", "pasic_f_x", "pasic_g_x"],
        paper={
            "geomean_fpga_x": 4.2,
            "geomean_pasic_f_x": 6.9,
            "geomean_pasic_g_x": 8.2,
        },
    )
    for row in _per_bench(names, _figure11_point, nodes):
        result.add_row(**row)
    for col in ("fpga_x", "pasic_f_x", "pasic_g_x"):
        result.summary[f"geomean_{col}"] = geomean(result.column(col))
    return result


# ---------------------------------------------------------------------------
# Figures 12-14: mini-batch sensitivity and speedup sources
# ---------------------------------------------------------------------------


def _figure12_point(b: Benchmark, minibatches: Sequence[int], nodes: int):
    spark = SparkModel(nodes)
    base = spark.epoch_seconds(b, 10_000)
    system = _system(b, "fpga", nodes)
    row = {"name": b.name}
    for mb in minibatches:
        row[f"spark_b{mb}"] = base / spark.epoch_seconds(b, mb)
        row[f"cosmic_b{mb}"] = base / system.epoch_seconds(mb)
    return row


def figure12(
    names: Optional[Iterable[str]] = None,
    minibatches: Sequence[int] = (500, 1_000, 10_000, 100_000),
    nodes: int = 3,
) -> ExperimentResult:
    """Figure 12: CoSMIC and Spark vs mini-batch size; the baseline is the
    3-node Spark system at b = 10,000."""
    result = ExperimentResult(
        "Figure 12",
        "Performance vs mini-batch size (baseline: 3-node Spark, b=10k)",
        ["name"]
        + [f"spark_b{b}" for b in minibatches]
        + [f"cosmic_b{b}" for b in minibatches],
        paper={"geomean_gap_b500": 16.8, "geomean_gap_b100000": 9.1},
    )
    for row in _per_bench(names, _figure12_point, minibatches, nodes):
        result.add_row(**row)
    for mb in (minibatches[0], minibatches[-1]):
        gaps = [
            float(r[f"cosmic_b{mb}"]) / float(r[f"spark_b{mb}"])
            for r in result.rows
        ]
        result.summary[f"geomean_gap_b{mb}"] = geomean(gaps)
    return result


def _figure13_point(b: Benchmark, minibatches: Sequence[int], nodes: int):
    system = _system(b, "fpga", nodes)
    row = {"name": b.name}
    for mb in minibatches:
        timing = system.iteration(mb)
        row[f"compute_frac_b{mb}"] = timing.compute_fraction
    return row


def figure13(
    names: Optional[Iterable[str]] = None,
    minibatches: Sequence[int] = (500, 1_000, 10_000, 100_000),
    nodes: int = 3,
) -> ExperimentResult:
    """Figure 13: computation vs communication fraction of runtime."""
    result = ExperimentResult(
        "Figure 13",
        "Fraction of 3-FPGA-CoSMIC runtime spent computing",
        ["name"] + [f"compute_frac_b{b}" for b in minibatches],
        paper={"mean_frac_b500": 0.12, "mean_frac_b100000": 0.95},
    )
    for row in _per_bench(names, _figure13_point, minibatches, nodes):
        result.add_row(**row)
    for mb in (minibatches[0], minibatches[-1]):
        col = result.column(f"compute_frac_b{mb}")
        result.summary[f"mean_frac_b{mb}"] = sum(col) / len(col)
    return result


def _figure14_point(b: Benchmark, nodes: int):
    spark = SparkModel(nodes).iteration(b, 10_000 * nodes)
    timing = _system(b, "fpga", nodes).iteration(10_000)
    fpga_x = spark.compute_s / timing.compute_s
    spark_rest = spark.total_s - spark.compute_s
    cosmic_rest = max(1e-9, timing.total_s - timing.compute_s)
    return {
        "name": b.name, "fpga_x": fpga_x,
        "syssw_x": spark_rest / cosmic_rest,
    }


def figure14(
    names: Optional[Iterable[str]] = None, nodes: int = 3
) -> ExperimentResult:
    """Figure 14: speedup split between the FPGAs (compute) and the
    specialised system software (everything else), vs 3-node Spark."""
    result = ExperimentResult(
        "Figure 14",
        "Speedup breakdown: FPGA vs system software, 3 nodes",
        ["name", "fpga_x", "syssw_x"],
        paper={"geomean_fpga_x": 20.7, "geomean_syssw_x": 28.4},
    )
    for row in _per_bench(names, _figure14_point, nodes):
        result.add_row(**row)
    result.summary["geomean_fpga_x"] = geomean(result.column("fpga_x"))
    result.summary["geomean_syssw_x"] = geomean(result.column("syssw_x"))
    return result


# ---------------------------------------------------------------------------
# Figures 15 & 16: resource sensitivity and design-space exploration
# ---------------------------------------------------------------------------


def _figure15_point(
    b: Benchmark, pe_counts: Sequence[int], bandwidth_x: Sequence[float]
):
    dfg = b.translate().dfg
    row = {"name": b.name}
    base = None
    for pes in pe_counts:
        chip = XILINX_VU9P.scaled(
            dsp_slices=pes * XILINX_VU9P.dsp_per_pe,
            max_rows=max(1, pes // XILINX_VU9P.columns),
        )
        plan = Planner(chip).plan(dfg, 10_000, b.density)
        tput = plan.samples_per_second
        base = base or tput
        row[f"pe{pes}"] = tput / base
    base = None
    for x in bandwidth_x:
        chip = XILINX_VU9P.scaled(
            bandwidth_bytes=XILINX_VU9P.bandwidth_bytes * x
        )
        plan = Planner(chip).plan(dfg, 10_000, b.density)
        tput = plan.samples_per_second
        base = base or tput
        row[f"bw{x}x"] = tput / base
    return row


def figure15(
    names: Optional[Iterable[str]] = None,
    pe_counts: Sequence[int] = (192, 384, 768, 1536, 3072, 6144),
    bandwidth_x: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
) -> ExperimentResult:
    """Figure 15: accelerator speedup vs PE count and vs memory bandwidth,
    normalised to the smallest configuration."""
    result = ExperimentResult(
        "Figure 15",
        "Sensitivity to PEs (a) and off-chip bandwidth (b)",
        ["name"]
        + [f"pe{p}" for p in pe_counts]
        + [f"bw{x}x" for x in bandwidth_x],
    )
    for row in _per_bench(names, _figure15_point, pe_counts, bandwidth_x):
        result.add_row(**row)
    compute_bound = ("mnist", "acoustic", "movielens", "netflix")
    scale_col = f"pe{pe_counts[-1]}"
    cb = [
        float(r[scale_col]) for r in result.rows if r["name"] in compute_bound
    ]
    bb = [
        float(r[scale_col])
        for r in result.rows
        if r["name"] not in compute_bound
    ]
    if cb:
        result.summary["compute_bound_pe_scaling"] = geomean(cb)
    if bb:
        result.summary["bandwidth_bound_pe_scaling"] = geomean(bb)
    return result


def _figure16_point(b: Benchmark):
    planner = Planner(XILINX_VU9P)
    sweep = planner.sweep(b.translate().dfg, 10_000, b.density)
    base = sweep["T1xR1"].seconds_for(10_000)
    return b.name, {
        label: base / plan.seconds_for(10_000)
        for label, plan in sweep.items()
    }


def figure16(
    names: Iterable[str] = ("mnist", "movielens", "stock", "tumor"),
) -> ExperimentResult:
    """Figure 16: the Planner's (threads x rows) design space, normalised
    to T1xR1."""
    result = ExperimentResult(
        "Figure 16",
        "Design space exploration, speedup over T1xR1",
        ["name", "point", "speedup"],
    )
    for name, speedups in _per_bench(names, _figure16_point):
        best_label, best_speed = None, 0.0
        for label, speedup in speedups.items():
            result.add_row(name=name, point=label, speedup=speedup)
            if speedup > best_speed:
                best_label, best_speed = label, speedup
        result.summary[f"{name}_best"] = best_speed
        result.rows.append(
            {"name": name, "point": f"best={best_label}", "speedup": best_speed}
        )
    return result


# ---------------------------------------------------------------------------
# Figure 17: CoSMIC vs TABLA
# ---------------------------------------------------------------------------


def _figure17_point(b: Benchmark):
    return {
        "name": b.name,
        "speedup": cosmic_vs_tabla_speedup(
            b.translate().dfg, density=b.density
        ),
    }


def figure17(names: Optional[Iterable[str]] = None) -> ExperimentResult:
    """Figure 17: CoSMIC's template architecture vs TABLA's on the same
    UltraScale+ resources."""
    result = ExperimentResult(
        "Figure 17",
        "Speedup of CoSMIC's template architecture over TABLA's",
        ["name", "speedup"],
        paper={"geomean_speedup": 3.9},
    )
    for row in _per_bench(names, _figure17_point):
        result.add_row(**row)
    result.summary["geomean_speedup"] = geomean(result.column("speedup"))
    return result


#: Experiment id -> harness function, the DESIGN.md index in code form.
EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "figure14": figure14,
    "figure15": figure15,
    "figure16": figure16,
    "figure17": figure17,
}


def run_all() -> List[ExperimentResult]:
    """Regenerate every table and figure (the EXPERIMENTS.md payload)."""
    return [fn() for fn in EXPERIMENTS.values()]
