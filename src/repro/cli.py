"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``benchmarks`` — list the Table 1 workloads.
* ``experiment <id> [...]`` — regenerate a figure/table (or ``all``).
* ``ablation <id> [...]`` — run a design-choice ablation (or ``all``).
* ``plan <benchmark> [--chip ...]`` — show the Planner's chosen design.
* ``rtl <benchmark> [--target fpga|pasic]`` — emit generated Verilog.
* ``train <benchmark>`` — actually train the (scaled) benchmark on a
  simulated cluster and report loss plus simulated wall-clock.
* ``chaos <benchmark> [--scenario ...]`` — train under an injected fault
  scenario with the fault-tolerant runtime and report recovery cost
  against the healthy run.
* ``perf [--update-baseline]`` — time the end-to-end flows (cold
  ``run_all()``, seeded ``train``/``chaos``, tier-1) and gate their
  medians against the committed ``BENCH_perf.json`` baseline.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def count(text: str) -> int:
    """argparse ``type=`` for a count flag: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CoSMIC: scale-out acceleration for machine learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from .ml.benchmarks import benchmark_names

    # The Table 1 names; an unknown one is an argparse error (exit 2).
    names = benchmark_names()

    sub.add_parser("benchmarks", help="list the Table 1 benchmarks")

    exp = sub.add_parser("experiment", help="regenerate a table or figure")
    exp.add_argument("id", help="e.g. figure7, table3, or 'all'")

    abl = sub.add_parser("ablation", help="run a design-choice ablation")
    abl.add_argument("id", help="e.g. interconnect, mapping, or 'all'")

    plan = sub.add_parser("plan", help="show the Planner's design")
    plan.add_argument("benchmark", choices=names, metavar="benchmark")
    plan.add_argument(
        "--chip", default="fpga", choices=["fpga", "pasic-f", "pasic-g"]
    )
    plan.add_argument("--minibatch", type=count, default=10_000)

    rtl = sub.add_parser("rtl", help="emit generated RTL for one thread")
    rtl.add_argument("benchmark", choices=names, metavar="benchmark")
    rtl.add_argument("--target", default="fpga", choices=["fpga", "pasic"])
    rtl.add_argument("--rows", type=count, default=2)
    rtl.add_argument("--columns", type=count, default=4)

    train = sub.add_parser("train", help="train the scaled benchmark")
    train.add_argument("benchmark", choices=names, metavar="benchmark")
    train.add_argument("--nodes", type=count, default=4)
    train.add_argument("--threads", type=count, default=2)
    train.add_argument("--epochs", type=count, default=5)
    train.add_argument("--samples", type=count, default=2048)
    train.add_argument("--seed", type=int, default=0)

    from .runtime.recovery import SCENARIOS

    chaos = sub.add_parser(
        "chaos", help="train under an injected fault scenario"
    )
    chaos.add_argument("benchmark", choices=names, metavar="benchmark")
    chaos.add_argument(
        "--scenario", default="master-crash", choices=list(SCENARIOS)
    )
    chaos.add_argument("--nodes", type=count, default=8)
    chaos.add_argument("--groups", type=count, default=2)
    chaos.add_argument("--threads", type=count, default=1)
    chaos.add_argument("--epochs", type=count, default=2)
    chaos.add_argument("--samples", type=count, default=1024)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--checkpoint-every", type=count, default=4)

    perf = sub.add_parser(
        "perf",
        help="time the end-to-end flows and gate against BENCH_perf.json",
    )
    perf.add_argument(
        "--baseline",
        default="BENCH_perf.json",
        help="baseline payload to compare against (default BENCH_perf.json)",
    )
    perf.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write this run's payload to PATH",
    )
    perf.add_argument(
        "--update-baseline",
        action="store_true",
        help="write this run to the baseline path instead of comparing",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    if command == "benchmarks":
        return _cmd_benchmarks()
    if command in ("experiment", "ablation"):
        return _cmd_run(command, args.id)
    if command == "plan":
        return _cmd_plan(args.benchmark, args.chip, args.minibatch)
    if command == "rtl":
        return _cmd_rtl(args.benchmark, args.target, args.rows, args.columns)
    if command in ("train", "chaos"):
        try:
            return _cmd_train(args) if command == "train" else _cmd_chaos(args)
        except ValueError as exc:
            # Flag values argparse cannot judge one at a time: fewer
            # samples than one global mini-batch, more groups than nodes.
            print(f"repro {command}: error: {exc}", file=sys.stderr)
            return 2
    if command == "perf":
        return _cmd_perf(args)
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_benchmarks() -> int:
    from .bench.figures import table1

    print(table1().to_table())
    return 0


def _cmd_run(command: str, run_id: str) -> int:
    """``experiment`` or ``ablation``: print one result, or ``all``."""
    if command == "experiment":
        from .bench.figures import EXPERIMENTS as registry
    else:
        from .bench.ablations import ABLATIONS as registry

    if run_id == "all":
        for fn in registry.values():
            print(fn().to_table())
            print()
        return 0
    if run_id not in registry:
        print(
            f"unknown {command} {run_id!r}; choose from "
            f"{', '.join(registry)} or 'all'",
            file=sys.stderr,
        )
        return 2
    print(registry[run_id]().to_table())
    return 0


def _cmd_plan(name: str, chip_kind: str, minibatch: int) -> int:
    from .hw.spec import PASIC_F, PASIC_G, XILINX_VU9P
    from .ml.benchmarks import benchmark
    from .planner.plan import Planner

    chip = {"fpga": XILINX_VU9P, "pasic-f": PASIC_F, "pasic-g": PASIC_G}[
        chip_kind
    ]
    b = benchmark(name)
    plan = Planner(chip).plan(
        b.translate().dfg,
        minibatch,
        b.density,
        stream_words=b.bytes_per_sample() / chip.word_bytes,
    )
    util = plan.resources().utilization(chip)
    print(f"benchmark:        {b.name} ({b.algorithm})")
    print(f"chip:             {chip.name}")
    print(f"design point:     {plan.design.label()} "
          f"({plan.design.total_pes} PEs, {plan.design.total_rows} rows)")
    print(f"cycles/sample:    {plan.cycles_per_sample:,.0f}")
    print(f"throughput:       {plan.samples_per_second:,.0f} samples/s")
    print("bound:            "
          f"{'compute' if plan.compute_bound else 'bandwidth'}")
    print(f"storage/thread:   {plan.storage_per_thread_bytes / 1024:,.0f} KB")
    if chip.luts:
        print("utilization:      " + "  ".join(
            f"{k}={100 * v:.1f}%" for k, v in util.items()
        ))
    return 0


def _cmd_rtl(name: str, target: str, rows: int, columns: int) -> int:
    from .core.stack import CosmicStack
    from .ml.benchmarks import benchmark

    stack = CosmicStack.from_benchmark(benchmark(name))
    design = stack.rtl(rows=rows, columns=columns, target=target)
    print(design.verilog)
    return 0


def train_flow(args):
    """Run the ``train`` command's flow without printing.

    Returns ``(benchmark, dataset, result)``; ``args`` is the parsed
    ``train`` namespace.
    """
    from .core.stack import CosmicStack
    from .core.system import platform_for
    from .ml.benchmarks import benchmark
    from .runtime.cluster import ClusterSimulator, ClusterSpec

    b = benchmark(args.benchmark)
    stack = CosmicStack.from_benchmark(b)
    platform = platform_for(b, "fpga")
    cluster = ClusterSimulator(
        ClusterSpec(nodes=args.nodes),
        lambda node, samples: platform.compute_seconds(samples),
        update_bytes=b.model_bytes(),
    )
    trainer = stack.trainer(
        nodes=args.nodes,
        threads_per_node=args.threads,
        cluster=cluster,
        seed=args.seed,
    )
    dataset = b.make_dataset(samples=args.samples, seed=args.seed)
    init = trainer.initial_model(
        scale=0.2 if b.algorithm == "collaborative_filtering" else 0.0
    )
    result = trainer.train(
        dataset.feeds,
        epochs=args.epochs,
        minibatch_per_worker=max(
            1, args.samples // (8 * args.nodes * args.threads)
        ),
        loss_fn=dataset.loss,
        model=init,
    )
    return b, dataset, result


def _cmd_train(args) -> int:
    b, dataset, result = train_flow(args)
    print(f"benchmark:         {b.name} ({dataset.description})")
    print(f"cluster:           {args.nodes} nodes x {args.threads} threads")
    print(f"iterations:        {result.iterations}")
    print(f"loss:              {result.loss_history[0]:.4f} -> "
          f"{result.final_loss:.4f}")
    print(f"simulated seconds: {result.simulated_seconds:.4f}")
    return 0


def chaos_flow(args):
    """Run the ``chaos`` command's flow without printing.

    Returns ``(benchmark, dataset, healthy, result)``: the healthy
    baseline run and the run under ``args.scenario``.
    """
    from .bench.chaos import fault_tolerance_config
    from .core.system import platform_for
    from .ml.benchmarks import benchmark
    from .runtime.cluster import ClusterSimulator, ClusterSpec
    from .runtime.director import assign_roles
    from .runtime.recovery import chaos_train, scenario_timeline
    from .runtime.trainer import DistributedTrainer

    b = benchmark(args.benchmark)
    platform = platform_for(b, "fpga")
    translation = b.translate(scaled=True)
    dataset = b.make_dataset(samples=args.samples, seed=args.seed)
    spec = ClusterSpec(nodes=args.nodes, groups=args.groups)
    topology = assign_roles(args.nodes, args.groups)
    update_bytes = b.model_bytes()

    def compute(node_id: int, samples: int) -> float:
        return platform.compute_seconds(samples)

    minibatch = max(1, args.samples // (8 * args.nodes * args.threads))
    iteration_s = (
        ClusterSimulator(spec, compute, update_bytes)
        .iteration(minibatch * args.nodes * args.threads)
        .total_s
    )
    config = fault_tolerance_config(
        iteration_s, checkpoint_every=args.checkpoint_every
    )
    init = DistributedTrainer(
        translation, nodes=args.nodes, seed=args.seed
    ).initial_model(
        scale=0.2 if b.algorithm == "collaborative_filtering" else 0.0
    )

    def run(timeline):
        return chaos_train(
            translation,
            dataset.feeds,
            spec,
            compute,
            update_bytes,
            timeline=timeline,
            config=config,
            epochs=args.epochs,
            threads_per_node=args.threads,
            minibatch_per_worker=minibatch,
            loss_fn=dataset.loss,
            model={k: v.copy() for k, v in init.items()},
            seed=args.seed,
        )

    healthy = run(scenario_timeline("healthy", topology, iteration_s))
    result = run(scenario_timeline(args.scenario, topology, iteration_s))
    return b, dataset, healthy, result


def _cmd_chaos(args) -> int:
    b, dataset, healthy, result = chaos_flow(args)
    print(f"benchmark:          {b.name} ({dataset.description})")
    print(f"cluster:            {args.nodes} nodes x {args.groups} groups")
    print(f"scenario:           {args.scenario}")
    for event in result.events:
        line = (
            f"  t={event.time_s:.3f}s {event.kind} nodes={event.nodes} "
            f"detect={event.detection_s * 1e3:.1f}ms "
            f"rehierarchy={event.rehierarchy_s * 1e3:.1f}ms"
        )
        if event.rollback_iterations:
            line += f" rollback={event.rollback_iterations}it"
        if event.promoted_master is not None:
            line += f" new_master={event.promoted_master}"
        print(line)
    if not result.events:
        print("  (no faults injected)")
    print(f"iterations:         {result.iterations}")
    print(f"checkpoints:        {result.checkpoints_taken}")
    print(f"time to recovery:   {result.time_to_recovery_s:.4f}s")
    print(f"simulated seconds:  {result.simulated_seconds:.4f} "
          f"(healthy {healthy.simulated_seconds:.4f})")
    print("throughput kept:    "
          f"{100 * result.throughput_retained(healthy.simulated_seconds):.1f}%")
    delta = (
        abs(result.final_loss - healthy.final_loss)
        / abs(healthy.final_loss)
        * 100.0
        if healthy.final_loss
        else 0.0
    )
    print(f"loss:               {result.final_loss:.4f} "
          f"(healthy {healthy.final_loss:.4f}, delta {delta:.2f}%)")
    return 0


def _cmd_perf(args) -> int:
    from pathlib import Path

    from .bench.perf import (
        TOLERANCE,
        compare_to_baseline,
        load_report,
        render_report,
        run_perf,
        write_report,
    )

    report = run_perf()
    print(render_report(report))

    baseline_path = Path(args.baseline)
    if args.output:
        write_report(report, Path(args.output))
        print(f"\nwrote {args.output}")
    if args.update_baseline:
        write_report(report, baseline_path)
        print(f"\nwrote baseline {baseline_path}")
        return 0
    if not baseline_path.is_file():
        print(
            f"\nno baseline at {baseline_path}; run with --update-baseline "
            "to create one"
        )
        return 0
    problems = compare_to_baseline(report, load_report(baseline_path))
    if problems:
        print(f"\nPERF REGRESSIONS vs {baseline_path}:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"\nmedians within {TOLERANCE:g}x of baseline {baseline_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
