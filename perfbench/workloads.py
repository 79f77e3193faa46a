"""The four benchmark workloads: inputs from a seed, the op, its check.

Each workload is a closed loop with one client: an op starts when the
previous one returns. A workload provides

* ``setup(seed)`` — preparation before the clock starts (timed as part
  of ``setup_s``);
* ``ops(seed, stream)`` — the op inputs, an endless iterator that depends
  only on the seed and the stream (one stream per interpreter), in blocks
  of ``block`` ops that each hold the workload's whole mix once;
* ``run(state, op)`` — the op itself: calls into ``repro``;
* ``check(state, op, output)`` — ``None`` or what is wrong with the
  output (counted in ``error_rate``);
* ``digest(output)`` — a short hash compared against ``digests.json`` at
  the workload's default seed.

Only shipping defaults are used: no ``REPRO_*`` variable, kill switch or
executor setter.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
from typing import Dict, Iterator, Optional

#: Table 1, as the benchmark names them (the program validates them).
BENCHMARKS = (
    "mnist", "acoustic", "stock", "texture", "tumor", "cancer1",
    "movielens", "netflix", "face", "cancer2",
)

#: The 14 tables and figures of Section 7.
EXPERIMENT_IDS = (
    "table1", "table2", "table3", "figure7", "figure8", "figure9",
    "figure10", "figure11", "figure12", "figure13", "figure14",
    "figure15", "figure16", "figure17",
)

#: ``repro chaos --scenario`` choices, plus a ``FaultTimeline.random``.
CHAOS_SCENARIOS = (
    "healthy", "delta-crash", "sigma-crash", "master-crash",
    "crash-recover", "partition", "flaky", "random",
)


#: Interpreters (streams) a timed run spreads its blocks over, except
#: paper-regen, which gives every block its own. Stream ``s`` runs blocks
#: ``s``, ``s + INTERPRETERS``, ... of the run.
INTERPRETERS = 5


def _rng(name: str, seed: int, stream: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{stream}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _floats(values) -> str:
    return ",".join(f"{float(v):.12g}" for v in values)


def _shuffled_forever(rng: random.Random, items) -> Iterator:
    """Blocks that each hold every item once, in a fresh order: every
    stretch of ops has the same mix, so runs at different seeds cost
    alike."""
    while True:
        block = list(items)
        rng.shuffle(block)
        yield from block


# ---------------------------------------------------------------------------
# paper-regen: one op = one of the 14 experiments, from a cold process
# ---------------------------------------------------------------------------


class PaperRegen:
    name = "paper-regen"
    #: A block is one pass over all 14; each pass gets its own
    #: interpreter, so each starts cold.
    block = len(EXPERIMENT_IDS)

    def setup(self, seed: int):
        from repro.bench import EXPERIMENTS

        return EXPERIMENTS

    def ops(self, seed: int, stream: int) -> Iterator[dict]:
        """One pass: a seed-drawn order of the 14, rotated by the stream.
        The passes of a run are successive rotations of one order, so
        across 14 passes every experiment runs once in every position and
        first once (the first planner-bound experiment of a cold pass
        pays for plans the later ones reuse)."""
        order = list(EXPERIMENT_IDS)
        random.Random(f"{self.name}/{seed}").shuffle(order)
        shift = stream % len(order)
        for exp_id in order[shift:] + order[:shift]:
            yield {"experiment": exp_id}

    def run(self, experiments, op):
        return experiments[op["experiment"]]()

    @staticmethod
    def payload(result) -> str:
        """Canonical rows and summary (the form ``repro perf`` compares)."""
        return json.dumps(
            [(result.experiment, result.rows, result.summary)],
            default=str,
            sort_keys=True,
        )

    def digest(self, result) -> str:
        return _sha(self.payload(result))

    def check(self, state, op, result, expected: Dict) -> Optional[str]:
        want = expected.get("experiments", {}).get(op["experiment"])
        got = self.digest(result)
        if want != got:
            return (
                f"{op['experiment']}: rows/summary digest {got} != "
                f"committed {want}"
            )
        return None


# ---------------------------------------------------------------------------
# cluster-study: one op = one ClusterSimulator.iteration on a healthy grid
# ---------------------------------------------------------------------------


class ClusterStudy:
    name = "cluster-study"
    block = 50  # every (benchmark, node count) cell once
    nodes = (4, 8, 16, 32, 64)
    minibatch = (500, 1_000, 10_000, 100_000)
    spreads = (0.0, 0.25, 1.0, 4.0)
    fractions = (None, 0.5, 0.75, 0.9)
    deadlines_x = (0.05, 0.25, 1.0)

    def setup(self, seed: int):
        """Per benchmark: the FPGA platform (a Planner run) and the model
        update size. The planner runs here and nowhere in the ops."""
        from repro.core import platform_for
        from repro.ml import benchmark

        platforms = {}
        for name in BENCHMARKS:
            bench = benchmark(name)
            platforms[name] = (platform_for(bench, "fpga"),
                               bench.model_bytes())
        return platforms

    def ops(self, seed: int, stream: int) -> Iterator[dict]:
        rng = _rng(self.name, seed, stream)
        cells = [(b, n) for b in BENCHMARKS for n in self.nodes]
        for bench, nodes in _shuffled_forever(rng, cells):
            default_groups = max(1, math.ceil(nodes / 8))
            fraction = rng.choice(self.fractions)
            yield {
                "bench": bench,
                "nodes": nodes,
                "groups": rng.choice(
                    (default_groups, min(nodes // 2, 2 * default_groups))
                ),
                "minibatch": rng.choice(self.minibatch),
                "spread": rng.choice(self.spreads),
                "straggler_seed": rng.randrange(2**31),
                "fraction": fraction,
                "deadline_x": (
                    rng.choice(self.deadlines_x) if fraction else None
                ),
            }

    @staticmethod
    def _quorum(platform, op):
        from repro.runtime import QuorumConfig

        if op["fraction"] is None:
            return None
        base = platform.compute_seconds(op["minibatch"])
        return QuorumConfig(
            fraction=op["fraction"], deadline_s=op["deadline_x"] * base
        )

    def run(self, platforms, op):
        from repro.runtime import ClusterSimulator, ClusterSpec

        platform, update_bytes = platforms[op["bench"]]
        draw = random.Random(op["straggler_seed"])
        factors = [
            1.0 + op["spread"] * draw.random() ** 3
            for _ in range(op["nodes"])
        ]

        def compute(node_id: int, samples: int) -> float:
            return platform.compute_seconds(samples) * factors[node_id]

        sim = ClusterSimulator(
            ClusterSpec(nodes=op["nodes"], groups=op["groups"]),
            compute,
            update_bytes,
        )
        return sim.iteration(
            op["minibatch"] * op["nodes"],
            quorum=self._quorum(platform, op),
        )

    def digest(self, t) -> str:
        return _sha(repr((
            t.total_s, t.compute_s, t.compute_max_s, t.network_s,
            t.aggregation_busy_s, t.broadcast_s, t.wire_bytes,
            t.wire_messages, t.contributors, t.dropped,
        )))

    def check(self, platforms, op, t, expected) -> Optional[str]:
        from repro.runtime import assign_roles

        if not (math.isfinite(t.total_s) and t.total_s > 0):
            return f"iteration time {t.total_s!r} is not positive"
        topology = assign_roles(op["nodes"], op["groups"])
        everyone = {r.node_id for r in topology.roles}
        contributors, dropped = set(t.contributors), set(t.dropped)
        if contributors & dropped:
            return "a node both contributed and was dropped"
        if contributors | dropped != everyone:
            return "contributors and dropped do not cover the cluster"
        quorum = self._quorum(platforms[op["bench"]][0], op)
        if quorum is None:
            return "barrier dropped partials" if dropped else None

        # The simulator closes each window twice: a probe finds the K of N
        # on time, then the real pass withholds the late sends and closes
        # the window again over the partials still sent, with K taken of
        # those. So a window keeps at least K of K of N.
        def floor(expected: int) -> int:
            return quorum.quorum(quorum.quorum(expected))

        included_groups = 0
        for group in range(topology.groups):
            members = {r.node_id for r in topology.group_members(group)}
            kept = len(members & contributors)
            if not kept:
                continue
            included_groups += 1
            if kept < floor(len(members)):
                return f"group {group} kept {kept} of {len(members)}"
        if included_groups < floor(topology.groups):
            return f"master kept {included_groups} of {topology.groups}"
        return None


# ---------------------------------------------------------------------------
# train-chaos: one op = one `repro train` or `repro chaos` flow
# ---------------------------------------------------------------------------


class TrainChaos:
    name = "train-chaos"
    block = 20  # every benchmark once per flow kind

    def setup(self, seed: int):
        import repro.bench.chaos  # noqa: F401  (the flows' imports)
        import repro.core  # noqa: F401
        import repro.runtime  # noqa: F401

        return None

    def ops(self, seed: int, stream: int) -> Iterator[dict]:
        rng = _rng(self.name, seed, stream)
        cells = [(kind, b) for kind in ("train", "chaos") for b in BENCHMARKS]
        for k in itertools.count(stream, INTERPRETERS):
            rng.shuffle(cells)
            for kind, bench in cells:
                op = {"kind": kind, "bench": bench,
                      "seed": rng.randrange(1000)}
                if kind == "chaos":
                    # k is the block's index in the run, so every
                    # benchmark meets every scenario once per
                    # len(CHAOS_SCENARIOS) blocks of the run, and the
                    # (benchmark, scenario) pairs a run holds do not
                    # depend on the seed.
                    op["scenario"] = CHAOS_SCENARIOS[
                        (k + BENCHMARKS.index(bench)) % len(CHAOS_SCENARIOS)
                    ]
                yield op

    def run(self, state, op):
        return self._train(op) if op["kind"] == "train" else self._chaos(op)

    @staticmethod
    def _train(op, nodes=4, threads=2, epochs=5, samples=2048):
        """``repro train`` at its defaults."""
        from repro.core import CosmicStack, platform_for
        from repro.ml import benchmark
        from repro.runtime import ClusterSimulator, ClusterSpec

        b = benchmark(op["bench"])
        stack = CosmicStack.from_benchmark(b)
        platform = platform_for(b, "fpga")
        cluster = ClusterSimulator(
            ClusterSpec(nodes=nodes),
            lambda node, n: platform.compute_seconds(n),
            update_bytes=b.model_bytes(),
        )
        trainer = stack.trainer(
            nodes=nodes, threads_per_node=threads, cluster=cluster,
            seed=op["seed"],
        )
        dataset = b.make_dataset(samples=samples, seed=op["seed"])
        init = trainer.initial_model(
            scale=0.2 if b.algorithm == "collaborative_filtering" else 0.0
        )
        return trainer.train(
            dataset.feeds,
            epochs=epochs,
            minibatch_per_worker=max(1, samples // (8 * nodes * threads)),
            loss_fn=dataset.loss,
            model=init,
        )

    @staticmethod
    def _chaos(op, nodes=8, groups=2, threads=1, epochs=2, samples=1024,
               checkpoint_every=4):
        """``repro chaos`` at its defaults: a healthy run, then the
        scenario's run."""
        from repro.bench.chaos import fault_tolerance_config
        from repro.core import platform_for
        from repro.ml import benchmark
        from repro.runtime import (
            ClusterSimulator, ClusterSpec, DistributedTrainer, assign_roles,
            chaos_train, scenario_timeline,
        )
        from repro.runtime.faults import FaultTimeline

        b = benchmark(op["bench"])
        platform = platform_for(b, "fpga")
        translation = b.translate(scaled=True)
        dataset = b.make_dataset(samples=samples, seed=op["seed"])
        spec = ClusterSpec(nodes=nodes, groups=groups)
        topology = assign_roles(nodes, groups)
        update_bytes = b.model_bytes()

        def compute(node_id: int, n: int) -> float:
            return platform.compute_seconds(n)

        minibatch = max(1, samples // (8 * nodes * threads))
        iteration_s = (
            ClusterSimulator(spec, compute, update_bytes)
            .iteration(minibatch * nodes * threads)
            .total_s
        )
        config = fault_tolerance_config(
            iteration_s, checkpoint_every=checkpoint_every
        )
        init = DistributedTrainer(
            translation, nodes=nodes, seed=op["seed"]
        ).initial_model(
            scale=0.2 if b.algorithm == "collaborative_filtering" else 0.0
        )

        def run(timeline):
            return chaos_train(
                translation, dataset.feeds, spec, compute, update_bytes,
                timeline=timeline, config=config, epochs=epochs,
                threads_per_node=threads, minibatch_per_worker=minibatch,
                loss_fn=dataset.loss,
                model={k: v.copy() for k, v in init.items()},
                seed=op["seed"],
            )

        if op["scenario"] == "random":
            timeline = FaultTimeline.random(
                nodes=nodes, horizon_s=10 * iteration_s,
                crash_probability=0.35, recover_fraction=0.5,
                seed=op["seed"], spare=(topology.master.node_id,),
            )
        else:
            timeline = scenario_timeline(
                op["scenario"], topology, iteration_s
            )
        healthy = run(scenario_timeline("healthy", topology, iteration_s))
        return healthy, run(timeline)

    def digest(self, output) -> str:
        runs = output if isinstance(output, tuple) else (output,)
        return _sha(";".join(
            f"{r.iterations}|{r.simulated_seconds!r}|"
            f"{_floats(r.loss_history)}"
            for r in runs
        ))

    def check(self, state, op, output, expected) -> Optional[str]:
        runs = output if isinstance(output, tuple) else (output,)
        for r in runs:
            if not r.loss_history or not all(
                math.isfinite(x) for x in r.loss_history
            ):
                return "loss history is empty or not finite"
            if not r.simulated_seconds > 0:
                return "no simulated time elapsed"
        if op["kind"] == "train":
            first, last = output.loss_history[0], output.loss_history[-1]
            if not last < first:
                return f"train loss did not fall: {first} -> {last}"
        elif output[0].iterations != output[1].iterations:
            return (
                f"{op['scenario']} ran {output[1].iterations} iterations, "
                f"healthy {output[0].iterations}"
            )
        return None


# ---------------------------------------------------------------------------
# codesign: one op = compile, construct, testbench, one node partition
# ---------------------------------------------------------------------------


_GOLDEN = re.compile(r'dut_probe\("([^"]+)"\) - \(([-+0-9.e]+)\)\) >')


class Codesign:
    name = "codesign"
    block = 10  # every benchmark once
    rows = (1, 2, 3, 4)
    columns = (2, 3, 4, 6, 8)
    partition = 64
    #: One grid shape per block. The streams of a run walk one seed-drawn
    #: order of the 20 shapes from offsets this far apart, so five
    #: interpreters together cover the grid.
    shape_stride = 4

    def setup(self, seed: int):
        """Per benchmark: the stack, its FPGA plan (the Planner runs here,
        not in the ops), a dataset, a model, and a reference interpreter
        for the output check."""
        from repro.core import CosmicStack
        from repro.dfg import Interpreter
        from repro.ml import benchmark

        state = {}
        for name in BENCHMARKS:
            bench = benchmark(name)
            stack = CosmicStack.from_benchmark(bench)
            model = stack.trainer(seed=seed).initial_model(scale=0.1)
            dataset = bench.make_dataset(samples=256, seed=seed)
            state[name] = {
                "stack": stack,
                "plan": stack.plan(),
                "feeds": dataset.feeds,
                "model": model,
                "reference": Interpreter(stack.functional_translation.dfg),
            }
        return state

    def ops(self, seed: int, stream: int) -> Iterator[dict]:
        rng = _rng(self.name, seed, stream)
        shapes = [(r, c) for r in self.rows for c in self.columns]
        random.Random(f"{self.name}/{seed}").shuffle(shapes)
        order = list(BENCHMARKS)
        for k in itertools.count(stream * self.shape_stride):
            rows, columns = shapes[k % len(shapes)]
            rng.shuffle(order)
            for bench in order:
                yield {
                    "bench": bench,
                    "rows": rows,
                    "columns": columns,
                    "sample": rng.randrange(256),
                    "partition_start": rng.randrange(256 - self.partition),
                }

    def run(self, state, op):
        from repro.circuit import construct, generate_testbench
        from repro.hw.node import NodeAccelerator

        entry = state[op["bench"]]
        stack, model = entry["stack"], entry["model"]
        program = stack.compile(rows=op["rows"], columns=op["columns"])
        fpga = construct(program, target="fpga")
        pasic = construct(program, target="pasic")
        feeds = {k: v[op["sample"]] for k, v in entry["feeds"].items()}
        feeds.update(model)
        testbench = generate_testbench(program, feeds)
        start = op["partition_start"]
        partition = {
            k: v[start:start + self.partition]
            for k, v in entry["feeds"].items()
        }
        node = NodeAccelerator(stack.functional_translation, entry["plan"])
        return {
            "fpga": fpga,
            "pasic": pasic,
            "testbench": testbench,
            "node": node.process_partition(partition, model),
            "feeds": feeds,
        }

    def digest(self, out) -> str:
        node = out["node"]
        partials = ";".join(
            f"{k}:{_floats(node.partials[k].ravel())}"
            for k in sorted(node.partials)
        )
        return _sha("\n".join((
            out["testbench"], out["fpga"].verilog,
            str(len(out["pasic"].microcode)),
            str(node.timing.total_cycles), partials,
        )))

    def check(self, state, op, out, expected) -> Optional[str]:
        import numpy as np

        reference = state[op["bench"]]["reference"].gradients(out["feeds"])
        golden = _GOLDEN.findall(out["testbench"])
        if not golden:
            return "testbench checks no gradients"
        for element, value in golden:
            name, _, index = element.partition("[")
            want = reference[name]
            if index:
                want = want[tuple(int(i) for i in index[:-1].split(","))]
            if not math.isclose(float(value), float(want), rel_tol=1e-6,
                                abs_tol=1e-9):
                return (
                    f"ThreadSimulator {element}={value} but Interpreter "
                    f"gives {float(want)!r}"
                )
        if not out["fpga"].verilog or not out["pasic"].microcode:
            return "constructor produced no RTL or no microcode"
        node = out["node"]
        if node.samples != self.partition or node.timing.total_cycles <= 0:
            return "node partition pass is empty"
        if set(node.partials) != set(reference) or not all(
            np.all(np.isfinite(v)) for v in node.partials.values()
        ):
            return "node partials do not match the gradient outputs"
        return None


WORKLOADS = {
    w.name: w for w in (PaperRegen(), ClusterStudy(), TrainChaos(),
                        Codesign())
}
