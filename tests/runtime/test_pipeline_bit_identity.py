"""Bit-identity of the Sigma receive pipeline and the cluster timings.

Two committed texts pin every float the Sigma pipeline and the cluster
simulators produce: any change to a dispatch tie or to the order of the
additions shows up as a changed line. They cover both simulators
(schedule replay, and the event-driven reference
``event_driven_iteration``) over a node/group/quorum/straggler grid,
plus direct :meth:`SigmaPipeline.on_chunks` streams with a consumer slow
enough that chunks queue for an aggregation worker; for those the text
records every worker's free time and busy seconds in both pools.

``tests/golden/pipeline_barrier.txt`` holds ``barrier_text()``: every
cluster without a quorum, plus the direct pipeline streams. It changes
only with a deliberate change to the pipeline model.
``tests/golden/pipeline_quorum.txt`` holds ``quorum_text()``: the
clusters that close aggregation windows under a :class:`QuorumConfig`.
It is the one to re-record when the quorum rule itself changes, and the
barrier text must survive that change untouched. A mismatch fails with
the first differing lines. If a change is intended, regenerate both,
review the diff, and commit it::

    PYTHONPATH=src:. python -c "import sys; from tests.runtime.test_pipeline_bit_identity import barrier_text; sys.stdout.write(barrier_text())" > tests/golden/pipeline_barrier.txt
    PYTHONPATH=src:. python -c "import sys; from tests.runtime.test_pipeline_bit_identity import quorum_text; sys.stdout.write(quorum_text())" > tests/golden/pipeline_quorum.txt
"""

import dataclasses
import random

from repro.runtime import schedule
from repro.runtime.cluster import (
    ClusterSimulator,
    ClusterSpec,
    IterationTiming,
    QuorumConfig,
)
from repro.runtime.director import default_groups
from repro.runtime.threads import PoolConfig, SigmaPipeline
from tests.golden_diff import assert_matches_golden
from tests.runtime.event_reference import event_driven_iteration

NODES = (4, 8, 16, 32, 64)
QUORUMS = (
    QuorumConfig(fraction=0.5, deadline_s=1e-4),
    QuorumConfig(fraction=0.75, deadline_s=1e-3),
    QuorumConfig(fraction=0.9, deadline_s=5e-2),
)
SPREADS = (0.0, 1.0, 4.0)
UPDATE_BYTES = 300_000  # five 64 KiB chunks per partial


def _timing_repr(timing):
    return repr(
        tuple(
            getattr(timing, f.name)
            for f in dataclasses.fields(IterationTiming)
        )
    )


def _simulator(nodes, groups, spread):
    """A healthy cluster whose node ``n`` computes ``1 + spread * k/nodes``
    ms, with ``k`` a fixed permutation of the node ids; returns it with
    the per-node compute times."""
    compute = [
        1e-3 * (1.0 + spread * ((7 * n) % nodes) / nodes)
        for n in range(nodes)
    ]
    sim = ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups),
        lambda node_id, samples: compute[node_id],
        update_bytes=UPDATE_BYTES,
    )
    return sim, compute


def cluster_lines(quorums):
    lines = []
    for nodes in NODES:
        base = default_groups(nodes)
        for groups in (base, min(2 * base, nodes)):
            for quorum in quorums:
                for spread in SPREADS:
                    sim, compute = _simulator(nodes, groups, spread)
                    label = (nodes, groups, quorum, spread)
                    schedule.TIMINGS.clear()
                    replayed = sim.iteration(1024, quorum=quorum)
                    event = event_driven_iteration(
                        sim.topology, sim.spec, UPDATE_BYTES, compute, quorum
                    )
                    lines.append(repr(label) + " replay")
                    lines.append(_timing_repr(replayed))
                    lines.append(repr(label) + " event")
                    lines.append(_timing_repr(event))
    schedule.TIMINGS.clear()
    return lines


def _stream(seed, chunks):
    """Arrival-ordered chunks with repeated arrival times and sizes up to
    a full 64 KiB socket chunk."""
    rng = random.Random(seed)
    t = 0.0
    stream = []
    for _ in range(chunks):
        if rng.random() < 0.7:  # else: same instant as the previous one
            t += rng.choice((1e-6, 5e-6, 2e-5, 1e-4))
        stream.append((t, rng.choice((1, 4096, 30_000, 65_536))))
    return stream


def pipeline_lines():
    lines = []
    for workers in (1, 2, 3):
        for seed in range(4):
            cfg = PoolConfig(
                networking_threads=workers,
                aggregation_threads=workers,
                aggregate_bytes_per_s=2e8,  # slow consumer: queues
            )
            pipe = SigmaPipeline(cfg)
            stream = _stream(seed, 120)
            finishes = pipe.on_chunks(
                [t for t, _ in stream], [n for _, n in stream]
            )
            lines.append(repr((workers, seed, finishes)))
            lines.append(
                repr(
                    (
                        pipe.net_free,
                        pipe.net_busy,
                        pipe.agg_free,
                        pipe.agg_busy,
                        pipe.drained_at,
                    )
                )
            )
    return lines


def barrier_text():
    return "\n".join(cluster_lines((None,)) + pipeline_lines())


def quorum_text():
    return "\n".join(cluster_lines(QUORUMS))


def test_streams_queue_for_an_aggregation_worker():
    """The direct streams must make chunks wait in the aggregation pool,
    or the pin would not cover its wait path: with one worker per pool,
    some chunk starts folding after its copy has landed."""
    cfg = PoolConfig(
        networking_threads=1,
        aggregation_threads=1,
        aggregate_bytes_per_s=2e8,
    )
    stream = _stream(0, 120)
    finishes = SigmaPipeline(cfg).on_chunks(
        [t for t, _ in stream], [n for _, n in stream]
    )
    landed = 0.0  # the one networking worker's free time
    waited = 0
    for (arrival, nbytes), finish in zip(stream, finishes):
        start = max(landed, arrival + cfg.wakeup_overhead_s)
        landed = start + nbytes / cfg.copy_bytes_per_s
        fold_start = finish - nbytes / cfg.aggregate_bytes_per_s
        waited += fold_start > landed + 1e-9
    assert waited > 0


def test_pipeline_and_cluster_timings_match_golden():
    assert_matches_golden(barrier_text(), "pipeline_barrier.txt")


def test_quorum_timings_match_golden():
    assert_matches_golden(quorum_text(), "pipeline_quorum.txt")
