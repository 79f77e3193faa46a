"""Bit-identity of the Sigma receive pipeline and the cluster timings.

The digest below was recorded from the commit *before* the Sigma
pipeline's per-chunk method chain (``WorkerPool.dispatch`` over
``Resource`` objects, a re-sorted ``CircularBuffer`` deque) became one
loop per chunk stream. The rewrite must not move a single float: any
change to a dispatch tie, to the buffer's drain order, or to the order
of the additions shows up here. It covers both simulators (schedule
replay, and the event-driven reference ``event_driven_iteration``) over
a node/group/quorum/straggler grid, plus direct pipeline streams through
a buffer small enough that producers stall.

The pin is split in two. The barrier digest covers every cluster
without a quorum plus the direct pipeline streams; it changes only with
a deliberate change to the pipeline model. The quorum digest covers the
clusters that close aggregation windows under a :class:`QuorumConfig`;
it is the one to re-record when the quorum rule itself changes, and
the barrier digest must survive that change untouched.
"""

import dataclasses
import hashlib
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
from tests.runtime.event_reference import event_driven_iteration

#: SHA-256 of ``barrier_text()`` (clusters without a quorum, plus the
#: direct pipeline streams), recorded at the parent commit.
BARRIER_DIGEST = (
    "ba37ef081814eb75e71b6bd64c4010d908a30132968f125726c8f8b99ddd5acb"
)

#: SHA-256 of ``quorum_text()`` (clusters under each of ``QUORUMS``),
#: recorded at the parent commit.
QUORUM_DIGEST = (
    "62f076de4431e2aa0440d4b61c5435512eae015a48c2b5c3d684e380e1e89370"
)

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
                aggregate_bytes_per_s=2e8,  # slow consumer: stalls
            )
            pipe = SigmaPipeline(cfg, buffer_bytes=256 * 1024)
            finishes = [
                pipe.on_chunk(t, n) for t, n in _stream(seed, 120)
            ]
            lines.append(repr((workers, seed, finishes)))
            lines.append(
                repr(
                    (
                        pipe.buffer.stall_seconds,
                        pipe.buffer.peak_used,
                        pipe.networking.busy_seconds(),
                        pipe.aggregation.busy_seconds(),
                        pipe.drained_at,
                    )
                )
            )
    return lines


def barrier_text():
    return "\n".join(cluster_lines((None,)) + pipeline_lines())


def quorum_text():
    return "\n".join(cluster_lines(QUORUMS))


def test_streams_stall_the_producer():
    """The direct streams must exercise backpressure, or the pin would
    not cover the buffer's stall arithmetic."""
    pipe = SigmaPipeline(
        PoolConfig(
            networking_threads=1,
            aggregation_threads=1,
            aggregate_bytes_per_s=2e8,
        ),
        buffer_bytes=256 * 1024,
    )
    for t, n in _stream(0, 120):
        pipe.on_chunk(t, n)
    assert pipe.buffer.stall_seconds > 0.0


def test_pipeline_and_cluster_timings_match_parent_digest():
    digest = hashlib.sha256(barrier_text().encode()).hexdigest()
    assert digest == BARRIER_DIGEST


def test_quorum_timings_match_parent_digest():
    digest = hashlib.sha256(quorum_text().encode()).hexdigest()
    assert digest == QUORUM_DIGEST
