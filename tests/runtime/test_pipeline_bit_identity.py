"""Bit-identity of the Sigma receive pipeline and the cluster timings.

The digest below was recorded from the commit *before* the Sigma
pipeline's per-chunk method chain (``WorkerPool.dispatch`` over
``Resource`` objects, a re-sorted ``CircularBuffer`` deque) became one
loop per chunk stream. The rewrite must not move a single float: any
change to a dispatch tie, to the buffer's drain order, or to the order
of the additions shows up here. It covers both simulators (schedule
replay on, and the event-driven engine under ``replay_disabled()``) over
a node/group/quorum/straggler grid, plus direct pipeline streams through
a buffer small enough that producers stall. Regenerate the digest only
for a deliberate change to the pipeline model.
"""

import dataclasses
import hashlib
import random

from repro.perf.cache import cache_disabled, get_cache
from repro.runtime import (
    ClusterSimulator,
    ClusterSpec,
    IterationTiming,
    PoolConfig,
    QuorumConfig,
    SigmaPipeline,
    replay_disabled,
)
from repro.runtime.director import default_groups

#: SHA-256 of the canonical text below, recorded at the parent commit.
PARENT_DIGEST = (
    "bf3c8b0bba605dfb135eca777c009b4a25cba12183c4892bc34df82a270b835b"
)

NODES = (4, 8, 16, 32, 64)
QUORUMS = (
    None,
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
    ms, with ``k`` a fixed permutation of the node ids."""
    compute = [
        1e-3 * (1.0 + spread * ((7 * n) % nodes) / nodes)
        for n in range(nodes)
    ]
    return ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups),
        lambda node_id, samples: compute[node_id],
        update_bytes=UPDATE_BYTES,
    )


def cluster_lines():
    lines = []
    cache = get_cache()
    for nodes in NODES:
        base = default_groups(nodes)
        for groups in (base, min(2 * base, nodes)):
            for quorum in QUORUMS:
                for spread in SPREADS:
                    sim = _simulator(nodes, groups, spread)
                    label = (nodes, groups, quorum, spread)
                    cache.clear()
                    replayed = sim.iteration(1024, quorum=quorum)
                    with replay_disabled(), cache_disabled():
                        event = sim.iteration(1024, quorum=quorum)
                    lines.append(repr(label) + " replay")
                    lines.append(_timing_repr(replayed))
                    lines.append(repr(label) + " event")
                    lines.append(_timing_repr(event))
    cache.clear()
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


def pinned_text():
    return "\n".join(cluster_lines() + pipeline_lines())


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
    digest = hashlib.sha256(pinned_text().encode()).hexdigest()
    assert digest == PARENT_DIGEST
