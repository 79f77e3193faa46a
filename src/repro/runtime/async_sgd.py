"""Asynchronous (barrier-free) batch timing.

The paper's runtime is synchronous: every iteration waits for all nodes
(Eq. 3's aggregation is a barrier), so one straggler stalls the fleet —
quantified by the straggler ablation. The literature CoSMIC builds on
("Slow learners are fast" [22]) removes the barrier: workers compute
gradients against a *stale* model and the Sigma applies them as they
arrive. :func:`async_batch_seconds` prices a global batch without the
barrier — nodes pipeline independently, so a straggler only reduces its
own contribution instead of stalling everyone — and
:func:`sync_batch_seconds` is its barrier counterpart; the sync-vs-async
ablation compares the two. A straggler is a longer entry in the
``compute_seconds`` map.
"""

from __future__ import annotations

from typing import Mapping


def async_batch_seconds(
    compute_seconds: Mapping[int, float],
    update_bytes: int,
    network_bps: float = 1e9,
) -> float:
    """Wall time for one global batch without the aggregation barrier.

    Each node pipelines compute with shipping its update; the fleet's
    throughput is the *sum* of node rates, so the time for everyone to
    contribute once is set by the slowest node's own period only for its
    own share — the fleet does not wait.

    Args:
        compute_seconds: node id -> seconds for its local batch share.
        update_bytes: model update size on the wire.
        network_bps: per-node line rate.
    """
    if not compute_seconds:
        raise ValueError("need at least one node")
    wire = update_bytes * 8.0 / network_bps
    periods = [max(compute, wire) for compute in compute_seconds.values()]
    # One global batch = every node contributes its share once; with no
    # barrier, contributions overlap fully, so the batch completes when
    # the mean period elapses (rate-weighted), bounded by reality: at
    # least one full period of some node must pass.
    rates = [1.0 / p for p in periods]
    batch_time = len(periods) / sum(rates)  # harmonic mean of periods
    return max(batch_time, min(periods))


def sync_batch_seconds(
    compute_seconds: Mapping[int, float],
    update_bytes: int,
    network_bps: float = 1e9,
) -> float:
    """The synchronous counterpart: the barrier means max, not mean."""
    if not compute_seconds:
        raise ValueError("need at least one node")
    wire = update_bytes * 8.0 / network_bps
    return max(compute + wire for compute in compute_seconds.values())
