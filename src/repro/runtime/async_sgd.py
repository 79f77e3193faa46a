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
ablation compares the two.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .faults import FaultSpec


def async_batch_seconds(
    compute_seconds: Mapping[int, float],
    update_bytes: int,
    network_bps: float = 1e9,
    faults: Optional[FaultSpec] = None,
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
        faults: optional straggler/link fault spec.
    """
    if not compute_seconds:
        raise ValueError("need at least one node")
    faults = faults or FaultSpec()
    wire = update_bytes * 8.0 / network_bps
    periods = {}
    for node, base in compute_seconds.items():
        compute = base * faults.compute_factor(node)
        send = wire * faults.network_factor(node) + faults.expected_retransmit_s(
            node
        )
        periods[node] = max(compute, send)
    # One global batch = every node contributes its share once; with no
    # barrier, contributions overlap fully, so the batch completes when
    # the mean period elapses (rate-weighted), bounded by reality: at
    # least one full period of some node must pass.
    rates = [1.0 / p for p in periods.values()]
    batch_time = len(periods) / sum(rates)  # harmonic mean of periods
    return max(batch_time, min(periods.values()))


def sync_batch_seconds(
    compute_seconds: Mapping[int, float],
    update_bytes: int,
    network_bps: float = 1e9,
    faults: Optional[FaultSpec] = None,
) -> float:
    """The synchronous counterpart: the barrier means max, not mean."""
    if not compute_seconds:
        raise ValueError("need at least one node")
    faults = faults or FaultSpec()
    wire = update_bytes * 8.0 / network_bps
    worst = 0.0
    for node, base in compute_seconds.items():
        compute = base * faults.compute_factor(node)
        send = wire * faults.network_factor(node) + faults.expected_retransmit_s(
            node
        )
        worst = max(worst, compute + send)
    return worst
