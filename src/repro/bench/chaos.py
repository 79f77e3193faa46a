"""Fault-tolerance knobs scaled to the modelled iteration time.

The fault-tolerant runtime (:mod:`repro.runtime.recovery`) takes its
heartbeat and retry constants in simulated seconds; ``repro chaos``
derives them from one healthy iteration with :func:`fault_tolerance_config`.
"""

from __future__ import annotations

from typing import Optional

from ..runtime import (
    FaultToleranceConfig,
    HeartbeatConfig,
    QuorumConfig,
    RetryPolicy,
)


def fault_tolerance_config(
    iteration_s: float,
    checkpoint_every: int = 4,
    quorum: Optional[QuorumConfig] = None,
) -> FaultToleranceConfig:
    """Detection/retry knobs scaled to the iteration time.

    Absolute heartbeat and retry constants only mean something relative
    to how long an iteration takes on the modelled hardware, so they
    are derived from it: beats twice per iteration, a node is dead
    after ~three silent iterations, and a sender gives up on a peer
    after roughly two iterations of backoff.
    """
    return FaultToleranceConfig(
        heartbeat=HeartbeatConfig(
            period_s=iteration_s / 2, timeout_s=3 * iteration_s
        ),
        retry=RetryPolicy(
            timeout_s=iteration_s / 2, max_retries=2, backoff=2.0
        ),
        quorum=quorum,
        checkpoint_every=checkpoint_every,
    )
