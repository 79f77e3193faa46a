"""Whole-cluster timing simulation of one training iteration.

One iteration of the distributed flow (Figure 1):

1. every node's accelerator computes its partial update over its share of
   the mini-batch (Sigma nodes compute too);
2. Delta nodes ship their locally-aggregated partial updates to their
   group Sigma, whose networking/aggregation pools fold chunks into the
   aggregation buffer as they land (overlapped, Figure 2);
3. group Sigmas forward group aggregates to the master Sigma;
4. the master broadcasts the updated model down the hierarchy, and the
   next mini-batch begins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from . import schedule
from .director import Topology, assign_roles
from .network import NetworkConfig
from .threads import PoolConfig


@dataclass(frozen=True)
class ClusterSpec:
    """System specification fed to the Director (Figure 3, right)."""

    nodes: int
    groups: Optional[int] = None
    network: NetworkConfig = field(default_factory=NetworkConfig)
    pools: PoolConfig = field(default_factory=PoolConfig)
    #: Per-iteration host-side management: accelerator invocation, PCIe
    #: descriptor setup, epoch bookkeeping. Lean by design (Section 3) —
    #: there is no thread creation or generic scheduling on this path.
    management_overhead_s: float = 0.4e-3


@dataclass(frozen=True)
class QuorumConfig:
    """Graceful degradation: aggregate K-of-N partials after a deadline.

    A Sigma normally blocks until every partial arrives (Eq. 3b is a
    barrier). In quorum mode it closes the aggregation window at the
    later of (a) the K-th partial landing, where K is ``fraction`` of the
    expected contributors, and (b) ``deadline_s`` past the first partial.
    Partials later than the window are *dropped*: the receiver refuses
    them, so they neither enter the aggregate nor occupy the Sigma's NIC
    (the broadcast does not queue behind a straggler's late bytes), and
    the functional trainer excludes the corresponding shards so the
    convergence impact is real.
    """

    fraction: float = 0.75
    deadline_s: float = 50e-3

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"quorum fraction must be in (0, 1], got {self.fraction}"
            )
        if not self.deadline_s > 0:
            raise ValueError(
                f"straggler deadline must be positive, got {self.deadline_s}"
            )

    def quorum(self, contributors: int) -> int:
        """Minimum partials that must be folded out of ``contributors``."""
        return max(1, math.ceil(self.fraction * contributors))


@dataclass
class IterationTiming:
    """Wall-clock breakdown of one mini-batch iteration."""

    total_s: float
    compute_s: float  # mean accelerator busy time across nodes
    compute_max_s: float
    network_s: float  # time from first send to last aggregate landing
    aggregation_busy_s: float  # CPU seconds spent folding partials
    broadcast_s: float
    management_s: float
    #: observability: bytes on the wire and Sigma receive-side pressure
    wire_bytes: int = 0
    wire_messages: int = 0
    sigma_rx_busy_s: float = 0.0
    sigma_count: int = 1
    #: quorum accounting: node ids whose partials entered the aggregate,
    #: and those dropped at a deadline (empty means everyone contributed)
    contributors: List[int] = field(default_factory=list)
    dropped: List[int] = field(default_factory=list)

    def sigma_rx_utilization(self) -> float:
        """Mean busy fraction of the Sigma NICs' receive sides — the
        pressure hierarchical aggregation exists to relieve."""
        if self.total_s <= 0 or self.sigma_count < 1:
            return 0.0
        return min(
            1.0, self.sigma_rx_busy_s / (self.sigma_count * self.total_s)
        )

    @property
    def communication_s(self) -> float:
        """Everything that is not accelerator compute (Figure 13's split)."""
        return max(0.0, self.total_s - self.compute_s)

    @property
    def compute_fraction(self) -> float:
        return self.compute_s / self.total_s if self.total_s else 0.0


ComputeFn = Callable[[int, int], float]
"""(node_id, samples) -> accelerator seconds for that node's share."""


class ClusterSimulator:
    """Timing simulation of the CoSMIC system software, one iteration at
    a time, by schedule replay (:mod:`repro.runtime.schedule`)."""

    #: Always None. Faulted clusters replay like healthy ones, so the
    #: simulator holds no fault context; ``perfbench/spans.py`` still
    #: reads the attribute when it keys iterations.
    faults = None

    def __init__(
        self,
        spec: ClusterSpec,
        compute_seconds: ComputeFn,
        update_bytes: int,
        topology: Optional[Topology] = None,
    ):
        """
        Args:
            spec: cluster shape and component parameters.
            compute_seconds: accelerator model for a node's local batch.
            update_bytes: size of one partial model update on the wire
                (the model size — Table 1's "Model Size" column).
            topology: explicit role assignment — the recovery layer passes
                a re-formed hierarchy over surviving node ids here;
                defaults to the Director's assignment for ``spec``.
        """
        if update_bytes <= 0:
            raise ValueError("model update must have positive size")
        self.spec = spec
        self.topology: Topology = (
            topology
            if topology is not None
            else assign_roles(spec.nodes, spec.groups)
        )
        self._compute_seconds = compute_seconds
        self.update_bytes = update_bytes

    def iteration(
        self,
        batch_samples: int,
        quorum: Optional[QuorumConfig] = None,
    ) -> IterationTiming:
        """Simulate one global mini-batch of ``batch_samples`` vectors.

        With ``quorum`` set, each Sigma (and the master) closes its
        aggregation window per :class:`QuorumConfig` instead of blocking
        on the slowest partial; the timing's ``dropped`` field lists the
        node ids whose partials missed the window.

        Every iteration replays the cluster's schedule
        (:mod:`repro.runtime.schedule`), which is derived from the
        topology, and the replayed timing is memoised in
        :data:`~repro.runtime.schedule.TIMINGS` by (roles, update size),
        then by (spec, quorum rule, per-node compute times); each role
        carries its group. The compute model is still invoked once per
        node per call (it may be stateful); different compute times mean
        a fresh replay. Faults need no other path: a degraded link is a
        slower ``spec.network``, a straggler a compute model that charges
        its node more time, and a crash or re-hierarchy arrives as a new
        ``topology``, each part of the key. Replayed results are
        bit-identical to the event-driven reference simulation in the
        tests, enforced by the differential property suites.
        """
        topo = self.topology
        per_node = max(1, batch_samples // topo.nodes)
        compute_times = [
            self._compute_seconds(role.node_id, per_node)
            for role in topo.roles
        ]
        timings = schedule.TIMINGS.setdefault(
            (tuple(topo.roles), self.update_bytes), {}
        )
        memo = (self.spec, quorum, tuple(compute_times))
        timing = timings.get(memo)
        if timing is None:
            timing = timings[memo] = schedule.replay_iteration(
                topo, self.spec, self.update_bytes, compute_times,
                quorum=quorum,
            )
        # Hand every caller its own list fields; the memoised instance must
        # stay pristine for the next hit.
        return replace(
            timing,
            contributors=list(timing.contributors),
            dropped=list(timing.dropped),
        )

    def epoch_seconds(
        self, dataset_samples: int, minibatch_per_node: int
    ) -> float:
        """One pass over the dataset: iterations x per-iteration time.

        ``minibatch_per_node`` is the paper's ``b`` — local samples
        processed before each aggregation (Section 2.2). A trailing
        partial mini-batch still costs one (smaller) iteration.
        """
        batch_global = minibatch_per_node * self.topology.nodes
        full, remainder = divmod(dataset_samples, batch_global)
        seconds = 0.0
        if full:
            seconds += full * self.iteration(batch_global).total_s
        if remainder or not full:
            seconds += self.iteration(max(1, remainder)).total_s
        return seconds

