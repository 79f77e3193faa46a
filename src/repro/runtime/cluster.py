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
from typing import Callable, Dict, List, Optional

from . import schedule
from .director import Topology, assign_roles
from .events import EventLoop
from .network import Network, NetworkConfig
from .threads import PoolConfig, SigmaPipeline


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
        if self.deadline_s <= 0:
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
    """Event-driven simulation of the CoSMIC system software."""

    def __init__(
        self,
        spec: ClusterSpec,
        compute_seconds: ComputeFn,
        update_bytes: int,
        topology: Optional[Topology] = None,
        faults=None,
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
            faults: fault context (a FaultSpec/FaultTimeline, or any
                truthy marker) under which this simulator runs. A faulted
                cluster's schedule differs from the healthy one, so any
                truthy value disables schedule replay and its timing memo
                — every call re-simulates event-driven.
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
        self.faults = faults

    def with_topology(self, topology: Topology) -> "ClusterSimulator":
        """The same cluster model over a re-formed hierarchy."""
        return ClusterSimulator(
            self.spec,
            self._compute_seconds,
            self.update_bytes,
            topology,
            faults=self.faults,
        )

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

        A healthy iteration with replay on re-times the cluster's recorded
        schedule (:mod:`repro.runtime.schedule`): the trace is recorded
        once per (roles, groups, update size) in
        :data:`~repro.runtime.schedule.TRACES`, and each replayed timing
        is memoised beside it by (spec, quorum rule, per-node compute
        times). The compute model is still invoked once per node per call
        (it may be stateful, e.g. straggler injection); different compute
        times mean a fresh replay. A fault context on the simulator, or
        ``replay_disabled()``, runs the event-driven simulation every time
        and never touches the table — faults change the schedule, so a
        faulted run must never see (or produce) a healthy-run trace.
        Replayed results are bit-identical to the event-driven simulation,
        enforced by the differential property suites.
        """
        topo = self.topology
        per_node = max(1, batch_samples // topo.nodes)
        compute_times = [
            self._compute_seconds(role.node_id, per_node)
            for role in topo.roles
        ]
        if self.faults or not schedule.replay_enabled():
            return self._iteration_uncached(quorum, compute_times)
        key = (tuple(topo.roles), topo.groups, self.update_bytes)
        if key not in schedule.TRACES:
            schedule.TRACES[key] = (schedule.record_schedule(self), {})
        trace, timings = schedule.TRACES[key]
        if trace.roles != key[0] or trace.update_bytes != self.update_bytes:
            raise RuntimeError(
                "schedule table returned a trace recorded for a different "
                "cluster; the table key is missing an input"
            )
        memo = (self.spec, quorum, tuple(compute_times))
        if memo not in timings:
            timings[memo] = schedule.replay_iteration(
                trace, self.spec, compute_times, quorum=quorum
            )
        timing = timings[memo]
        # Hand every caller its own list fields; the memoised instance must
        # stay pristine for the next hit.
        return replace(
            timing,
            contributors=list(timing.contributors),
            dropped=list(timing.dropped),
        )

    def _iteration_uncached(
        self,
        quorum: Optional[QuorumConfig],
        compute_times: List[float],
        recorder=None,
    ) -> IterationTiming:
        spec = self.spec
        topo = self.topology
        network = Network(EventLoop(), spec.network)
        network.recorder = recorder

        compute_done: Dict[int, float] = {}
        for role, seconds in zip(topo.roles, compute_times):
            compute_done[role.node_id] = spec.management_overhead_s + seconds

        first_send = min(compute_done.values())
        master = topo.master

        # Phase 2: deltas stream partial updates to their group sigma.
        # Sends are issued in start-time order: NIC Resources book FCFS in
        # call order, so a straggler issued early must not queue ahead of
        # messages that hit the wire before it.
        def deltas_to_sigmas(net: Network, skip):
            loop = EventLoop()
            net.use_loop(loop)
            pipes: Dict[int, SigmaPipeline] = {
                s.node_id: SigmaPipeline(spec.pools) for s in topo.sigmas()
            }
            own: Dict[int, float] = {}
            feeds: Dict[int, Dict[int, _Feeder]] = {}
            sends = []
            for sigma in topo.sigmas():
                pipeline = pipes[sigma.node_id]
                # The sigma folds its own accelerator's partial locally.
                own[sigma.group] = pipeline.fold_local(
                    compute_done[sigma.node_id], self.update_bytes
                )
                feeds[sigma.node_id] = {}
                for delta in topo.deltas_of(sigma.node_id):
                    if delta.node_id in skip:
                        continue
                    feeder = _Feeder(pipeline)
                    feeds[sigma.node_id][delta.node_id] = feeder
                    sends.append(
                        (
                            compute_done[delta.node_id],
                            delta.node_id,
                            sigma.node_id,
                            feeder,
                        )
                    )
            for start, delta_id, sigma_id, feeder in sorted(
                sends, key=lambda s: s[:2]
            ):
                net.send(
                    delta_id, sigma_id, self.update_bytes, start, on_chunk=feeder
                )
            loop.run()
            return pipes, own, feeds

        def close_groups(own, feeds):
            done: Dict[int, float] = {}
            members: Dict[int, List[int]] = {}
            late = set()
            for sigma in topo.sigmas():
                contributions = [(sigma.node_id, own[sigma.group])] + [
                    (delta_id, feeder.done)
                    for delta_id, feeder in feeds[sigma.node_id].items()
                ]
                included, out = _close_window(contributions, quorum)
                done[sigma.group] = max(t for _, t in included)
                members[sigma.group] = [node for node, _ in included]
                late.update(node for node, _ in out)
            return done, members, late

        # A dropped partial must not occupy the sigma's NIC — the receiver
        # refuses it, and everything after (the broadcast, the next
        # iteration) would otherwise queue behind bytes nobody wants. NIC
        # Resources cannot book out of order, so quorum mode first probes
        # a scratch network to learn who misses the window, then replays
        # on the real one with those sends withheld.
        skip2 = frozenset()
        if quorum is not None:
            _, own_probe, feeds_probe = deltas_to_sigmas(
                Network(EventLoop(), spec.network), skip2
            )
            _, _, late2 = close_groups(own_probe, feeds_probe)
            skip2 = frozenset(late2)
        pipelines, group_own, feeders = deltas_to_sigmas(network, skip2)
        group_done, group_members, _ = close_groups(group_own, feeders)

        # Phase 3: group aggregates -> master sigma (same quorum rule).
        # Fresh loop per pass: a quorum window may close before another
        # group's straggler chunks landed, so this phase's deliveries can
        # predate the previous loop's final event time.
        def sigmas_to_master(net: Network, skip):
            loop = EventLoop()
            net.use_loop(loop)
            pipe = SigmaPipeline(spec.pools)
            own = pipe.fold_local(group_done[master.group], self.update_bytes)
            feeds: Dict[int, _Feeder] = {}
            sends = []
            for sigma in topo.sigmas():
                if sigma.node_id == master.node_id or sigma.node_id in skip:
                    continue
                feeder = _Feeder(pipe)
                feeds[sigma.node_id] = feeder
                sends.append((group_done[sigma.group], sigma.node_id, feeder))
            for start, sigma_id, feeder in sorted(sends, key=lambda s: s[:2]):
                net.send(
                    sigma_id,
                    master.node_id,
                    self.update_bytes,
                    start,
                    on_chunk=feeder,
                )
            loop.run()
            return pipe, own, feeds

        def close_master(own, feeds):
            contributions = [(master.node_id, own)] + [
                (sigma_id, feeder.done) for sigma_id, feeder in feeds.items()
            ]
            return _close_window(contributions, quorum)

        skip3 = frozenset()
        if quorum is not None:
            # The probe replays phase 2 first so the master's RX NIC
            # carries the same bookings as the real network.
            probe = Network(EventLoop(), spec.network)
            deltas_to_sigmas(probe, skip2)
            _, own_probe, feeds_probe = sigmas_to_master(probe, skip3)
            _, out3 = close_master(own_probe, feeds_probe)
            skip3 = frozenset(node for node, _ in out3)
        master_pipe, own_group_done, master_feeders = sigmas_to_master(
            network, skip3
        )
        sigma_group = {s.node_id: s.group for s in topo.sigmas()}
        included_groups, _ = close_master(own_group_done, master_feeders)
        master_done = max(t for _, t in included_groups)
        contributors = sorted(
            node
            for sigma_id, _ in included_groups
            for node in group_members[sigma_group[sigma_id]]
        )
        dropped = sorted(
            r.node_id for r in topo.roles if r.node_id not in contributors
        )

        # Phase 4: hierarchical model broadcast.
        loop = EventLoop()
        network.use_loop(loop)
        broadcast_done = master_done
        for sigma in topo.sigmas():
            sigma_recv = master_done
            if sigma.node_id != master.node_id:
                sigma_recv = network.send(
                    master.node_id,
                    sigma.node_id,
                    self.update_bytes,
                    master_done,
                )
            broadcast_done = max(broadcast_done, sigma_recv)
            for delta in topo.deltas_of(sigma.node_id):
                arrival = network.send(
                    sigma.node_id,
                    delta.node_id,
                    self.update_bytes,
                    sigma_recv,
                )
                broadcast_done = max(broadcast_done, arrival)
        loop.run()

        total = broadcast_done + spec.management_overhead_s
        agg_busy = sum(
            p.aggregation.busy_seconds() for p in pipelines.values()
        ) + master_pipe.aggregation.busy_seconds()
        sigma_rx_busy = sum(
            network.nic(s.node_id).rx.busy_seconds for s in topo.sigmas()
        )
        return IterationTiming(
            total_s=total,
            compute_s=sum(compute_times) / len(compute_times),
            compute_max_s=max(compute_times),
            network_s=max(0.0, master_done - first_send),
            aggregation_busy_s=agg_busy,
            broadcast_s=broadcast_done - master_done,
            management_s=2 * spec.management_overhead_s,
            wire_bytes=network.bytes_sent,
            wire_messages=network.messages_sent,
            sigma_rx_busy_s=sigma_rx_busy,
            sigma_count=len(topo.sigmas()),
            contributors=contributors,
            dropped=dropped,
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


class _Feeder:
    """Feeds one sender's chunks into a SigmaPipeline, tracking when the
    last of them was folded — the sender's partial-complete time, which
    the quorum window is judged against."""

    def __init__(self, pipeline: SigmaPipeline):
        self._pipeline = pipeline
        self.done = 0.0

    def __call__(self, time: float, nbytes: int):
        self.done = max(self.done, self._pipeline.on_chunk(time, nbytes))


def _close_window(contributions, quorum: Optional[QuorumConfig]):
    """Split ``(node_id, finish_s)`` contributions at the quorum window.

    The window closes at the later of the K-th arrival (the quorum must
    be met even if it means waiting past the deadline) and the straggler
    deadline measured from the first arrival. Returns (included, dropped).
    """
    if quorum is None or len(contributions) <= 1:
        return list(contributions), []
    by_time = sorted(contributions, key=lambda c: (c[1], c[0]))
    k = quorum.quorum(len(by_time))
    close = max(by_time[k - 1][1], by_time[0][1] + quorum.deadline_s)
    included = [c for c in by_time if c[1] <= close + 1e-12]
    dropped = [c for c in by_time if c[1] > close + 1e-12]
    return included, dropped
