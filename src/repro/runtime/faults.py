"""Fault and variability injection for the cluster simulation.

The paper evaluates a healthy cluster; any production deployment of a
synchronous-aggregation design must also answer "what does one slow or
flaky node cost?". This module injects three deterministic, seedable
fault classes into :class:`repro.runtime.cluster.ClusterSimulator`:

* **stragglers** — a node's accelerator/host runs slower by a factor
  (thermal throttling, a noisy co-tenant, a degraded DIMM);
* **degraded links** — a node's NIC sustains a fraction of line rate
  (auto-negotiation fallback, a bad cable);
* **transient drops** — a fraction of a node's messages need a
  retransmit, adding a timeout penalty.

Because the aggregation in Eq. 3b is a barrier, iteration time is the max
over nodes — a single straggler is expected to dominate, which the
ablation benchmarks quantify.

Beyond degradation, the module also models *failure*: a
:class:`FaultTimeline` is a seedable, deterministic schedule of node
crashes (permanent or crash-then-recover) and network partitions, keyed
by node id and simulated time. The fault-tolerant runtime
(:mod:`repro.runtime.recovery`) consumes the timeline to drive heartbeat
detection, Sigma failover, and checkpoint-based recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault assignment for a cluster.

    Attributes map node id -> severity:
        straggler: compute-time multiplier (>1 is slower).
        link_quality: fraction of NIC line rate the node sustains (0-1].
        drop_rate: probability a message needs one retransmit.
        retransmit_timeout_s: the penalty per retransmitted message.
    """

    straggler: Dict[int, float] = field(default_factory=dict)
    link_quality: Dict[int, float] = field(default_factory=dict)
    drop_rate: Dict[int, float] = field(default_factory=dict)
    retransmit_timeout_s: float = 200e-3  # TCP RTO floor

    def __post_init__(self):
        for node, factor in self.straggler.items():
            if factor < 1.0:
                raise ValueError(
                    f"straggler factor for node {node} must be >= 1"
                )
        for node, quality in self.link_quality.items():
            if not 0.0 < quality <= 1.0:
                raise ValueError(
                    f"link quality for node {node} must be in (0, 1]"
                )
        for node, rate in self.drop_rate.items():
            if not 0.0 <= rate < 1.0:
                raise ValueError(
                    f"drop rate for node {node} must be in [0, 1); a rate "
                    "of 1 would mean every retransmit also drops, i.e. an "
                    "unreachable node — use a FaultTimeline crash for that"
                )
        if not self.retransmit_timeout_s > 0.0:
            raise ValueError(
                "retransmit timeout must be positive (a zero or negative "
                f"timeout makes drops free), got {self.retransmit_timeout_s}"
            )

    def compute_factor(self, node_id: int) -> float:
        return self.straggler.get(node_id, 1.0)

    def network_factor(self, node_id: int) -> float:
        """Effective wire-time multiplier for the node's messages."""
        quality = self.link_quality.get(node_id, 1.0)
        return 1.0 / quality

    def expected_retransmit_s(self, node_id: int) -> float:
        """Expected extra latency per message from transient drops."""
        rate = self.drop_rate.get(node_id, 0.0)
        if rate <= 0:
            return 0.0
        # Geometric retries: rate/(1-rate) expected retransmits.
        return self.retransmit_timeout_s * rate / (1.0 - rate)

    @classmethod
    def single_straggler(cls, node_id: int, factor: float) -> "FaultSpec":
        """The canonical experiment: one node ``factor``x slower."""
        return cls(straggler={node_id: factor})

    @classmethod
    def uniform_jitter(
        cls, nodes: int, sigma: float, seed: int = 0
    ) -> "FaultSpec":
        """Log-normal per-node compute variability (fleet heterogeneity)."""
        import numpy as np

        rng = np.random.default_rng(seed)
        factors = np.exp(np.abs(rng.normal(0.0, sigma, size=nodes)))
        return cls(
            straggler={i: float(max(1.0, f)) for i, f in enumerate(factors)}
        )


def faulty_compute(compute_seconds, faults: FaultSpec):
    """Wrap a ``(node_id, samples) -> seconds`` model with stragglers."""

    def wrapped(node_id: int, samples: int) -> float:
        return compute_seconds(node_id, samples) * faults.compute_factor(
            node_id
        )

    return wrapped


# ---------------------------------------------------------------------------
# Fault timeline: crashes, recoveries, and partitions over simulated time.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeCrash:
    """One node going down at ``at_s`` (and optionally back up).

    ``recover_s is None`` models a permanent failure (kernel panic, dead
    PSU); a finite ``recover_s`` models crash-then-recover (a reboot, an
    OOM-killed worker restarted by its supervisor).
    """

    node_id: int
    at_s: float
    recover_s: Optional[float] = None

    def __post_init__(self):
        if self.at_s < 0:
            raise ValueError(f"crash time must be >= 0, got {self.at_s}")
        if self.recover_s is not None and self.recover_s <= self.at_s:
            raise ValueError(
                f"node {self.node_id} recovery at {self.recover_s} must be "
                f"after its crash at {self.at_s}"
            )

    def down(self, t: float) -> bool:
        return self.at_s <= t and (
            self.recover_s is None or t < self.recover_s
        )


@dataclass(frozen=True)
class Partition:
    """A network partition isolating ``nodes`` during ``[start_s, end_s)``.

    Nodes inside the island can talk to each other; traffic across the
    cut is lost. Nodes on the far side of the cut from the master Sigma
    behave exactly like crashed nodes until the partition heals.
    """

    nodes: FrozenSet[int]
    start_s: float
    end_s: float

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        if not self.nodes:
            raise ValueError("a partition must isolate at least one node")
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ValueError(
                f"partition window [{self.start_s}, {self.end_s}) is empty "
                "or negative"
            )

    def active(self, t: float) -> bool:
        return self.start_s <= t < self.end_s

    def separates(self, a: int, b: int, t: float) -> bool:
        return self.active(t) and ((a in self.nodes) != (b in self.nodes))


@dataclass(frozen=True)
class FaultTimeline:
    """A deterministic schedule of crashes and partitions.

    The timeline is pure data: querying it never mutates state, so the
    same timeline replayed against the same seed yields bit-identical
    runs — the property tests rely on this.
    """

    crashes: Tuple[NodeCrash, ...] = ()
    partitions: Tuple[Partition, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        by_node: Dict[int, List[NodeCrash]] = {}
        for crash in self.crashes:
            by_node.setdefault(crash.node_id, []).append(crash)
        for node, events in by_node.items():
            events.sort(key=lambda c: c.at_s)
            for prev, cur in zip(events, events[1:]):
                if prev.recover_s is None or cur.at_s < prev.recover_s:
                    raise ValueError(
                        f"node {node} has overlapping crash intervals"
                    )

    def __bool__(self) -> bool:
        return bool(self.crashes or self.partitions)

    # -- queries -----------------------------------------------------------
    def alive(self, node_id: int, t: float) -> bool:
        return not any(
            c.node_id == node_id and c.down(t) for c in self.crashes
        )

    def isolated(self, a: int, b: int, t: float) -> bool:
        """True when a partition separates ``a`` from ``b`` at ``t``."""
        return any(p.separates(a, b, t) for p in self.partitions)

    def reachable(self, a: int, b: int, t: float) -> bool:
        """Both endpoints up and no partition across the path."""
        return (
            self.alive(a, t)
            and self.alive(b, t)
            and not self.isolated(a, b, t)
        )

    def up(self, node_id: int, t: float, anchor: int) -> bool:
        """Is ``node_id`` usable from ``anchor``'s (the master's) side?"""
        return self.alive(node_id, t) and not self.isolated(
            node_id, anchor, t
        )

    def change_times(self) -> List[float]:
        """Every instant the fault state changes, sorted ascending."""
        times = set()
        for c in self.crashes:
            times.add(c.at_s)
            if c.recover_s is not None:
                times.add(c.recover_s)
        for p in self.partitions:
            times.add(p.start_s)
            times.add(p.end_s)
        return sorted(times)

    def changes_in(self, t0: float, t1: float) -> List[float]:
        """Change instants in the half-open window ``(t0, t1]``."""
        return [t for t in self.change_times() if t0 < t <= t1]

    def first_outage_in(
        self, t0: float, t1: float, node_id: int, anchor: int
    ) -> Optional[float]:
        """Earliest change in ``(t0, t1]`` that takes ``node_id`` down."""
        for t in self.changes_in(t0, t1):
            if not self.up(node_id, t, anchor):
                return t
        return None

    # -- factories ---------------------------------------------------------
    @classmethod
    def from_iterations(
        cls,
        iteration_s: float,
        crashes: Optional[Dict[int, float]] = None,
        recoveries: Optional[Dict[int, float]] = None,
        partitions: Iterable[Tuple[Iterable[int], float, float]] = (),
    ) -> "FaultTimeline":
        """Build a timeline keyed by *iteration index* instead of seconds.

        ``crashes[node] = k`` downs the node ``k`` iterations in (fractions
        land mid-iteration); ``recoveries[node]`` brings it back.
        """
        if iteration_s <= 0:
            raise ValueError("iteration_s must be positive")
        crashes = crashes or {}
        recoveries = recoveries or {}
        for node in recoveries:
            if node not in crashes:
                raise ValueError(
                    f"node {node} recovers but never crashes"
                )
        crash_events = tuple(
            NodeCrash(
                node,
                at_s=k * iteration_s,
                recover_s=(
                    recoveries[node] * iteration_s
                    if node in recoveries
                    else None
                ),
            )
            for node, k in sorted(crashes.items())
        )
        partition_events = tuple(
            Partition(frozenset(nodes), k0 * iteration_s, k1 * iteration_s)
            for nodes, k0, k1 in partitions
        )
        return cls(crashes=crash_events, partitions=partition_events)

    @classmethod
    def random(
        cls,
        nodes: int,
        horizon_s: float,
        crash_probability: float = 0.2,
        recover_fraction: float = 0.5,
        seed: int = 0,
        spare: Iterable[int] = (0,),
    ) -> "FaultTimeline":
        """A seeded random chaos schedule (the ``flaky`` scenario).

        Nodes in ``spare`` never crash, guaranteeing survivors; every
        other node crashes with ``crash_probability``, and a crashed node
        recovers later with probability ``recover_fraction``.
        """
        import numpy as np

        rng = np.random.default_rng(seed)
        spare_set = set(spare)
        crashes = []
        for node in range(nodes):
            if node in spare_set:
                continue
            if rng.random() >= crash_probability:
                continue
            at = float(rng.uniform(0.1, 0.8) * horizon_s)
            recover = None
            if rng.random() < recover_fraction:
                recover = float(at + rng.uniform(0.1, 0.5) * horizon_s)
            crashes.append(NodeCrash(node, at, recover))
        return cls(crashes=tuple(crashes))


def apply_faults(simulator, faults: Optional[FaultSpec]):
    """Return a fault-injected clone of a ClusterSimulator.

    Stragglers wrap the compute model; link degradation scales the wire
    bandwidth of the cluster's network config (conservatively applying
    the worst degraded node to the shared aggregation paths, since the
    Sigma's receive schedule serialises on the slowest sender). The clone
    replays like any simulator: its degraded spec and straggler compute
    times are part of the iteration memo key.
    """
    from .cluster import ClusterSimulator

    if faults is None:
        return simulator
    spec = simulator.spec
    worst_link = max(
        (faults.network_factor(r.node_id) for r in simulator.topology.roles),
        default=1.0,
    )
    worst_retry = max(
        (
            faults.expected_retransmit_s(r.node_id)
            for r in simulator.topology.roles
        ),
        default=0.0,
    )
    network = replace(
        spec.network,
        bandwidth_bps=spec.network.bandwidth_bps / worst_link,
        latency_s=spec.network.latency_s + worst_retry,
    )
    return ClusterSimulator(
        replace(spec, network=network),
        faulty_compute(simulator._compute_seconds, faults),
        simulator.update_bytes,
        topology=simulator.topology,
    )
