"""Failure schedules for the fault-tolerant cluster runtime.

The paper evaluates a healthy cluster; a production deployment of a
synchronous-aggregation design must also survive parts of it going away.
A :class:`FaultTimeline` is a seedable, deterministic schedule of node
crashes (permanent or crash-then-recover) and network partitions, keyed
by node id and simulated time. The fault-tolerant runtime
(:mod:`repro.runtime.recovery`) consumes the timeline to drive heartbeat
detection, Sigma failover, and checkpoint-based recovery.

A slow node or a slow link needs no type of its own: a straggler is a
compute model that returns longer times for that node, and a degraded
link is a :class:`~repro.runtime.network.NetworkConfig` with less
bandwidth or more latency. :class:`~repro.runtime.cluster.ClusterSimulator`
takes both directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple


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

