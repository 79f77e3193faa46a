"""The System Director: role assignment, hierarchy, failure detection.

The Director takes the system specification — total node count, number of
groups, accelerator type — and assigns each node a role: every group has
one Sigma node aggregating its Delta nodes' partial updates, and a master
Sigma combines the group aggregates. Sigma nodes also compute their own
partial gradients, since they carry accelerators too.

The paper evaluates a healthy cluster; here the Director also owns the
fault-tolerance control plane: every node heartbeats the Director on a
fixed period, a node silent past the timeout is declared dead, and the
hierarchy is re-formed over the survivors — a dead group Sigma is
replaced by promoting one of its Deltas, a dead master Sigma by promoting
a surviving group Sigma, and a dead Delta's shard is redistributed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

ROLE_MASTER_SIGMA = "master_sigma"
ROLE_SIGMA = "sigma"
ROLE_DELTA = "delta"


@dataclass(frozen=True)
class NodeRole:
    """One node's place in the aggregation hierarchy."""

    node_id: int
    role: str
    group: int
    sigma_id: int  # the sigma this node reports to (itself for sigmas)


@dataclass
class Topology:
    """Role assignment for a cluster."""

    roles: List[NodeRole]
    groups: int

    @property
    def nodes(self) -> int:
        return len(self.roles)

    @property
    def master(self) -> NodeRole:
        return next(r for r in self.roles if r.role == ROLE_MASTER_SIGMA)

    def sigmas(self) -> List[NodeRole]:
        return [r for r in self.roles if r.role != ROLE_DELTA]

    def deltas_of(self, sigma_id: int) -> List[NodeRole]:
        return [
            r
            for r in self.roles
            if r.role == ROLE_DELTA and r.sigma_id == sigma_id
        ]

    def group_members(self, group: int) -> List[NodeRole]:
        return [r for r in self.roles if r.group == group]


def default_groups(nodes: int) -> int:
    """One group per ~8 nodes so no Sigma aggregates too many peers."""
    return max(1, math.ceil(nodes / 8))


def assign_roles(nodes: int, groups: Optional[int] = None) -> Topology:
    """Assign Sigma/Delta roles for ``nodes`` machines in ``groups`` groups.

    Node 0 is the master Sigma (and group 0's Sigma); the first node of
    each further group is that group's Sigma; everyone else is a Delta.
    """
    if nodes < 1:
        raise ValueError("cluster needs at least one node")
    groups = groups if groups is not None else default_groups(nodes)
    if groups < 1 or groups > nodes:
        raise ValueError(f"cannot split {nodes} nodes into {groups} groups")
    per_group = [nodes // groups] * groups
    for i in range(nodes % groups):
        per_group[i] += 1

    roles: List[NodeRole] = []
    node_id = 0
    for group, size in enumerate(per_group):
        sigma_id = node_id
        for offset in range(size):
            if offset == 0:
                role = ROLE_MASTER_SIGMA if group == 0 else ROLE_SIGMA
            else:
                role = ROLE_DELTA
            roles.append(NodeRole(node_id, role, group, sigma_id))
            node_id += 1
    return Topology(roles=roles, groups=groups)


# ---------------------------------------------------------------------------
# Heartbeat-based failure detection.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeartbeatConfig:
    """Failure-detector knobs: how often nodes beat, how long until dead.

    The Director checks liveness on every heartbeat tick; a node whose
    last beat is older than ``timeout_s`` is declared failed. Detection
    latency for a crash at time ``c`` is therefore bounded by
    ``period_s + timeout_s`` (the beat just missed plus the timeout,
    rounded up to the next tick).
    """

    period_s: float = 0.1
    timeout_s: float = 0.5

    def __post_init__(self):
        if self.period_s <= 0:
            raise ValueError(
                f"heartbeat period must be positive, got {self.period_s}"
            )
        if self.timeout_s < self.period_s:
            raise ValueError(
                f"timeout {self.timeout_s} shorter than the period "
                f"{self.period_s} would declare healthy nodes dead between "
                "beats"
            )

    def detection_at(self, crash_s: float) -> float:
        """Simulated time the Director declares a crash-at-``crash_s`` dead.

        The node's last beat was on the tick at or before the crash; the
        Director notices on the first tick after that beat ages past the
        timeout.
        """
        if crash_s < 0:
            raise ValueError("crash time cannot be negative")
        last_beat = math.floor(crash_s / self.period_s) * self.period_s
        deadline = last_beat + self.timeout_s
        return math.ceil(deadline / self.period_s - 1e-9) * self.period_s


# ---------------------------------------------------------------------------
# Hierarchy re-formation after failures.
# ---------------------------------------------------------------------------


def rebuild_topology(
    base: Topology,
    alive: Iterable[int],
    prefer_master: Optional[int] = None,
) -> Topology:
    """Re-form the Sigma/Delta hierarchy over the surviving nodes.

    Grouping follows ``base``: survivors stay in their group, a group
    whose Sigma died promotes its lowest-id survivor (an existing Sigma
    survivor wins), and a group with no survivors is dissolved. The
    master is ``prefer_master`` when it survived (failover stickiness —
    a previously promoted master keeps the role when old peers rejoin),
    else the base master, else the lowest-id group Sigma.

    Raises ``ValueError`` when nothing survives: with zero nodes there is
    no hierarchy to re-form and the run must abort.
    """
    alive_set: Set[int] = set(alive)
    survivors_by_group: Dict[int, List[NodeRole]] = {}
    for role in base.roles:
        if role.node_id in alive_set:
            survivors_by_group.setdefault(role.group, []).append(role)
    if not survivors_by_group:
        raise ValueError(
            "cannot re-form hierarchy: no surviving nodes in the cluster"
        )

    group_sigma: Dict[int, int] = {}
    for group, members in sorted(survivors_by_group.items()):
        ids = sorted(m.node_id for m in members)
        if prefer_master in ids:
            group_sigma[group] = prefer_master
            continue
        surviving_sigmas = sorted(
            m.node_id for m in members if m.role != ROLE_DELTA
        )
        group_sigma[group] = surviving_sigmas[0] if surviving_sigmas else ids[0]

    if prefer_master is not None and prefer_master in alive_set:
        master_id = prefer_master
    elif base.master.node_id in group_sigma.values():
        master_id = base.master.node_id
    else:
        master_id = min(group_sigma.values())

    roles: List[NodeRole] = []
    for new_group, group in enumerate(sorted(survivors_by_group)):
        sigma_id = group_sigma[group]
        for member in sorted(
            survivors_by_group[group], key=lambda r: r.node_id
        ):
            if member.node_id == sigma_id:
                role = (
                    ROLE_MASTER_SIGMA
                    if sigma_id == master_id
                    else ROLE_SIGMA
                )
            else:
                role = ROLE_DELTA
            roles.append(NodeRole(member.node_id, role, new_group, sigma_id))
    return Topology(roles=roles, groups=len(survivors_by_group))


def rehierarchy_seconds(survivors: int, network, management_overhead_s: float) -> float:
    """Control-plane cost of re-forming the hierarchy.

    The Director pushes one small role-assignment message to every
    survivor (connection handling dominates — the payload is bytes), then
    pays one management epoch to restart the iteration pipeline.
    """
    if survivors < 1:
        raise ValueError("re-hierarchy needs at least one survivor")
    return (
        survivors * network.per_message_overhead_s
        + network.latency_s
        + management_overhead_s
    )
