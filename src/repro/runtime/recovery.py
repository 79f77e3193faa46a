"""Fault-tolerant runtime: detection, failover, and recovery under chaos.

The paper's system layer (Sections 3, 4.3) is evaluated on a healthy
16-node cluster; this module answers what happens when nodes die. It
drives the functional trainer and the discrete-event cluster model
iteration by iteration against a :class:`~repro.runtime.faults.FaultTimeline`,
applying the classic distributed-training fault machinery:

* **heartbeat detection** — every node beats the Director on a fixed
  period; a silent node is declared dead after the timeout
  (:class:`~repro.runtime.director.HeartbeatConfig`);
* **Sigma failover** — a dead group Sigma is replaced by promoting one
  of its Deltas, a dead master Sigma by promoting a surviving Sigma, and
  the hierarchy is re-formed over the survivors
  (:func:`~repro.runtime.director.rebuild_topology`);
* **shard redistribution** — a dead Delta's share of every mini-batch is
  re-split across the survivors (the global batch is preserved);
* **quorum aggregation** — optional graceful degradation where a Sigma
  folds K-of-N partials after a straggler deadline
  (:class:`~repro.runtime.cluster.QuorumConfig`); dropped partials are
  excluded from the *functional* aggregate too, so the convergence cost
  is real;
* **checkpoint recovery** — the master auto-checkpoints every N
  iterations; when the master dies, the promoted replacement restores
  the latest snapshot and recomputes the lost iterations.

Every recovery component is charged to the simulated wall-clock:
detection latency, the retry budget burned on in-flight messages to the
dead node, the Director's re-hierarchy broadcast, and recomputation all
appear in ``ChaosResult.simulated_seconds``. The whole machine is
deterministic — same timeline, same seed, bit-identical run — which the
property tests exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..dfg.translate import Translation
from .checkpoint import Checkpoint
from .cluster import ClusterSimulator, ClusterSpec, ComputeFn, QuorumConfig
from .director import (
    HeartbeatConfig,
    Topology,
    assign_roles,
    rebuild_topology,
    rehierarchy_seconds,
)
from .faults import FaultTimeline
from .network import RetryPolicy
from .trainer import DistributedTrainer, Feeds, LossFn, TrainingResult


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Knobs of the fault-tolerance machinery."""

    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    quorum: Optional[QuorumConfig] = None
    #: auto-checkpoint cadence in iterations
    checkpoint_every: int = 8

    def __post_init__(self):
        if self.checkpoint_every < 1:
            raise ValueError(
                "checkpoint cadence must be >= 1 iteration, got "
                f"{self.checkpoint_every}"
            )


@dataclass
class RecoveryEvent:
    """One fault handled by the runtime, with its full cost breakdown."""

    time_s: float  # simulated instant the fault struck
    kind: str  # "crash" | "partition" | "rejoin"
    nodes: List[int]
    detection_s: float = 0.0  # heartbeat silence until declared dead
    rehierarchy_s: float = 0.0  # retry budget + Director re-assignment
    rollback_iterations: int = 0  # iterations recomputed from checkpoint
    recompute_s: float = 0.0  # estimated cost of the recomputation
    total_s: float = 0.0  # end-to-end time-to-recovery for this fault
    promoted_master: Optional[int] = None  # new master, when failover ran


@dataclass
class ChaosResult(TrainingResult):
    """Outcome of a fault-injected training run."""

    events: List[RecoveryEvent] = field(default_factory=list)
    dropped_partials: int = 0
    checkpoints_taken: int = 0
    topology: Optional[Topology] = None

    @property
    def time_to_recovery_s(self) -> float:
        """Worst single-fault recovery time (0 for a healthy run)."""
        costs = [e.total_s for e in self.events if e.kind != "rejoin"]
        return max(costs) if costs else 0.0

    def throughput_retained(self, healthy_seconds: float) -> float:
        """Useful-iteration rate relative to a healthy run's."""
        if self.simulated_seconds <= 0 or healthy_seconds <= 0:
            return 0.0
        return healthy_seconds / self.simulated_seconds


def chaos_train(
    translation: Translation,
    feeds: Feeds,
    spec: ClusterSpec,
    compute_seconds: ComputeFn,
    update_bytes: int,
    timeline: FaultTimeline = FaultTimeline(),
    config: FaultToleranceConfig = FaultToleranceConfig(),
    epochs: int = 1,
    threads_per_node: int = 1,
    minibatch_per_worker: Optional[int] = None,
    loss_fn: Optional[LossFn] = None,
    mode: str = "minibatch",
    model: Optional[Dict[str, np.ndarray]] = None,
    learning_rate: Optional[float] = None,
    seed: int = 0,
) -> ChaosResult:
    """Train under an injected fault timeline, with full recovery.

    Each iteration steps ``DistributedTrainer.train``'s schedule through
    :meth:`DistributedTrainer.step` over the surviving workers; the
    timing runs through :class:`ClusterSimulator` over the current
    (possibly re-formed) topology. With an empty timeline and no quorum
    the run is bit-identical to ``DistributedTrainer.train``.
    """
    trainer = DistributedTrainer(
        translation, spec.nodes, threads_per_node, seed=seed
    )
    model, mu, schedule = trainer.prepare(
        feeds, epochs, minibatch_per_worker, mode, model, learning_rate
    )

    base_topo = assign_roles(spec.nodes, spec.groups)
    base_ids = {r.node_id for r in base_topo.roles}
    master = base_topo.master.node_id
    alive = {n for n in base_ids if timeline.up(n, 0.0, master)}
    result = ChaosResult(model=model)
    topo = base_topo
    if alive != base_ids:
        if not alive:
            raise ValueError("fault timeline downs every node at t=0")
        topo = rebuild_topology(base_topo, alive)
        master = topo.master.node_id
        result.events.append(
            RecoveryEvent(
                time_s=0.0,
                kind="crash",
                nodes=sorted(base_ids - alive),
                promoted_master=(
                    master if master != base_topo.master.node_id else None
                ),
            )
        )

    def snapshot(iterations: int) -> Checkpoint:
        return Checkpoint(
            model={k: np.array(v) for k, v in model.items()},
            iterations=iterations,
            epoch=schedule.epoch,
            rng_state=schedule.epoch_state,
        )

    last_ckpt = snapshot(0)

    def timing_for(topology: Topology):
        return ClusterSimulator(
            spec, compute_seconds, update_bytes, topology=topology
        ).iteration(schedule.global_batch, quorum=config.quorum)

    clock = 0.0
    it = 0
    while it < epochs * schedule.per_epoch:
        timing = timing_for(topo)
        iteration_end = clock + timing.total_s

        failed: Dict[int, float] = {}
        for node in sorted(alive):
            outage = timeline.first_outage_in(
                clock, iteration_end, node, master
            )
            if outage is not None:
                failed[node] = outage

        if failed:
            fault_t = min(failed.values())
            detected_at = config.heartbeat.detection_at(fault_t)
            detection_s = detected_at - fault_t
            # Survivors burn the retry budget on in-flight messages to
            # the dead node before giving up on it.
            abort_s = config.retry.give_up_after_s()
            alive = alive - set(failed)
            if not alive:
                raise RuntimeError(
                    f"fault timeline killed every node by t={fault_t:.3f}s"
                )
            master_died = master not in alive
            topo = rebuild_topology(
                base_topo,
                alive,
                prefer_master=None if master_died else master,
            )
            reh_s = abort_s + rehierarchy_seconds(
                len(alive), spec.network, spec.management_overhead_s
            )
            new_master = topo.master.node_id
            rollback = 0
            recompute_s = 0.0
            if master_died:
                # The authoritative model state died with the master:
                # the promoted Sigma restores the latest checkpoint (its
                # shuffle too) and the cluster recomputes the lost ones.
                rollback = it - last_ckpt.iterations
                model.update(
                    {k: np.array(v) for k, v in last_ckpt.model.items()}
                )
                del result.loss_history[last_ckpt.iterations:]
                it = last_ckpt.iterations
                schedule.rewind(last_ckpt.epoch, last_ckpt.rng_state)
                recompute_s = rollback * timing_for(topo).total_s
            kind = (
                "partition"
                if all(timeline.alive(n, t) for n, t in failed.items())
                else "crash"
            )
            clock = max(detected_at, fault_t) + reh_s
            result.events.append(
                RecoveryEvent(
                    time_s=fault_t,
                    kind=kind,
                    nodes=sorted(failed),
                    detection_s=detection_s,
                    rehierarchy_s=reh_s,
                    rollback_iterations=rollback,
                    recompute_s=recompute_s,
                    total_s=detection_s + reh_s + recompute_s,
                    promoted_master=new_master if master_died else None,
                )
            )
            master = new_master
            continue  # the interrupted iteration is redone, not counted

        # -- a clean iteration: functional step over the survivors ----------
        batch = schedule.batch(it)
        nodes_in_order = [
            r.node_id for r in sorted(topo.roles, key=lambda r: r.node_id)
        ]
        shards = len(nodes_in_order) * threads_per_node
        dropped_nodes = set(timing.dropped)
        drop = {
            index
            for index in range(shards)
            if nodes_in_order[index // threads_per_node] in dropped_nodes
        }
        trainer.step(model, feeds, batch, shards, mu, mode=mode, drop=drop)
        result.dropped_partials += len(dropped_nodes)
        clock = iteration_end
        it += 1
        if loss_fn is not None:
            result.loss_history.append(loss_fn(model, feeds))
        if it % config.checkpoint_every == 0:
            last_ckpt = snapshot(it)
            result.checkpoints_taken += 1

        # -- rejoins: recovered nodes re-enter at iteration boundaries ------
        returned = {
            n
            for n in base_ids - alive
            if timeline.up(n, clock, master)
        }
        if returned:
            alive |= returned
            topo = rebuild_topology(base_topo, alive, prefer_master=master)
            master = topo.master.node_id
            # State transfer: the rejoined node needs the current model.
            cost = (
                len(returned)
                * (
                    spec.network.wire_seconds(update_bytes)
                    + spec.network.per_message_overhead_s
                    + spec.network.latency_s
                )
                + spec.management_overhead_s
            )
            clock += cost
            result.events.append(
                RecoveryEvent(
                    time_s=clock,
                    kind="rejoin",
                    nodes=sorted(returned),
                    total_s=cost,
                )
            )

    result.iterations = it
    result.simulated_seconds = clock
    result.topology = topo
    return result


# ---------------------------------------------------------------------------
# Canned chaos scenarios (shared by the CLI and the tests).
# ---------------------------------------------------------------------------

SCENARIOS = (
    "healthy",
    "delta-crash",
    "sigma-crash",
    "master-crash",
    "crash-recover",
    "partition",
    "flaky",
)


def scenario_timeline(
    name: str,
    topology: Topology,
    iteration_s: float,
    seed: int = 7,
) -> FaultTimeline:
    """A canonical fault timeline for one named chaos scenario.

    Fault instants are keyed to ``iteration_s`` (a healthy iteration's
    simulated duration) so every scenario strikes a few iterations into
    the run regardless of the modelled hardware. Every scenario but
    ``healthy`` and ``flaky`` (which spares the master) faults a node,
    so on a single-node cluster it raises ``ValueError``.
    """
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}"
        )
    if name == "healthy":
        return FaultTimeline()
    if name != "flaky" and topology.nodes == 1:
        raise ValueError(
            f"scenario {name!r} needs at least 2 nodes: a single-node "
            "cluster has no other node to fault"
        )
    master = topology.master.node_id
    others = [r.node_id for r in topology.roles if r.node_id != master]
    deltas = [r.node_id for r in topology.roles if r.sigma_id != r.node_id]
    other_sigmas = [
        s.node_id for s in topology.sigmas() if s.node_id != master
    ]
    if name == "delta-crash":
        victim = deltas[-1] if deltas else others[0]
        return FaultTimeline.from_iterations(
            iteration_s, crashes={victim: 3.4}
        )
    if name == "sigma-crash":
        victim = other_sigmas[0] if other_sigmas else deltas[-1]
        return FaultTimeline.from_iterations(
            iteration_s, crashes={victim: 3.4}
        )
    if name == "master-crash":
        return FaultTimeline.from_iterations(
            iteration_s, crashes={master: 3.4}
        )
    if name == "crash-recover":
        victim = deltas[-1] if deltas else others[0]
        return FaultTimeline.from_iterations(
            iteration_s, crashes={victim: 2.4}, recoveries={victim: 6.7}
        )
    if name == "partition":
        far_group = max(r.group for r in topology.roles)
        island = [
            r.node_id
            for r in topology.group_members(far_group)
            if r.node_id != master
        ] or [deltas[-1]]
        return FaultTimeline.from_iterations(
            iteration_s, partitions=[(island, 2.4, 5.6)]
        )
    # "flaky": seeded random chaos sparing the master.
    return FaultTimeline.random(
        nodes=topology.nodes,
        horizon_s=10 * iteration_s,
        crash_probability=0.35,
        recover_fraction=0.5,
        seed=seed,
        spare=(master,),
    )

