"""CoSMIC system layer: roles, networking, thread pools, and training."""

from .async_sgd import (
    StaleTrainingResult,
    async_batch_seconds,
    stale_train,
    sync_batch_seconds,
)
from .checkpoint import Checkpoint, checkpoint_trainer, restore_trainer
from .cluster import (
    ClusterSimulator,
    ClusterSpec,
    IterationTiming,
    QuorumConfig,
)
from .faults import (
    FaultSpec,
    FaultTimeline,
    NodeCrash,
    Partition,
    apply_faults,
)
from .director import (
    ROLE_DELTA,
    ROLE_MASTER_SIGMA,
    ROLE_SIGMA,
    HeartbeatConfig,
    HeartbeatMonitor,
    NodeRole,
    Topology,
    assign_roles,
    default_groups,
    rebuild_topology,
    rehierarchy_seconds,
)
from .network import NetworkConfig, RetryPolicy
from .recovery import (
    SCENARIOS,
    ChaosResult,
    FaultToleranceConfig,
    RecoveryEvent,
    chaos_train,
    scenario_timeline,
)
from .schedule import (
    ScheduleTrace,
    replay_iteration,
    schedule_trace,
)
from .threads import CircularBuffer, PoolConfig, SigmaPipeline, WorkerPool
from .trainer import DistributedTrainer, TrainingResult

__all__ = [
    "ChaosResult",
    "Checkpoint",
    "checkpoint_trainer",
    "restore_trainer",
    "chaos_train",
    "CircularBuffer",
    "FaultTimeline",
    "FaultToleranceConfig",
    "HeartbeatConfig",
    "HeartbeatMonitor",
    "NodeCrash",
    "Partition",
    "QuorumConfig",
    "RecoveryEvent",
    "RetryPolicy",
    "SCENARIOS",
    "rebuild_topology",
    "rehierarchy_seconds",
    "scenario_timeline",
    "StaleTrainingResult",
    "async_batch_seconds",
    "stale_train",
    "sync_batch_seconds",
    "ClusterSimulator",
    "ClusterSpec",
    "DistributedTrainer",
    "FaultSpec",
    "apply_faults",
    "IterationTiming",
    "NetworkConfig",
    "NodeRole",
    "PoolConfig",
    "ROLE_DELTA",
    "ROLE_MASTER_SIGMA",
    "ROLE_SIGMA",
    "ScheduleTrace",
    "replay_iteration",
    "schedule_trace",
    "SigmaPipeline",
    "Topology",
    "TrainingResult",
    "WorkerPool",
    "assign_roles",
    "default_groups",
]
