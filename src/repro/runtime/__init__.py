"""CoSMIC system layer: roles, networking, thread pools, and training."""

# Re-exported only for perfbench/, which imports these names from the
# package; everything else imports from the defining module.
from .cluster import (
    ClusterSimulator as ClusterSimulator,
    ClusterSpec as ClusterSpec,
    QuorumConfig as QuorumConfig,
)
from .director import assign_roles as assign_roles
from .recovery import (
    chaos_train as chaos_train,
    scenario_timeline as scenario_timeline,
)
from .trainer import DistributedTrainer as DistributedTrainer
