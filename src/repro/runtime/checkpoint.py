"""In-memory training snapshots for master-failure rollback.

The fault-tolerant runtime (:func:`repro.runtime.recovery.chaos_train`)
snapshots the master's state every ``checkpoint_every`` iterations; when
the master dies, its promoted replacement restores the latest snapshot
and recomputes the lost iterations. The RNG state is the one at the
start of the snapshot's epoch, so the restore replays that epoch's
shuffle and continues bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass
class Checkpoint:
    """A restorable training snapshot."""

    model: Dict[str, np.ndarray]
    iterations: int
    epoch: int
    rng_state: dict
