"""In-memory training snapshots for master-failure rollback.

The fault-tolerant runtime (:func:`repro.runtime.recovery.chaos_train`)
snapshots the master's state every ``checkpoint_every`` iterations; when
the master dies, its promoted replacement restores the latest snapshot
and recomputes the lost iterations. ``epoch`` and ``rng_state`` locate
the run's :class:`~repro.runtime.trainer.BatchSchedule`; its ``rewind``
redraws that epoch's shuffle, so the run continues bit-identically.
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
