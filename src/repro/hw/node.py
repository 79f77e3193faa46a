"""One accelerator card processing one node's data partition (Figure 1).

``NodeAccelerator`` is the per-node compute object of the execution flow:
the node's partition ``D_i`` is divided into equal sub-partitions
``D_i1..D_im`` for the worker threads; each thread evaluates the gradient
DFG over its sub-partition; the tree-bus ALUs fold the thread partials
into the node's locally-aggregated partial update; and the MIMD timing
model prices the whole pass, memory streaming included.

Functionally the per-thread evaluation uses the batch interpreter (which
tests pin against the cycle-level :class:`ThreadSimulator`), so the node
really computes the numbers it would in hardware.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from ..dfg.interpreter import Interpreter, sample_count
from ..dfg.translate import Translation
from ..planner.plan import AcceleratorPlan
from .accelerator import MimdBatchResult, MimdTimingModel


@dataclass
class NodeResult:
    """Outcome of one partition pass on one accelerator."""

    partials: Dict[str, np.ndarray]  # node-level aggregated gradients
    samples: int
    timing: MimdBatchResult
    seconds: float
    thread_samples: Dict[int, int]

    @property
    def cycles(self) -> int:
        return self.timing.total_cycles


class NodeAccelerator:
    """The multi-threaded accelerator of one Delta/Sigma node."""

    def __init__(self, translation: Translation, plan: AcceleratorPlan):
        self._translation = translation
        self._interp = Interpreter(translation.dfg)
        self.plan = plan
        self.threads = plan.design.threads
        self._timing = MimdTimingModel.for_plan(plan)

    def process_partition(
        self,
        feeds: Mapping[str, np.ndarray],
        model: Mapping[str, np.ndarray],
    ) -> NodeResult:
        """Evaluate the node's partial update over a data partition.

        Args:
            feeds: DATA inputs with a leading sample axis (the partition).
            model: current MODEL parameters (broadcast to every thread).
        """
        samples = sample_count(feeds)
        if samples < 1:
            raise ValueError("partition must contain at least one sample")
        sizes = [len(s) for s in np.array_split(range(samples), self.threads)]
        spec = self._translation.aggregator
        # Threads past the sample count get no rows.
        bounds = [0, *itertools.accumulate(n for n in sizes if n)]
        partition = {k: np.ascontiguousarray(v) for k, v in feeds.items()}
        thread_partials = self._interp.shard_gradient_means(
            {**partition, **model}, bounds
        )
        # Local aggregation on the tree-bus ALUs (Figure 1): the node
        # ships one partial, not one per thread.
        partials: Dict[str, np.ndarray] = {}
        for name in thread_partials[0]:
            stack = np.stack([p[name] for p in thread_partials])
            if spec.kind == "sum":
                partials[name] = stack.sum(axis=0)
            else:
                partials[name] = stack.mean(axis=0)
        timing = self._timing.run_batch(samples)
        seconds = timing.total_cycles / self.plan.chip.frequency_hz
        return NodeResult(
            partials=partials,
            samples=samples,
            timing=timing,
            seconds=seconds,
            thread_samples=dict(enumerate(sizes)),
        )

    def seconds_for(self, samples: int) -> float:
        """Timing-only query (used by the cluster simulation)."""
        timing = self._timing.run_batch(samples)
        return timing.total_cycles / self.plan.chip.frequency_hz
