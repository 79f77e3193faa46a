"""End-to-end distributed training: functional semantics + simulated time.

The trainer executes the actual mathematics of Eq. 3 — every simulated
worker thread computes its partial update with the DFG interpreter over
its data sub-partition, and the Sigma hierarchy's aggregation operator
(mean or sum, from the DSL's aggregator section) combines them — while a
:class:`repro.runtime.cluster.ClusterSimulator` accounts the wall-clock
each iteration would take on the modelled hardware.

Two worker modes:

* ``"minibatch"`` — each worker computes one aggregate gradient over its
  shard and takes one step (the common distributed mini-batch SGD; fast,
  vectorised).
* ``"local_sgd"`` — each worker runs sequential per-sample SGD over its
  shard and the models are averaged (the literal parallelized SGD of
  Zinkevich et al. that Eq. 3 cites; used by tests for fidelity).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..dfg import ir
from ..dfg.interpreter import Interpreter, sample_count
from ..dfg.translate import Translation
from .cluster import ClusterSimulator, IterationTiming

Feeds = Dict[str, np.ndarray]
LossFn = Callable[[Mapping[str, np.ndarray], Feeds], float]


@dataclass
class TrainingResult:
    """Outcome of a simulated distributed training run."""

    model: Dict[str, np.ndarray]
    loss_history: List[float] = field(default_factory=list)
    iterations: int = 0
    simulated_seconds: float = 0.0
    iteration_timing: Optional[IterationTiming] = None

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


class BatchSchedule:
    """Which samples each iteration steps on, for ``train`` and
    ``chaos_train`` alike: iteration ``it`` takes slice
    ``it % per_epoch`` of its epoch's shuffle, drawn from ``rng`` when
    the epoch is first reached. ``epoch`` (the epoch drawn last) and
    ``epoch_state`` (the RNG state its draw began from) are what a
    checkpoint keeps."""

    def __init__(self, samples: int, global_batch: int, rng):
        self.samples = samples
        self.global_batch = global_batch
        self.per_epoch = samples // global_batch
        self._rng = rng
        self.rewind(0, rng.bit_generator.state)

    def batch(self, it: int) -> np.ndarray:
        epoch, slot = divmod(it, self.per_epoch)
        if epoch != self.epoch:
            self.rewind(epoch, self._rng.bit_generator.state)
        start = slot * self.global_batch
        return self._order[start : start + self.global_batch]

    def rewind(self, epoch: int, rng_state: dict) -> None:
        """Draw ``epoch``'s shuffle from ``rng_state``; the RNG ends past
        that draw, where the next epoch's shuffle begins."""
        self._rng.bit_generator.state = rng_state
        self.epoch = epoch
        self.epoch_state = rng_state
        self._order = self._rng.permutation(self.samples)


class DistributedTrainer:
    """Trains one DSL program across simulated nodes and threads."""

    def __init__(
        self,
        translation: Translation,
        nodes: int = 1,
        threads_per_node: int = 1,
        cluster: Optional[ClusterSimulator] = None,
        seed: int = 0,
    ):
        if nodes < 1 or threads_per_node < 1:
            raise ValueError("need at least one node and one thread")
        self._translation = translation
        self._interp = Interpreter(translation.dfg)
        self.nodes = nodes
        self.threads_per_node = threads_per_node
        self.workers = nodes * threads_per_node
        self._cluster = cluster
        self._rng = np.random.default_rng(seed)

    # -- model handling ----------------------------------------------------
    def initial_model(self, scale: float = 0.0) -> Dict[str, np.ndarray]:
        """Zero (or small random) arrays for every MODEL input."""
        model: Dict[str, np.ndarray] = {}
        for value in self._translation.dfg.inputs_of_category(ir.MODEL):
            shape = self._translation.dfg.shape(value)
            if scale:
                model[value.name] = self._rng.normal(scale=scale, size=shape)
            else:
                model[value.name] = np.zeros(shape)
        return model

    # -- training ------------------------------------------------------------
    def prepare(
        self,
        feeds: Feeds,
        epochs: int,
        minibatch_per_worker: Optional[int],
        mode: str,
        model: Optional[Dict[str, np.ndarray]],
        learning_rate: Optional[float],
    ) -> Tuple[Dict[str, np.ndarray], float, BatchSchedule]:
        """Check a run's arguments; return its starting model (a copy of
        ``model``, default zeros), its ``mu`` and its batch schedule,
        which shuffles with this trainer's RNG."""
        if mode not in ("minibatch", "local_sgd"):
            raise ValueError(f"unknown mode {mode!r}")
        if epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {epochs}")
        samples = sample_count(feeds)
        if minibatch_per_worker is None:
            minibatch_per_worker = max(
                1, self._translation.minibatch // self.workers
            )
        global_batch = minibatch_per_worker * self.workers
        if samples < global_batch:
            raise ValueError(
                f"dataset of {samples} samples is smaller than one global "
                f"mini-batch of {global_batch}"
            )
        if learning_rate is None:
            learning_rate = self._translation.learning_rate
        model = dict(model) if model else self.initial_model()
        schedule = BatchSchedule(samples, global_batch, self._rng)
        return model, learning_rate, schedule

    def train(
        self,
        feeds: Feeds,
        epochs: int = 1,
        minibatch_per_worker: Optional[int] = None,
        loss_fn: Optional[LossFn] = None,
        mode: str = "minibatch",
        model: Optional[Dict[str, np.ndarray]] = None,
        learning_rate: Optional[float] = None,
        max_iterations: Optional[int] = None,
    ) -> TrainingResult:
        """Run distributed training over ``feeds``.

        Args:
            feeds: DATA input name -> array with a leading sample axis.
            epochs: passes over the dataset.
            minibatch_per_worker: the paper's ``b`` divided among worker
                threads; defaults to the DSL-declared mini-batch spread
                over the workers.
            loss_fn: optional metric recorded once per iteration.
            mode: ``"minibatch"`` or ``"local_sgd"``.
            model: starting parameters (default: zeros).
            learning_rate: overrides the DSL ``mu``.
            max_iterations: stop after this many iterations, mid-epoch
                if need be.
        """
        model, mu, schedule = self.prepare(
            feeds, epochs, minibatch_per_worker, mode, model, learning_rate
        )
        result = TrainingResult(model=model)
        iterations = epochs * schedule.per_epoch
        if max_iterations is not None:
            if max_iterations < 1:
                raise ValueError(
                    f"max_iterations must be at least 1, got {max_iterations}"
                )
            iterations = min(iterations, max_iterations)
        for it in range(iterations):
            batch = schedule.batch(it)
            self.step(model, feeds, batch, self.workers, mu, mode=mode)
            if loss_fn is not None:
                result.loss_history.append(loss_fn(model, feeds))
        result.iterations = iterations
        if self._cluster is not None:
            timing = self._cluster.iteration(schedule.global_batch)
            result.iteration_timing = timing
            result.simulated_seconds = timing.total_s * iterations
        return result

    def step(
        self,
        model: Dict[str, np.ndarray],
        feeds: Feeds,
        batch: np.ndarray,
        shards: int,
        mu: float,
        mode: str = "minibatch",
        drop: Iterable[int] = (),
    ) -> bool:
        """One synchronous iteration over the sample indices ``batch``,
        split into ``shards`` contiguous shards as ``np.array_split``
        splits them (the first ``len(batch) % shards`` are one longer).

        ``drop`` names shard indices whose partials never reached the
        aggregate — quorum-dropped stragglers or crashed workers. The
        aggregation runs over the survivors only, so degraded-mode
        convergence effects are real rather than modelled. Returns False
        (model untouched) when every shard was dropped or empty.
        """
        size, extra = divmod(len(batch), shards)
        starts = [i * size + min(i, extra) for i in range(shards + 1)]
        dropped = set(drop)
        spans = [
            (starts[i], starts[i + 1])
            for i in range(shards)
            if i not in dropped and starts[i + 1] > starts[i]
        ]
        if not spans:
            return False
        if mode == "minibatch":
            if dropped:
                batch = np.concatenate([batch[lo:hi] for lo, hi in spans])
            self._step_minibatch(model, feeds, batch, spans, mu)
        elif mode == "local_sgd":
            self._step_local_sgd(model, feeds, batch, spans, mu)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return True

    # -- worker semantics ---------------------------------------------------
    def _step_minibatch(
        self,
        model: Dict[str, np.ndarray],
        feeds: Feeds,
        rows: np.ndarray,
        spans: List[Tuple[int, int]],
        mu: float,
    ):
        """``rows`` holds the surviving shards back to back; only the
        lengths of their ``spans`` matter here."""
        spec = self._translation.aggregator
        batch = {k: v[rows] for k, v in feeds.items()}
        batch.update(model)
        bounds = [0, *itertools.accumulate(hi - lo for lo, hi in spans)]
        partials = self._interp.shard_gradient_means(batch, bounds)
        for target, source in spec.pairs:
            stack = np.stack([p[source] for p in partials])
            agg = stack.mean(axis=0) if spec.kind == "mean" else stack.sum(axis=0)
            model[target] = model[target] - mu * agg

    def _step_local_sgd(
        self,
        model: Dict[str, np.ndarray],
        feeds: Feeds,
        batch: np.ndarray,
        spans: List[Tuple[int, int]],
        mu: float,
    ):
        """Eq. 3a literally: each worker runs SGD on a model replica."""
        spec = self._translation.aggregator
        replicas: List[Dict[str, np.ndarray]] = []
        for lo, hi in spans:
            replica = {k: v.copy() for k, v in model.items()}
            for sample in batch[lo:hi]:
                sample_feeds = {k: v[sample] for k, v in feeds.items()}
                grads = self._interp.gradients({**sample_feeds, **replica})
                for target, source in spec.pairs:
                    replica[target] = replica[target] - mu * grads[source]
            replicas.append(replica)
        for name in model:
            stack = np.stack([r[name] for r in replicas])
            if spec.kind == "mean":
                model[name] = stack.mean(axis=0)
            else:
                model[name] = model[name] + (stack - model[name]).sum(axis=0)
