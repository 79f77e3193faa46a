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
from ..dfg.interpreter import Interpreter
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
        if mode not in ("minibatch", "local_sgd"):
            raise ValueError(f"unknown mode {mode!r}")
        if epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {epochs}")
        samples = _sample_count(feeds)
        if minibatch_per_worker is None:
            minibatch_per_worker = max(
                1, self._translation.minibatch // self.workers
            )
        mu = (
            self._translation.learning_rate
            if learning_rate is None
            else learning_rate
        )
        global_batch = minibatch_per_worker * self.workers
        model = dict(model) if model else self.initial_model()
        result = TrainingResult(model=model)

        stopped = False
        for _ in range(epochs):
            order = self._rng.permutation(samples)
            for start in range(0, samples - global_batch + 1, global_batch):
                batch = order[start : start + global_batch]
                self.step(model, feeds, batch, self.workers, mu, mode=mode)
                result.iterations += 1
                if loss_fn is not None:
                    result.loss_history.append(loss_fn(model, feeds))
                if (
                    max_iterations is not None
                    and result.iterations >= max_iterations
                ):
                    stopped = True
                    break
            if stopped:
                break

        if self._cluster is not None and result.iterations:
            timing = self._cluster.iteration(global_batch)
            result.iteration_timing = timing
            result.simulated_seconds = timing.total_s * result.iterations
        result.model = model
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


def _sample_count(feeds: Feeds) -> int:
    for name, value in feeds.items():
        if np.ndim(value) == 0:
            raise ValueError(
                f"feed {name!r} is 0-d; every feed needs a leading sample axis"
            )
    counts = {np.shape(v)[0] for v in feeds.values()}
    if len(counts) != 1:
        raise ValueError("all feeds must share one leading sample axis")
    return counts.pop()
