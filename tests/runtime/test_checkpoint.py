"""In-memory checkpoints: a snapshot's model and RNG state are enough to
continue a run bit-identically."""

import numpy as np
import pytest

from repro.dfg.translate import translate
from repro.dsl.parser import parse
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.trainer import DistributedTrainer

LINREG = """
mu = 0.05;
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
"""


@pytest.fixture
def problem():
    rng = np.random.default_rng(3)
    n, N = 6, 512
    w = rng.normal(size=n)
    X = rng.normal(size=(N, n))
    Y = X @ w
    return translate(parse(LINREG), {"n": n}), {"x": X, "y": Y}


class TestResumption:
    def test_resumed_run_bit_identical(self, problem):
        """Train 4 epochs straight vs 2 + checkpoint + 2: same model."""
        t, feeds = problem

        straight = DistributedTrainer(t, nodes=2, threads_per_node=2, seed=5)
        full = straight.train(feeds, epochs=4, minibatch_per_worker=16)

        part1_trainer = DistributedTrainer(
            t, nodes=2, threads_per_node=2, seed=5
        )
        part1 = part1_trainer.train(feeds, epochs=2, minibatch_per_worker=16)
        ckpt = Checkpoint(
            model={k: np.array(v) for k, v in part1.model.items()},
            iterations=part1.iterations,
            epoch=2,
            rng_state=part1_trainer._rng.bit_generator.state,
        )

        resumed_trainer = DistributedTrainer(
            t, nodes=2, threads_per_node=2, seed=999  # wrong seed on purpose
        )
        resumed_trainer._rng.bit_generator.state = ckpt.rng_state
        part2 = resumed_trainer.train(
            feeds, epochs=2, minibatch_per_worker=16, model=ckpt.model
        )
        np.testing.assert_allclose(part2.model["w"], full.model["w"], rtol=0)
