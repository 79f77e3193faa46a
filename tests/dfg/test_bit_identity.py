"""Bit-identity of the DFG interpreter and the trainer step built on it.

Every Table 1 benchmark is run through :class:`Interpreter` under both
translations (paper-scale and functional), with and without a leading
batch axis, against seeded feeds and two models: a seeded nonzero one
and all zeros. Each benchmark also trains briefly with
:class:`DistributedTrainer` in both worker modes. One SHA-256 pins the
bytes of every output, every loss and every final model.

The digest below was recorded from the commit *before* the interpreter
fused ``mul -> reduce_sum`` pairs into one contraction and fixed its
operand views at compile time. Those rewrites must not move a single
bit. Regenerate the digest only for a deliberate change to the
interpreter's arithmetic.
"""

import hashlib

import numpy as np

from repro.dfg import Interpreter, ir
from repro.ml import BENCHMARKS
from repro.runtime.trainer import DistributedTrainer

#: SHA-256 of the canonical bytes below, recorded at the parent commit.
PARENT_DIGEST = (
    "5324c199a7e7ce687196f863cc0616db90392137500121ce0dd348e20595ee13"
)

BATCH = 3


def _feeds(dfg: ir.Dfg, rng, batch: bool, zero_model: bool):
    feeds = {}
    for value in dfg.inputs_of_category(ir.DATA):
        prefix = (BATCH,) if batch else ()
        feeds[value.name] = rng.normal(size=prefix + dfg.shape(value))
    for value in dfg.inputs_of_category(ir.MODEL):
        shape = dfg.shape(value)
        feeds[value.name] = (
            np.zeros(shape) if zero_model else rng.normal(size=shape)
        )
    return feeds


def _update(digest, label: str, arrays):
    digest.update(label.encode())
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}{arr.shape}{arr.dtype}".encode())
        digest.update(arr.tobytes())


def interpreter_digest() -> str:
    digest = hashlib.sha256()
    for bench in BENCHMARKS:
        for scaled in (False, True):
            interp = Interpreter(bench.translate(scaled=scaled).dfg)
            for batch in (False, True):
                for zero_model in (False, True):
                    rng = np.random.default_rng(1)
                    feeds = _feeds(interp.dfg, rng, batch, zero_model)
                    label = f"{bench.name} {scaled} {batch} {zero_model}"
                    _update(digest, label, interp.run(feeds, batch=batch))
                    _update(
                        digest,
                        label + " gradients",
                        interp.gradients(feeds, batch=batch),
                    )
    return digest.hexdigest()


def trainer_digest() -> str:
    digest = hashlib.sha256()
    for bench in BENCHMARKS:
        dataset = bench.make_dataset(samples=48, seed=1)
        for mode, iterations in (("minibatch", None), ("local_sgd", 2)):
            trainer = DistributedTrainer(
                bench.translate(scaled=True),
                nodes=2,
                threads_per_node=2,
                seed=1,
            )
            result = trainer.train(
                dataset.feeds,
                epochs=2,
                minibatch_per_worker=4,
                loss_fn=dataset.loss,
                mode=mode,
                model=trainer.initial_model(scale=0.2),
                max_iterations=iterations,
            )
            label = f"{bench.name} {mode} {result.iterations}"
            digest.update(
                " ".join(float(x).hex() for x in result.loss_history).encode()
            )
            _update(digest, label, result.model)
    return digest.hexdigest()


def test_interpreter_and_trainer_match_parent_digest():
    text = interpreter_digest() + trainer_digest()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PARENT_DIGEST
