"""Bit-identity of the DFG interpreter and the trainer step built on it.

Every Table 1 benchmark is run through :class:`Interpreter` under both
translations (paper-scale and functional), with and without a leading
batch axis, against seeded feeds and two models: a seeded nonzero one
and all zeros. Each benchmark also trains briefly with
:class:`DistributedTrainer` in both worker modes. Each artifact (one
run's outputs, its gradients, a training run's loss history, its final
model and iteration count) is pinned by a SHA-256 of its bytes in the
committed map ``tests/golden/dfg_interpreter.json``, so a failure names
the artifacts that moved.

The map was recorded in the same run as the one whole-run digest it
replaced, which dated from before the interpreter fused ``mul ->
reduce_sum`` pairs into one contraction and fixed its operand views at
compile time; those rewrites moved no bit. Regenerate the map only for
a deliberate change to the interpreter's arithmetic::

    PYTHONPATH=src:. python -c "import sys; from tests.dfg.test_bit_identity import artifact_digests; from tests.golden_diff import digests_json; sys.stdout.write(digests_json(artifact_digests()))" > tests/golden/dfg_interpreter.json
"""

import hashlib

import numpy as np

from repro.dfg import ir
from repro.dfg.interpreter import Interpreter
from repro.ml.benchmarks import BENCHMARKS
from repro.runtime.trainer import DistributedTrainer
from tests.golden_diff import assert_digests_match

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


def _array_bytes(label: str, arrays) -> bytes:
    """The pinned bytes of named arrays: a label, then each array's
    name, shape, dtype and raw bytes, by name."""
    chunks = [label.encode()]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        chunks.append(f"{name}{arr.shape}{arr.dtype}".encode())
        chunks.append(arr.tobytes())
    return b"".join(chunks)


def interpreter_artifacts():
    """Yield ``(key, data)`` for every interpreter run and its
    gradients; ``data`` is the artifact's pinned bytes."""
    for bench in BENCHMARKS:
        for scaled in (False, True):
            interp = Interpreter(bench.translate(scaled=scaled).dfg)
            translation = "functional" if scaled else "paper-scale"
            for batch in (False, True):
                for zero_model in (False, True):
                    rng = np.random.default_rng(1)
                    feeds = _feeds(interp.dfg, rng, batch, zero_model)
                    label = f"{bench.name} {scaled} {batch} {zero_model}"
                    axis = "batch" if batch else "sample"
                    kind = "zero-model" if zero_model else "seeded-model"
                    key = f"{bench.name} {translation} {axis} {kind}"
                    yield f"{key} outputs", _array_bytes(
                        label, interp.run(feeds, batch=batch)
                    )
                    yield f"{key} gradients", _array_bytes(
                        label + " gradients",
                        interp.gradients(feeds, batch=batch),
                    )


def trainer_artifacts():
    """Yield ``(key, data)`` for every training run's loss history and
    final model (whose label carries the iteration count)."""
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
            yield f"{bench.name} {mode} loss_history", " ".join(
                float(x).hex() for x in result.loss_history
            ).encode()
            yield f"{bench.name} {mode} model", _array_bytes(
                label, result.model
            )


def artifact_digests():
    digests = {}
    for artifacts in (interpreter_artifacts(), trainer_artifacts()):
        for key, data in artifacts:
            digests[key] = hashlib.sha256(data).hexdigest()
    return digests


def test_interpreter_and_trainer_match_golden_digests():
    assert_digests_match(artifact_digests(), "dfg_interpreter.json")
