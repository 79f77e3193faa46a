"""Property-based tests for the perf subsystem's determinism contracts.

Three invariants the whole PR rests on:

* memoising is invisible — a memoised plan equals the uncached one;
* vectorizing is invisible — the closed-form MIMD batch model equals the
  scalar reference cycle-for-cycle;
* the interpreter's precompiled execution plans equal the dynamic
  reference path bit-for-bit.

Both references live only here: ``scalar_run_batch`` steps the
round-robin memory interface one sample at a time, and
``reference_run`` re-derives every node's op dispatch and operand
alignment on each call.
"""

import math
from typing import Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfg import Interpreter, InterpreterError, ir, op_info
from repro.hw.accelerator import MimdBatchResult, MimdTimingModel
from repro.hw.spec import XILINX_VU9P
from repro.ml.benchmarks import benchmark
from repro.planner import Planner

SMALL_BENCHES = ("stock", "tumor", "face")


def scalar_run_batch(model: MimdTimingModel, samples: int) -> MimdBatchResult:
    """Reference for :meth:`MimdTimingModel.run_batch`: step the
    round-robin interface one sample at a time."""
    stream_per_sample = math.ceil(model.sample_words / model.columns)
    preload = math.ceil(model.preload_words / model.columns)
    drain = math.ceil(model.drain_words / model.columns) * model.threads
    interface_free = preload
    thread_free = [preload] * model.threads
    compute_bound = 0
    for s in range(samples):
        t = s % model.threads
        stream_start = interface_free
        stream_end = stream_start + stream_per_sample
        interface_free = stream_end
        compute_start = max(stream_end, thread_free[t])
        if thread_free[t] >= stream_end:
            compute_bound += 1
        thread_free[t] = compute_start + model.compute_cycles
    finish = max(thread_free) if samples else preload
    return MimdBatchResult(
        total_cycles=finish + drain,
        stream_cycles=interface_free - preload,
        compute_bound_threads=compute_bound,
        per_thread_finish=list(thread_free),
    )


def reference_run(interp: Interpreter, feeds, batch: bool = False):
    """Reference for :meth:`Interpreter.run`: no precompiled plan."""
    env = {}
    batch_size = interp._bind_inputs(feeds, env, batch)
    for node in interp.dfg.topo_order():
        env[node.output] = _execute(interp.dfg, node, env, batch, batch_size)
    return interp._collect_outputs(env)


def _execute(
    dfg: ir.Dfg, node: ir.Node, env, batch: bool, batch_size: Optional[int]
) -> np.ndarray:
    info = op_info(node.op)
    out_value = dfg.values[node.output]
    out_axes = out_value.axes
    if info.reduce:
        in_value = dfg.values[node.inputs[0]]
        arr = env[node.inputs[0]]
        arr = _with_batch(arr, in_value, batch)
        offset = 1 if batch else 0
        positions = tuple(
            offset + in_value.axes.index(a) for a in node.reduce_axes
        )
        return info.numpy_fn(arr, axis=positions)
    aligned = []
    for vid in node.inputs:
        value = dfg.values[vid]
        arr = _with_batch(env[vid], value, batch)
        aligned.append(_align(arr, value.axes, out_axes, batch))
    result = info.numpy_fn(*aligned)
    # Materialise broadcasts so the output has its declared shape.
    shape = dfg.shape(out_value)
    if batch:
        shape = (batch_size,) + shape
    if np.shape(result) != shape:
        result = np.broadcast_to(result, shape)
    return result


def _with_batch(arr: np.ndarray, value: ir.Value, batch: bool) -> np.ndarray:
    """Give every operand a leading batch dim in batch mode."""
    if not batch:
        return arr
    has_batch = (
        value.category == ir.DATA or np.ndim(arr) == len(value.axes) + 1
    )
    if has_batch:
        return arr
    return np.expand_dims(arr, 0)


def _align(
    arr: np.ndarray, in_axes: Tuple[str, ...], out_axes: Tuple[str, ...],
    batch: bool,
) -> np.ndarray:
    """Permute/expand ``arr`` so its trailing dims follow ``out_axes``."""
    offset = 1 if batch else 0
    if in_axes == out_axes:
        return arr
    present = [a for a in out_axes if a in in_axes]
    perm = list(range(offset)) + [offset + in_axes.index(a) for a in present]
    if np.ndim(arr) != offset + len(in_axes):
        raise InterpreterError(
            f"operand rank {np.ndim(arr)} does not match axes {in_axes}"
        )
    arr = np.transpose(arr, perm)
    index = [slice(None)] * offset + [
        slice(None) if a in in_axes else None for a in out_axes
    ]
    return arr[tuple(index)]


class TestCacheTransparency:
    @given(
        name=st.sampled_from(SMALL_BENCHES),
        minibatch=st.sampled_from([1_000, 10_000, 100_000]),
    )
    @settings(max_examples=15, deadline=None)
    def test_cached_plan_equals_uncached(self, name, minibatch):
        bench = benchmark(name)
        dfg = bench.translate().dfg
        planner = Planner(XILINX_VU9P)
        memoised = planner.plan(dfg, minibatch, bench.density)
        uncached = planner._plan_uncached(dfg, minibatch, bench.density, None)
        assert memoised == uncached
        assert memoised.seconds_for(minibatch) == uncached.seconds_for(
            minibatch
        )


class TestVectorizedMimdModel:
    @given(
        threads=st.integers(1, 64),
        compute=st.integers(1, 5_000),
        sample_words=st.integers(0, 2_000),
        columns=st.integers(1, 32),
        preload=st.integers(0, 10_000),
        drain=st.integers(0, 2_000),
        samples=st.integers(0, 3_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_vectorized_matches_scalar(
        self, threads, compute, sample_words, columns, preload, drain, samples
    ):
        model = MimdTimingModel(
            threads=threads,
            compute_cycles=compute,
            sample_words=sample_words,
            columns=columns,
            preload_words=preload,
            drain_words=drain,
        )
        fast = model.run_batch(samples)
        slow = scalar_run_batch(model, samples)
        assert fast == slow


class TestInterpreterPlans:
    @given(
        name=st.sampled_from(SMALL_BENCHES),
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 8),
    )
    @settings(max_examples=20, deadline=None)
    def test_precompiled_matches_reference(self, name, seed, batch):
        bench = benchmark(name)
        dfg = bench.translate(scaled=True).dfg
        rng = np.random.default_rng(seed)
        feeds = {}
        for value in dfg.inputs_of_category(ir.DATA):
            feeds[value.name] = rng.normal(
                size=(batch, *dfg.shape(value))
            )
        for value in dfg.inputs_of_category(ir.MODEL):
            feeds[value.name] = rng.normal(size=dfg.shape(value))
        interp = Interpreter(dfg)
        fast = interp.run(feeds, batch=True)
        slow = reference_run(interp, feeds, batch=True)
        assert fast.keys() == slow.keys()
        for key in fast:
            np.testing.assert_array_equal(fast[key], slow[key])
