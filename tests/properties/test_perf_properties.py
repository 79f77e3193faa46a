"""Property-based tests for the perf subsystem's determinism contracts.

Three invariants the whole PR rests on:

* memoising is invisible — a memoised plan equals the uncached one;
* vectorizing is invisible — the closed-form MIMD batch model equals the
  scalar reference cycle-for-cycle;
* the interpreter's precompiled execution plans equal the dynamic
  reference path bit-for-bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfg import Interpreter
from repro.hw.accelerator import MimdTimingModel
from repro.hw.spec import XILINX_VU9P
from repro.ml.benchmarks import benchmark
from repro.planner import Planner

SMALL_BENCHES = ("stock", "tumor", "face")


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
        fast = model.run_batch(samples, vectorized=True)
        slow = model.run_batch(samples, vectorized=False)
        assert fast == slow


class TestInterpreterPlans:
    @given(
        name=st.sampled_from(SMALL_BENCHES),
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 8),
    )
    @settings(max_examples=20, deadline=None)
    def test_precompiled_matches_reference(self, name, seed, batch):
        from repro.dfg import ir

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
        slow = interp.run_reference(feeds, batch=True)
        assert fast.keys() == slow.keys()
        for key in fast:
            np.testing.assert_array_equal(fast[key], slow[key])
