"""Property-based tests for the perf subsystem's determinism contracts.

Four invariants the perf subsystem rests on:

* memoising is invisible — a plan, sweep or TABLA plan on a graph that
  has been planned before equals the same call on a fresh translation;
* timing design points as scalars is invisible — the Planner's and
  TABLA's choices equal the old fold over one plan per design point,
  and a plan's step time equals the formula it had when it re-derived
  every term per call;
* vectorizing is invisible — the closed-form MIMD batch model equals the
  scalar reference cycle-for-cycle;
* the interpreter's precompiled execution plans, including the einsum
  steps that fuse ``mul -> reduce_sum``, equal the dynamic reference
  path bit-for-bit, and each shard's gradient mean from one pass over
  all shards equals the mean of that shard's own per-sample gradients.

The references live only here: ``scalar_run_batch`` steps the
round-robin memory interface one sample at a time, ``reference_run``
re-derives every node's op dispatch and operand alignment on each call,
materialising every product it reduces, and ``reference_plan`` and
``reference_tabla_plan`` fold over one plan per design point, each
timed by ``reference_seconds``.
"""

import functools
import math
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.tabla import TABLA_PARAMS, TablaModel
from repro.dfg import ir
from repro.dfg.interpreter import Interpreter, InterpreterError
from repro.dfg.ops import op_info
from repro.dfg.translate import translate
from repro.dsl.parser import parse
from repro.hw.accelerator import MimdBatchResult, MimdTimingModel
from repro.hw.spec import PASIC_F, PASIC_G, XILINX_VU9P
from repro.ml.benchmarks import BENCHMARKS, benchmark
from repro.planner.estimator import FLAT, CostParams
from repro.planner.plan import AcceleratorPlan, Planner

SMALL_BENCHES = ("stock", "tumor", "face")
#: mnist and movielens have fusable ``mul -> reduce_sum`` pairs.
INTERPRETER_BENCHES = SMALL_BENCHES + ("mnist", "movielens")

#: Signed zeros, subnormals and infinities: with finite magnitudes from
#: 1e-300 to 1e300, the values the fused contraction must reproduce bit
#: for bit (see ``numpy_edge_floats``).
SPECIAL_FLOATS = np.array(
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-310, -1e-320]
)


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
    return interp._collect(env, interp._outputs)


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


def fresh_graph(bench) -> ir.Dfg:
    """A new paper-scale translation: no plan, profile or size memo."""
    return translate(parse(bench.source()), bench.dims).dfg


#: The one graph every example of the shared-graph property plans, so
#: its memos build up across examples in hypothesis's order; movielens
#: has sparse inputs, so density changes its stream words.
SHARED_BENCH = benchmark("movielens")
SHARED_GRAPH = fresh_graph(SHARED_BENCH)

#: Chips the DSE is run on: Figure 15's PE and bandwidth variants of the
#: VU9P (which share the estimates of the points they have in common)
#: and both P-ASICs.
CHIPS = st.one_of(
    st.builds(
        lambda pes, rows: XILINX_VU9P.scaled(
            dsp_slices=pes * XILINX_VU9P.dsp_per_pe, max_rows=rows
        ),
        st.sampled_from([192, 384, 768, 3072, 6144]),
        st.integers(1, 96),
    ),
    st.builds(
        lambda x: XILINX_VU9P.scaled(
            bandwidth_bytes=XILINX_VU9P.bandwidth_bytes * x
        ),
        st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    ),
    st.sampled_from([PASIC_F, PASIC_G]),
)

PARAMS = st.sampled_from(
    [
        CostParams(),
        TABLA_PARAMS,
        CostParams(interconnect=FLAT),
        CostParams(mapping="ops_first"),
        CostParams(overlap_stream=False),
    ]
)


def _design_space(graph, kind, chip, params, minibatch, density):
    if kind == "plan":
        return Planner(chip, params).plan(graph, minibatch, density)
    if kind == "sweep":
        return Planner(chip, params).sweep(graph, minibatch, density)
    return TablaModel(chip).plan(graph, minibatch, density)


class TestCacheTransparency:
    @given(
        name=st.sampled_from(SMALL_BENCHES),
        minibatch=st.sampled_from([1_000, 10_000, 100_000]),
    )
    @settings(max_examples=15, deadline=None)
    def test_cached_plan_equals_uncached(self, name, minibatch):
        bench = benchmark(name)
        memoised = Planner(XILINX_VU9P).plan(
            bench.translate().dfg, minibatch, bench.density
        )
        fresh = Planner(XILINX_VU9P).plan(
            fresh_graph(bench), minibatch, bench.density
        )
        assert memoised == fresh
        assert memoised.seconds_for(minibatch) == fresh.seconds_for(
            minibatch
        )

    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from(["plan", "sweep", "tabla"]),
                CHIPS,
                PARAMS,
                st.sampled_from([1_000, 10_000]),
                st.sampled_from([None, {"xu": 0.25}, SHARED_BENCH.density]),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_shared_graph_equals_fresh_graph(self, calls):
        """Plans, sweeps and TABLA plans on one graph, in any order, on
        any mix of chips, cost params and densities, equal the same call
        on a graph that has never been planned, estimates included."""
        for kind, chip, params, minibatch, density in calls:
            shared = _design_space(
                SHARED_GRAPH, kind, chip, params, minibatch, density
            )
            fresh = _design_space(
                fresh_graph(SHARED_BENCH), kind, chip, params, minibatch,
                density,
            )
            assert shared == fresh


def reference_seconds(plan: AcceleratorPlan, samples: int) -> float:
    """``seconds_for`` as it was, re-deriving every term on each call."""
    chip, design, word = plan.chip, plan.design, plan.chip.word_bytes
    broadcast = plan.model_words * word / chip.bandwidth_bytes
    drain = plan.gradient_words * word / chip.bandwidth_bytes
    merge_cycles = math.ceil(plan.gradient_words / design.columns) * max(
        1, math.ceil(math.log2(design.threads + 1))
    )
    io = broadcast + drain + merge_cycles / chip.frequency_hz
    if samples <= 0:
        return io
    per_thread = math.ceil(samples / design.threads)
    compute = per_thread * (plan.thread_estimate.cycles / chip.frequency_hz)
    stream = samples * (plan.data_words_per_sample * word) / (
        chip.bandwidth_bytes * plan.params.stream_efficiency
    )
    if plan.params.overlap_stream:
        body = max(compute, stream)
    else:
        body = compute + stream
    return body + io


def reference_better(a, b) -> bool:
    """The Planner's rule on ``(seconds, plan)`` pairs: faster wins;
    within 1% the design with fewer PEs wins."""
    (ta, plan_a), (tb, plan_b) = a, b
    if ta < 0.99 * tb:
        return True
    if tb < 0.99 * ta:
        return False
    return plan_a.design.total_pes < plan_b.design.total_pes


def reference_fold(plans, minibatch, better) -> AcceleratorPlan:
    """Time every plan, then fold in enumeration order under ``better``."""
    timed = [(reference_seconds(plan, minibatch), plan) for plan in plans]
    return functools.reduce(
        lambda best, cand: cand if better(cand, best) else best, timed
    )[1]


def reference_plan(chip, params, dfg, minibatch, density) -> AcceleratorPlan:
    """``Planner.plan`` as a fold over one plan per design point."""
    plans = Planner(chip, params).sweep(dfg, minibatch, density).values()
    return reference_fold(plans, minibatch, reference_better)


def reference_tabla_plan(chip, dfg, minibatch, density) -> AcceleratorPlan:
    """``TablaModel.plan`` as a fold over one plan per row option of one
    thread (a mini-batch of one allows one thread): strictly faster
    wins, so the first of equals stays."""
    planner = Planner(chip, TABLA_PARAMS)
    plans = planner.evaluate_points(
        dfg, planner.design_space(dfg, 1), minibatch, density
    )
    return reference_fold(plans, minibatch, lambda a, b: a[0] < b[0])


class TestScalarDesignSpaceFold:
    @given(
        name=st.sampled_from([bench.name for bench in BENCHMARKS]),
        chip=CHIPS,
        params=PARAMS,
        minibatch=st.sampled_from([1, 3, 1_000, 10_000, 100_000]),
        density=st.sampled_from([None, {"xu": 0.25}, SHARED_BENCH.density]),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_equals_fold_over_sweep(
        self, name, chip, params, minibatch, density
    ):
        """The chosen plan is the one the old list-then-reduce picks, and
        every plan's step time is bit-equal to the old formula."""
        dfg = benchmark(name).translate().dfg
        plan = Planner(chip, params).plan(dfg, minibatch, density)
        assert plan == reference_plan(chip, params, dfg, minibatch, density)
        tabla = TablaModel(chip).plan(dfg, minibatch, density)
        assert tabla == reference_tabla_plan(chip, dfg, minibatch, density)
        sweep = Planner(chip, params).sweep(dfg, minibatch, density)
        for each in (plan, tabla, *sweep.values()):
            for n in (0, 1, minibatch, 7 * minibatch):
                got, expect = each.seconds_for(n), reference_seconds(each, n)
                assert got.hex() == expect.hex(), (each.design, n)


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


def mul_reduce_dfg(
    extents, a_axes, b_axes, product_axes, reduce_axes,
    categories=(ir.DATA, ir.MODEL),
):
    """``s = reduce_sum(a * b)`` over ``reduce_axes``; returns the graph
    and the product value."""
    dfg = ir.Dfg(extents)
    a = dfg.add_value("a", categories[0], a_axes)
    b = dfg.add_value("b", categories[1], b_axes)
    product = dfg.add_node("mul", [a, b], "p", product_axes)
    out_axes = tuple(x for x in product_axes if x not in reduce_axes)
    s = dfg.add_node(
        "reduce_sum", [product], "s", out_axes, reduce_axes=reduce_axes
    )
    dfg.outputs["s"] = s.vid
    return dfg, product


@st.composite
def fusable_cases(draw):
    """A ``mul -> reduce_sum`` pair the compiler must fuse: operands
    whose axes follow the product's order, one reduced axis that both
    operands have, and a trailing axis of extent >= 2 after it."""
    axes = tuple("ijkl"[: draw(st.integers(2, 4))])
    extents = {a: draw(st.integers(1, 5)) for a in axes[:-1]}
    extents[axes[-1]] = draw(st.integers(2, 5))
    reduced = draw(st.sampled_from(axes[:-1]))
    owners = [
        "ab" if x == reduced else draw(st.sampled_from(("a", "b", "ab")))
        for x in axes
    ]
    a_axes = tuple(x for x, o in zip(axes, owners) if "a" in o)
    b_axes = tuple(x for x, o in zip(axes, owners) if "b" in o)
    categories = draw(
        st.sampled_from(
            [(ir.DATA, ir.MODEL), (ir.MODEL, ir.DATA), (ir.DATA, ir.DATA)]
        )
    )
    dfg, _ = mul_reduce_dfg(
        extents, a_axes, b_axes, axes, (reduced,), categories
    )
    return dfg, draw(st.booleans()), draw(st.integers(1, 4))


def _draw_feeds(seed, rate, dfg, batch, batch_size):
    """Every input of ``dfg`` from one seed, a share ``rate`` of it edge
    floats (see ``numpy_edge_floats``)."""
    rng = np.random.default_rng(seed)
    feeds = {}
    for value in dfg.values.values():
        if value.producer is None:
            shape = dfg.shape(value)
            if batch and value.category == ir.DATA:
                shape = (batch_size,) + shape
            feeds[value.name] = numpy_edge_floats(rng, shape, rate)
    return feeds


class TestFusedContraction:
    @given(
        case=fusable_cases(),
        # All edge floats, or standard normals (whose sums move with
        # their order) among them.
        rate=st.sampled_from([1.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_fused_matches_unfused_bit_for_bit(self, case, rate, seed):
        dfg, batch, batch_size = case
        interp = Interpreter(dfg)
        assert len(interp._plans[batch]) == 1
        feeds = _draw_feeds(seed, rate, dfg, batch, batch_size)
        # Overflow and inf * 0 are expected here; only the bits matter.
        with np.errstate(all="ignore"):
            fused = interp.run(feeds, batch=batch)["s"]
            unfused = reference_run(interp, feeds, batch=batch)["s"]
        assert fused.shape == unfused.shape
        assert fused.tobytes() == unfused.tobytes(), f"feeds seed {seed}"

    @pytest.mark.parametrize(
        "kind",
        [
            "innermost axis",
            "innermost by extent",
            "one operand's axis",
            "two axes",
            "two consumers",
            "named output",
            "transposed operand",
        ],
    )
    def test_left_unfused(self, kind):
        extents = {"i": 3, "j": 4, "k": 2}
        a_axes, product_axes, reduced = ("i", "j"), ("i", "j"), ("i",)
        if kind == "innermost axis":
            reduced = ("j",)
        elif kind == "innermost by extent":
            extents["j"] = 1
        elif kind == "one operand's axis":
            reduced = ("j",)
            a_axes, product_axes = ("i", "j", "k"), ("i", "j", "k")
        elif kind == "two axes":
            a_axes = product_axes = ("i", "j", "k")
            reduced = ("i", "j")
        elif kind == "transposed operand":
            a_axes = ("j", "i")
        dfg, product = mul_reduce_dfg(
            extents, a_axes, ("i",), product_axes, reduced
        )
        if kind == "two consumers":
            copy = dfg.add_node("identity", [product], "c", product.axes)
            dfg.outputs["c"] = copy.vid
        elif kind == "named output":
            dfg.outputs["p"] = product.vid
        interp = Interpreter(dfg)
        rng = np.random.default_rng(3)
        for batch in (False, True):
            assert len(interp._plans[batch]) == len(dfg.nodes)
            prefix = (2,) if batch else ()
            feeds = {
                "a": rng.normal(size=prefix + dfg.shape(dfg.values[0])),
                "b": rng.normal(size=dfg.shape(dfg.values[1])),
            }
            fast = interp.run(feeds, batch=batch)
            slow = reference_run(interp, feeds, batch=batch)
            for name in fast:
                assert fast[name].tobytes() == slow[name].tobytes()


    def test_unbatched_product_left_unfused_in_batch_mode(self):
        # Both factors are MODEL inputs: in batch mode the product has no
        # batch dim and is broadcast, so the pair stays two steps.
        dfg, _ = mul_reduce_dfg(
            {"i": 3, "j": 4}, ("i", "j"), ("i",), ("i", "j"), ("i",),
            categories=(ir.MODEL, ir.MODEL),
        )
        dfg.add_value("x", ir.DATA, ())
        interp = Interpreter(dfg)
        assert len(interp._plans[False]) == 1
        assert len(interp._plans[True]) == 2
        rng = np.random.default_rng(5)
        feeds = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=3)}
        feeds["x"] = np.zeros(2)
        fast = interp.run(feeds, batch=True)["s"]
        slow = reference_run(interp, feeds, batch=True)["s"]
        assert fast.shape == (2, 4)
        assert fast.tobytes() == slow.tobytes()


class TestInterpreterPlans:
    @given(
        name=st.sampled_from(INTERPRETER_BENCHES),
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


def numpy_edge_floats(rng, shape, rate: float) -> np.ndarray:
    """Standard normals, whose sums move with their order, with a share
    ``rate`` of them replaced: half by ``SPECIAL_FLOATS``, half by
    ``±[1, 9.99]·10^[-300, 299]``."""
    size = math.prod(shape)
    wide = (
        rng.choice([-1.0, 1.0], size)
        * rng.uniform(1.0, 9.99, size)
        * 10.0 ** rng.integers(-300, 300, size)
    )
    kind = rng.random(size)
    values = np.where(
        kind < rate / 2,
        rng.choice(SPECIAL_FLOATS, size),
        np.where(kind < rate, wide, rng.normal(size=size)),
    )
    return values.reshape(shape)


class TestShardGradientMeans:
    @given(
        name=st.sampled_from([bench.name for bench in BENCHMARKS]),
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5),
        rate=st.sampled_from([0.0, 0.02, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_equal_per_shard_reduce_bit_for_bit(self, name, sizes, rate, seed):
        interp = Interpreter(benchmark(name).translate(scaled=True).dfg)
        dfg = interp.dfg
        rng = np.random.default_rng(seed)
        rows = sum(sizes)
        feeds = {
            value.name: numpy_edge_floats(rng, (rows, *dfg.shape(value)), rate)
            for value in dfg.inputs_of_category(ir.DATA)
        }
        model = {
            value.name: numpy_edge_floats(rng, dfg.shape(value), rate)
            for value in dfg.inputs_of_category(ir.MODEL)
        }
        bounds = [0, *np.cumsum(sizes)]
        # Overflow and inf * 0 are expected here; only the bits matter.
        with np.errstate(all="ignore"):
            means = interp.shard_gradient_means({**feeds, **model}, bounds)
            assert len(means) == len(sizes)
            for mean, lo, hi in zip(means, bounds, bounds[1:]):
                shard = {k: v[lo:hi] for k, v in feeds.items()}
                grads = interp.gradients({**shard, **model}, batch=True)
                assert mean.keys() == grads.keys()
                for key, per_sample in grads.items():
                    expect = np.add.reduce(per_sample, axis=0) / (hi - lo)
                    assert mean[key].shape == expect.shape
                    assert _same_bits(mean[key], expect), key


def _same_bits(got: np.ndarray, expect: np.ndarray) -> bool:
    """Bit for bit, except that a NaN's sign may differ: when both
    operands of a NumPy ``multiply`` are NaN, which one's sign the
    result keeps depends on the array's length, so a NaN row's sign can
    differ between any two batch sizes, one pass or not."""
    nan = np.isnan(got)
    return bool(
        (nan == np.isnan(expect)).all()
        and got[~nan].tobytes() == expect[~nan].tobytes()
    )
