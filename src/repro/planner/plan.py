"""The Planner (Section 4.4): shaping the multi-threaded template.

The Planner fixes the column count from the off-chip bandwidth, derives
``row_max`` from the DSP budget, bounds the thread count by
``t_max = min(storage bound, row_max, mini-batch size)``, and explores the
pruned (threads x rows-per-thread) design space with the performance
estimation tool, choosing "the smallest, best-performing design point".
For the UltraScale+ VU9P this enumeration yields exactly 27 design points,
as the paper reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import (
    Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from ..dfg import ir
from ..hw.spec import ChipSpec
from .estimator import (
    CostParams,
    CostProfile,
    ThreadEstimate,
    effective_data_words,
)

#: Fraction of on-chip storage available to thread buffers; the rest is
#: reserved for the prefetch buffer and memory-interface queues.
_STORAGE_HEADROOM = 0.9


@dataclass(frozen=True)
class DesignPoint:
    """One (threads, rows-per-thread) point of the pruned design space."""

    threads: int
    rows_per_thread: int
    columns: int

    @property
    def pes_per_thread(self) -> int:
        return self.rows_per_thread * self.columns

    @property
    def total_rows(self) -> int:
        return self.threads * self.rows_per_thread

    @property
    def total_pes(self) -> int:
        return self.total_rows * self.columns

    def label(self) -> str:
        """Figure 16's ``TxxRy`` naming."""
        return f"T{self.threads}xR{self.rows_per_thread}"


@dataclass
class ResourceUsage:
    """FPGA resource footprint of a design point (Table 3)."""

    luts: int
    flip_flops: int
    bram_bytes: int
    dsp_slices: int

    def utilization(self, chip: ChipSpec) -> Dict[str, float]:
        return {
            "luts": self.luts / chip.luts if chip.luts else 0.0,
            "flip_flops": (
                self.flip_flops / chip.flip_flops if chip.flip_flops else 0.0
            ),
            "bram": self.bram_bytes / chip.onchip_bytes,
            "dsp": self.dsp_slices / chip.dsp_slices if chip.dsp_slices else 0.0,
        }


class _Roofline(NamedTuple):
    """A design point's step-time terms, apart from threads and overlap."""

    compute_s: float  # compute seconds per sample
    bytes_per_sample: float
    bandwidth: float  # delivered to the PEs
    io_s: float  # per-step model broadcast, drain and merge


def _roofline_terms(
    chip: ChipSpec, params: CostParams, cycles: float, stream_words: float,
    model_words: int, gradient_words: int, threads: int, columns: int,
) -> _Roofline:
    word = chip.word_bytes
    broadcast = model_words * word / chip.bandwidth_bytes
    drain = gradient_words * word / chip.bandwidth_bytes
    merge_cycles = math.ceil(gradient_words / columns) * max(
        1, math.ceil(math.log2(threads + 1))
    )
    return _Roofline(
        cycles / chip.frequency_hz,
        stream_words * word,
        chip.bandwidth_bytes * params.stream_efficiency,
        broadcast + drain + merge_cycles / chip.frequency_hz,
    )


def _step_seconds(
    samples: int, threads: int, overlap: bool, terms: _Roofline
) -> float:
    """The roofline step time of ``samples`` training vectors plus one
    model broadcast/drain. Plans and the DSE both time a design point
    with it, so a plan reports the time it was chosen by."""
    if samples <= 0:
        return terms.io_s
    compute = math.ceil(samples / threads) * terms.compute_s
    stream = samples * terms.bytes_per_sample / terms.bandwidth
    if overlap:
        # The prefetch buffer overlaps streaming with computation.
        body = max(compute, stream)
    else:
        body = compute + stream
    return body + terms.io_s


@dataclass(frozen=True)
class AcceleratorPlan:
    """A fully evaluated accelerator configuration.

    Produced by :meth:`Planner.plan`; consumed by the Compiler (geometry),
    the Constructor (RTL generation), and the runtime (timing).
    """

    chip: ChipSpec
    design: DesignPoint
    thread_estimate: ThreadEstimate
    data_words_per_sample: float
    model_words: int
    gradient_words: int
    minibatch: int
    storage_per_thread_bytes: int
    params: CostParams = CostParams()

    @property
    def cycles_per_sample(self) -> float:
        return self.thread_estimate.cycles

    @functools.cached_property
    def _roofline(self) -> _Roofline:
        """The step time's terms, worked out once: a plan is frozen."""
        return _roofline_terms(
            self.chip, self.params, self.cycles_per_sample,
            self.data_words_per_sample, self.model_words,
            self.gradient_words, self.design.threads, self.design.columns,
        )

    @property
    def samples_per_second(self) -> float:
        """Roofline throughput: threads hide compute, bandwidth is shared.

        Without a prefetch buffer (``params.overlap_stream=False``) each
        sample's stream time adds to its compute time instead of hiding
        behind it.
        """
        terms, threads = self._roofline, self.design.threads
        stream_s = terms.bytes_per_sample / terms.bandwidth
        if self.params.overlap_stream:
            return min(threads / terms.compute_s, 1.0 / max(stream_s, 1e-30))
        return 1.0 / (terms.compute_s / threads + stream_s)

    @property
    def compute_bound(self) -> bool:
        terms = self._roofline
        compute = self.design.threads / terms.compute_s
        return compute <= terms.bandwidth / max(1.0, terms.bytes_per_sample)

    def model_io_seconds(self) -> float:
        """Per-mini-batch model broadcast plus gradient drain/aggregation."""
        return self._roofline.io_s

    def seconds_for(self, samples: int) -> float:
        """Wall time to process ``samples`` training vectors plus one
        model broadcast/drain (one local mini-batch step)."""
        return _step_seconds(
            samples, self.design.threads, self.params.overlap_stream,
            self._roofline,
        )

    def resources(self) -> ResourceUsage:
        """FPGA footprint, calibrated to the scale of Table 3.

        Per-PE costs cover the 5-stage pipeline, buffers and bus ports;
        the non-linear LUT unit is only instantiated where scheduled.
        """
        pes = self.design.total_pes
        rows = self.design.total_rows
        base_luts, per_pe_luts = 88_000, 950
        base_ffs, per_pe_ffs = 76_000, 850
        nlu_luts = 130 if self.thread_estimate.comm_cycles >= 0 else 0
        luts = base_luts + pes * (per_pe_luts + nlu_luts) + rows * 800
        ffs = base_ffs + pes * per_pe_ffs + rows * 700
        dsps = pes * max(1, self.chip.dsp_per_pe) + max(0, rows - 1) * 4
        thread_bytes = self.storage_per_thread_bytes * self.design.threads
        prefetch = int(self.chip.onchip_bytes * (1 - _STORAGE_HEADROOM))
        bram = min(self.chip.onchip_bytes, thread_bytes + prefetch)
        # The memory schedule pads buffers to whole BRAMs.
        bram = min(
            self.chip.onchip_bytes,
            math.ceil(bram / self.chip.bram_bytes) * self.chip.bram_bytes,
        )
        return ResourceUsage(luts, ffs, bram, dsps)


class _GraphSizes(NamedTuple):
    """The chip-independent sizes the DSE reads of one graph, in words."""

    #: One thread's buffers: model replica, live interims and a
    #: double-buffered sample (see :meth:`Planner.storage_per_thread`).
    storage: int
    model: int
    gradient: int


def _sizes(dfg: ir.Dfg) -> _GraphSizes:
    """The graph's sizes, computed on first use and kept on the graph."""
    sizes = dfg.__dict__.get("_sizes")
    if sizes is None:
        model = dfg.model_words()
        sizes = dfg.__dict__["_sizes"] = _GraphSizes(
            model + dfg.live_interim_words() + 2 * dfg.data_words(),
            model,
            dfg.gradient_words(),
        )
    return sizes


def _stream_words(
    dfg: ir.Dfg, density: Optional[Mapping[str, float]]
) -> float:
    """:func:`effective_data_words`, kept on the graph per density."""
    memo = dfg.__dict__.setdefault("_stream_words", {})
    key = tuple(sorted((density or {}).items()))
    if key not in memo:
        memo[key] = effective_data_words(dfg, density)
    return memo[key]


def _profile(dfg: ir.Dfg, params: CostParams) -> CostProfile:
    """The graph's cost profile under ``params``, built on first use and
    kept on the graph: it reads no chip and no density."""
    memo = dfg.__dict__.setdefault("_profiles", {})
    if params not in memo:
        memo[params] = CostProfile(dfg, params)
    return memo[params]


class Planner:
    """Design-space exploration for one DFG on one chip.

    Everything the DSE knows about a graph apart from the chip is a
    product of the graph and kept on it: the sizes, the stream words per
    density, and one :class:`~repro.planner.estimator.CostProfile` per
    cost params, which memoises its per-(PEs, rows) estimates. Planners
    on the same graph share all of it, so a design point costs only its
    own roofline arithmetic. Selection times each point as a scalar and
    builds only the winning plan.
    """

    def __init__(self, chip: ChipSpec, params: CostParams = CostParams()):
        self._chip = chip
        self._params = params

    @property
    def chip(self) -> ChipSpec:
        return self._chip

    # -- bounds ---------------------------------------------------------
    def storage_per_thread(self, dfg: ir.Dfg) -> int:
        """Bytes of on-chip buffers one worker thread needs.

        Each thread keeps its model replica (gradient updates are applied
        in place per the local-SGD flow of Eq. 3a), live intermediate
        values, and a double-buffered training sample (prefetch).
        """
        return _sizes(dfg).storage * self._chip.word_bytes

    def max_threads(self, dfg: ir.Dfg, minibatch: int) -> int:
        """``t_max = min(#BRAMs*BRAMsize / DFG.storage(), row_max, b)``."""
        budget = self._chip.onchip_bytes * _STORAGE_HEADROOM
        by_storage = int(budget // max(1, self.storage_per_thread(dfg)))
        return max(1, min(by_storage, self._chip.row_max, minibatch))

    # -- enumeration ------------------------------------------------------
    def design_space(self, dfg: ir.Dfg, minibatch: int) -> List[DesignPoint]:
        """The pruned (threads, rows) space: PE allocation at row
        granularity, thread counts at powers of two plus the max fit."""
        grid = _grid(self._chip.row_max, self.max_threads(dfg, minibatch))
        columns = self._chip.columns
        return [DesignPoint(threads, rows, columns) for rows, threads in grid]

    # -- evaluation --------------------------------------------------------
    def evaluate(
        self,
        dfg: ir.Dfg,
        point: DesignPoint,
        minibatch: int,
        density: Optional[Mapping[str, float]] = None,
        stream_words: Optional[float] = None,
    ) -> AcceleratorPlan:
        """Evaluate one design point.

        ``density`` thins only the *memory stream* (the shifter expands a
        sparse encoding into the PE buffers); the static operation
        schedule cannot skip zeros, so compute is always dense — which is
        why the one-hot recommender benchmarks are compute-bound
        (Figure 15) despite their tiny wire format. ``stream_words``
        overrides the per-sample stream size (e.g. Table 1's on-disk
        record sizes).
        """
        return self.evaluate_points(
            dfg, [point], minibatch, density, stream_words
        )[0]

    def evaluate_points(
        self,
        dfg: ir.Dfg,
        points: Sequence[DesignPoint],
        minibatch: int,
        density: Optional[Mapping[str, float]] = None,
        stream_words: Optional[float] = None,
    ) -> List[AcceleratorPlan]:
        """:meth:`evaluate` for several points, from one walk of ``dfg``."""
        storage = self.storage_per_thread(dfg)
        profile = _profile(dfg, self._params)
        if stream_words is None:
            stream_words = _stream_words(dfg, density)
        sizes = _sizes(dfg)
        return [
            AcceleratorPlan(
                self._chip, point,
                profile.estimate(point.pes_per_thread, point.rows_per_thread),
                stream_words, sizes.model, sizes.gradient, minibatch, storage,
                self._params,
            )
            for point in points
        ]

    def step_times(
        self, dfg: ir.Dfg, t_max: int, minibatch: int,
        density: Optional[Mapping[str, float]] = None,
        stream_words: Optional[float] = None,
    ) -> Iterator[Tuple[float, int, int]]:
        """``(seconds_for(minibatch), rows_per_thread, threads)`` of every
        design point of at most ``t_max`` threads, in enumeration order,
        building no plan."""
        chip, params = self._chip, self._params
        columns, overlap = chip.columns, params.overlap_stream
        profile = _profile(dfg, params)
        if stream_words is None:
            stream_words = _stream_words(dfg, density)
        sizes = _sizes(dfg)
        for rows, threads in _grid(chip.row_max, t_max):
            cycles = profile.estimate(rows * columns, rows).cycles
            terms = _roofline_terms(
                chip, params, cycles, stream_words, sizes.model,
                sizes.gradient, threads, columns,
            )
            seconds = _step_seconds(minibatch, threads, overlap, terms)
            yield seconds, rows, threads

    def plan(
        self,
        dfg: ir.Dfg,
        minibatch: int = 10_000,
        density: Optional[Mapping[str, float]] = None,
        stream_words: Optional[float] = None,
    ) -> AcceleratorPlan:
        """Pick the smallest, best-performing design point.

        Memoised on ``dfg`` (a translated graph is never mutated), keyed by
        every other input the DSE reads: chip, cost params, minibatch,
        density and stream size. Planners on the same graph share it.
        """
        _check_minibatch(minibatch)
        density_key = tuple(sorted((density or {}).items()))
        key = (self._chip, self._params, minibatch, density_key, stream_words)
        memo = dfg.__dict__.setdefault("_plans", {})
        if key not in memo:
            memo[key] = self._plan_uncached(
                dfg, minibatch, density, stream_words
            )
        return memo[key]

    def _plan_uncached(
        self, dfg: ir.Dfg, minibatch: int,
        density: Optional[Mapping[str, float]], stream_words: Optional[float],
    ) -> AcceleratorPlan:
        columns = self._chip.columns
        best = None
        for seconds, rows, threads in self.step_times(
            dfg, self.max_threads(dfg, minibatch), minibatch, density,
            stream_words,
        ):
            candidate = (seconds, threads * rows * columns)
            if best is None or _better(candidate, best):
                best, choice = candidate, (threads, rows)
        point = DesignPoint(*choice, columns)
        return self.evaluate(dfg, point, minibatch, density, stream_words)

    def sweep(
        self,
        dfg: ir.Dfg,
        minibatch: int = 10_000,
        density: Optional[Mapping[str, float]] = None,
        stream_words: Optional[float] = None,
    ) -> Dict[str, AcceleratorPlan]:
        """Evaluate every design point (Figure 16's DSE heat map).

        The sweep itself is not memoised (no workload sweeps the same
        chip twice), but its points reuse the graph's profile and
        estimates, so only each plan's roofline arithmetic is new.
        """
        _check_minibatch(minibatch)
        plans = self.evaluate_points(
            dfg, self.design_space(dfg, minibatch), minibatch, density,
            stream_words,
        )
        return {plan.design.label(): plan for plan in plans}


def _powers_to(n: int) -> Iterator[int]:
    """Powers of two below ``n``, then ``n``."""
    power = 1
    while power < n:
        yield power
        power *= 2
    yield n


def _grid(row_max: int, t_max: int) -> Iterator[Tuple[int, int]]:
    """The pruned space as ``(rows_per_thread, threads)``, in enumeration
    order: per-thread rows at powers of two plus ``row_max``, and for
    each, thread counts at powers of two plus the most that fit."""
    for rows in _powers_to(row_max):
        for threads in _powers_to(min(row_max // rows, t_max)):
            yield rows, threads


def _check_minibatch(minibatch: int):
    if minibatch < 1:
        raise ValueError(f"minibatch must be at least 1, got {minibatch}")


def _better(a: Tuple[float, int], b: Tuple[float, int]) -> bool:
    """Of two ``(seconds, total PEs)`` candidates, faster wins; within 1%
    the smaller design wins (FPGA only keeps the needed fabric powered,
    P-ASIC saves area)."""
    (ta, pes_a), (tb, pes_b) = a, b
    if ta < 0.99 * tb:
        return True
    if tb < 0.99 * ta:
        return False
    return pes_a < pes_b
