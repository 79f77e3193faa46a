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

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

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


@dataclass
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

    @property
    def bytes_per_sample(self) -> float:
        return self.data_words_per_sample * self.chip.word_bytes

    @property
    def compute_seconds_per_sample(self) -> float:
        return self.cycles_per_sample / self.chip.frequency_hz

    @property
    def effective_bandwidth(self) -> float:
        return self.chip.bandwidth_bytes * self.params.stream_efficiency

    @property
    def samples_per_second(self) -> float:
        """Roofline throughput: threads hide compute, bandwidth is shared.

        Without a prefetch buffer (``params.overlap_stream=False``) each
        sample's stream time adds to its compute time instead of hiding
        behind it.
        """
        compute_s = self.compute_seconds_per_sample
        stream_s = self.bytes_per_sample / self.effective_bandwidth
        if self.params.overlap_stream:
            compute = self.design.threads / compute_s
            stream = 1.0 / max(stream_s, 1e-30)
            return min(compute, stream)
        serial = compute_s / self.design.threads + stream_s
        return 1.0 / serial

    @property
    def compute_bound(self) -> bool:
        compute = self.design.threads / self.compute_seconds_per_sample
        stream = self.effective_bandwidth / max(1.0, self.bytes_per_sample)
        return compute <= stream

    def model_io_seconds(self) -> float:
        """Per-mini-batch model broadcast plus gradient drain/aggregation."""
        word = self.chip.word_bytes
        broadcast = self.model_words * word / self.chip.bandwidth_bytes
        drain = self.gradient_words * word / self.chip.bandwidth_bytes
        merge_cycles = (
            math.ceil(self.gradient_words / self.design.columns)
            * max(1, math.ceil(math.log2(self.design.threads + 1)))
        )
        return broadcast + drain + merge_cycles / self.chip.frequency_hz

    def seconds_for(self, samples: int) -> float:
        """Wall time to process ``samples`` training vectors plus one
        model broadcast/drain (one local mini-batch step)."""
        if samples <= 0:
            return self.model_io_seconds()
        per_thread = math.ceil(samples / self.design.threads)
        compute = per_thread * self.compute_seconds_per_sample
        stream = samples * self.bytes_per_sample / self.effective_bandwidth
        if self.params.overlap_stream:
            # The prefetch buffer overlaps streaming with computation.
            body = max(compute, stream)
        else:
            body = compute + stream
        return body + self.model_io_seconds()

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


class Planner:
    """Design-space exploration for one DFG on one chip.

    Every design point of a plan or sweep is costed serially from one
    :class:`~repro.planner.estimator.CostProfile` of the DFG, so a point
    costs only its own tiling arithmetic; selection folds over the points
    in enumeration order.
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
        words = (
            dfg.model_words()
            + dfg.live_interim_words()
            + 2 * dfg.data_words()
        )
        return words * self._chip.word_bytes

    def max_threads(self, dfg: ir.Dfg, minibatch: int) -> int:
        """``t_max = min(#BRAMs*BRAMsize / DFG.storage(), row_max, b)``."""
        return self._thread_bound(self.storage_per_thread(dfg), minibatch)

    def _thread_bound(self, storage_bytes: int, minibatch: int) -> int:
        budget = self._chip.onchip_bytes * _STORAGE_HEADROOM
        by_storage = int(budget // max(1, storage_bytes))
        return max(1, min(by_storage, self._chip.row_max, minibatch))

    # -- enumeration ------------------------------------------------------
    def design_space(
        self, dfg: ir.Dfg, minibatch: int
    ) -> List[DesignPoint]:
        """The pruned (threads, rows) space: PE allocation at row
        granularity, thread counts at powers of two plus the max fit."""
        return self._design_points(self.max_threads(dfg, minibatch))

    def _design_points(self, t_max: int) -> List[DesignPoint]:
        columns = self._chip.columns
        row_max = self._chip.row_max
        points: List[DesignPoint] = []
        rows = 1
        row_options: List[int] = []
        while rows < row_max:
            row_options.append(rows)
            rows *= 2
        row_options.append(row_max)
        for rows_per_thread in row_options:
            fit = row_max // rows_per_thread
            limit = min(fit, t_max)
            threads = 1
            options = set()
            while threads <= limit:
                options.add(threads)
                threads *= 2
            options.add(limit)
            for count in sorted(options):
                points.append(DesignPoint(count, rows_per_thread, columns))
        return points

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
        return self._cost(
            dfg, points, storage, minibatch, density, stream_words
        )

    def _cost(
        self,
        dfg: ir.Dfg,
        points: Sequence[DesignPoint],
        storage_bytes: int,
        minibatch: int,
        density: Optional[Mapping[str, float]],
        stream_words: Optional[float],
    ) -> List[AcceleratorPlan]:
        profile = CostProfile(dfg, self._params)
        if stream_words is None:
            stream_words = effective_data_words(dfg, density)
        model_words = dfg.model_words()
        gradient_words = dfg.gradient_words()
        return [
            AcceleratorPlan(
                chip=self._chip,
                design=point,
                thread_estimate=profile.estimate(
                    point.pes_per_thread, point.rows_per_thread
                ),
                data_words_per_sample=stream_words,
                model_words=model_words,
                gradient_words=gradient_words,
                minibatch=minibatch,
                storage_per_thread_bytes=storage_bytes,
                params=self._params,
            )
            for point in points
        ]

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
        key = (
            self._chip,
            self._params,
            minibatch,
            tuple(sorted((density or {}).items())),
            stream_words,
        )
        memo = dfg.__dict__.setdefault("_plans", {})
        if key not in memo:
            memo[key] = self._plan_uncached(
                dfg, minibatch, density, stream_words
            )
        return memo[key]

    def _plan_uncached(
        self,
        dfg: ir.Dfg,
        minibatch: int,
        density: Optional[Mapping[str, float]],
        stream_words: Optional[float],
    ) -> AcceleratorPlan:
        best: Optional[AcceleratorPlan] = None
        for plan in self._evaluate_all(dfg, minibatch, density, stream_words):
            if best is None or _better(plan, best, minibatch):
                best = plan
        assert best is not None
        return best

    def sweep(
        self,
        dfg: ir.Dfg,
        minibatch: int = 10_000,
        density: Optional[Mapping[str, float]] = None,
        stream_words: Optional[float] = None,
    ) -> Dict[str, AcceleratorPlan]:
        """Evaluate every design point (Figure 16's DSE heat map).

        Not memoised: no workload sweeps the same point twice.
        """
        plans = self._evaluate_all(dfg, minibatch, density, stream_words)
        return {plan.design.label(): plan for plan in plans}

    def _evaluate_all(
        self,
        dfg: ir.Dfg,
        minibatch: int,
        density: Optional[Mapping[str, float]],
        stream_words: Optional[float],
    ) -> List[AcceleratorPlan]:
        """Every design point, in enumeration order; the thread storage
        bounds the space and sizes every plan, so it is derived once."""
        storage = self.storage_per_thread(dfg)
        points = self._design_points(self._thread_bound(storage, minibatch))
        return self._cost(
            dfg, points, storage, minibatch, density, stream_words
        )


def _better(a: AcceleratorPlan, b: AcceleratorPlan, minibatch: int) -> bool:
    """Faster wins; within 1% the smaller design wins (FPGA only keeps the
    needed fabric powered, P-ASIC saves area)."""
    ta = a.seconds_for(minibatch)
    tb = b.seconds_for(minibatch)
    if ta < 0.99 * tb:
        return True
    if tb < 0.99 * ta:
        return False
    return a.design.total_pes < b.design.total_pes
