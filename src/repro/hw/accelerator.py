"""Cycle-level simulation of the multi-threaded template accelerator.

Two simulators live here:

* :class:`ThreadSimulator` executes a compiled program (map + static
  schedule + memory program) on a grid of :class:`repro.hw.pe.Pe` objects,
  cycle-faithfully: operations fire at their scheduled cycles, operands
  travel over the modelled interconnect, and the functional results are
  checked against the NumPy interpreter in tests.
* :class:`MimdTimingModel` models the whole accelerator: multiple worker
  threads sharing the programmable memory interface (round-robin service,
  Section 5.2), with the prefetch buffer overlapping each thread's next
  sample stream with its current computation. This reproduces the
  MIMD behaviour the paper credits for hiding memory latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping

import numpy as np

from ..compiler.program import CompiledProgram
from ..dfg import ir
from ..dfg.ops import op_info

from .pe import Pe

if TYPE_CHECKING:
    from ..planner.plan import AcceleratorPlan


@dataclass
class ThreadRunResult:
    """Outcome of simulating one sample on one worker thread."""

    outputs: Dict[str, float]
    cycles: int
    ops_per_pe: Dict[int, int]
    buffer_words_per_pe: Dict[int, int]

    def gradient_vector(self, name: str, size: int) -> np.ndarray:
        """Reassemble a gradient vector from its scalar elements."""
        vec = np.zeros(size)
        for i in range(size):
            vec[i] = self.outputs[f"{name}[{i}]"]
        return vec


class ThreadSimulator:
    """Executes one worker thread's compiled program."""

    def __init__(self, program: CompiledProgram):
        self._program = program
        dfg = program.expansion.dfg
        nonlinear_pes = {
            program.mapping.pe_of_node[n.nid]
            for n in dfg.topo_order()
            if op_info(n.op).nonlinear
        }
        self._pes = [
            Pe(i, has_nonlinear_unit=(i in nonlinear_pes or not nonlinear_pes))
            for i in range(program.grid.n_pe)
        ]

    def run(self, feeds: Mapping[str, np.ndarray]) -> ThreadRunResult:
        """Simulate one sample.

        Args:
            feeds: DSL input name -> array (vector inputs) or scalar.
        """
        program = self._program
        dfg = program.expansion.dfg
        env: Dict[int, float] = {}
        self._load_inputs(feeds, env)

        # Execute operations in scheduled order; the schedule already
        # encodes all interconnect and memory-arrival constraints
        # (program.verify() checked them).
        ordered = sorted(program.schedule.ops.values(), key=lambda op: op.start)
        for sched_op in ordered:
            node = dfg.nodes[sched_op.nid]
            operands = [env[vid] for vid in node.inputs]
            pe = self._pes[sched_op.pe]
            env[node.output] = pe.execute(node.op, operands, node.output)

        outputs: Dict[str, float] = {}
        output_vids = set(dfg.outputs.values())
        for value in dfg.values.values():
            if value.is_gradient or value.vid in output_vids:
                outputs[value.name] = env[value.vid]
        return ThreadRunResult(
            outputs=outputs,
            cycles=program.schedule.makespan,
            ops_per_pe={pe.index: pe.ops_executed for pe in self._pes},
            buffer_words_per_pe={
                pe.index: pe.buffers.words() for pe in self._pes
            },
        )

    def _load_inputs(self, feeds: Mapping[str, np.ndarray], env: Dict[int, float]):
        """Load MODEL and DATA through the programmable memory interface
        (broadcast preload + shifted sample stream), exactly as the
        generated hardware does."""
        from .memory import Dram, MemoryInterface

        program = self._program
        dfg = program.expansion.dfg

        def word_of(name: str, index) -> float:
            if name not in feeds:
                raise KeyError(f"missing feed for input {name!r}")
            array = np.asarray(feeds[name], dtype=np.float64)
            return float(array[index] if index else array)

        def deliver(pe_index: int, vid: int, word: float):
            env[vid] = word
            category = dfg.values[vid].category
            self._pes[pe_index].store(category, vid, word)

        interface = MemoryInterface(program)
        data_elements = program.expansion.input_elements(ir.DATA)
        sample = np.array(
            [word_of(name, index) for name, index, _ in data_elements]
        )
        if len(sample):
            interface.stream_sample(Dram.from_samples([sample]), 0, deliver)
        model_words = {
            vid: word_of(name, index)
            for name, index, vid in program.expansion.input_elements(ir.MODEL)
        }
        if model_words:
            interface.preload_model(model_words, deliver)
        for value in dfg.values.values():
            if value.category == ir.CONST:
                env[value.vid] = float(value.const_value)
            elif value.producer is None and value.vid not in env:
                # Inputs the mapper left unplaced (none today) fall back
                # to direct binding so execution still proceeds.
                env[value.vid] = word_of(value.name, ())


@dataclass
class MimdBatchResult:
    """Timing of a batch processed by the multi-threaded accelerator."""

    total_cycles: int
    stream_cycles: int
    compute_bound_threads: int
    per_thread_finish: List[int]


class MimdTimingModel:
    """Round-robin memory interface + per-thread MIMD execution.

    Threads share the off-chip interface (``columns`` words/cycle). The
    prefetch buffer lets a thread's next sample stream in while the
    current one computes; with enough threads, streaming and computing
    fully overlap — the behaviour behind Figure 15's bandwidth-bound
    plateau.
    """

    def __init__(
        self,
        threads: int,
        compute_cycles: int,
        sample_words: int,
        columns: int,
        preload_words: int = 0,
        drain_words: int = 0,
    ):
        if threads < 1:
            raise ValueError("need at least one worker thread")
        self.threads = threads
        self.compute_cycles = int(compute_cycles)
        self.sample_words = int(sample_words)
        self.columns = int(columns)
        self.preload_words = int(preload_words)
        self.drain_words = int(drain_words)

    @classmethod
    def for_plan(cls, plan: AcceleratorPlan) -> MimdTimingModel:
        """The timing model of the design ``plan`` chose; each sample
        streams the plan's per-sample data words."""
        return cls(
            threads=plan.design.threads,
            compute_cycles=int(math.ceil(plan.cycles_per_sample)),
            sample_words=int(math.ceil(plan.data_words_per_sample)),
            columns=plan.design.columns,
            preload_words=plan.model_words,
            drain_words=plan.gradient_words,
        )

    def run_batch(self, samples: int) -> MimdBatchResult:
        """Cycles to stream + process ``samples`` vectors, plus the model
        preload (broadcast) and gradient drain phases.

        This is the closed-form solution of the round-robin recurrence,
        over all threads at once; the sample-at-a-time loop it is
        cross-validated against bit-for-bit lives in the tests.

        Thread ``t`` receives samples ``t, t+T, t+2T, ...``; its ``k``-th
        sample finishes streaming at ``E_k = preload + (t+1+kT)*w`` where
        ``w`` is the per-sample stream time and ``T*w`` the spacing
        between consecutive arrivals at one thread. The per-thread finish
        recurrence ``f_k = max(E_k, f_{k-1}) + C`` then has two regimes:

        * ``T*w >= C`` (arrivals at least as slow as compute): every
          sample starts on arrival, ``f_k = E_k + C``;
        * ``T*w < C`` (compute is the bottleneck): only the first sample
          waits for the stream, ``f_k = E_0 + (k+1)*C``.

        Both reduce to arithmetic on per-thread sample counts, so the
        whole batch costs O(threads) instead of O(samples).
        """
        stream_per_sample = math.ceil(self.sample_words / self.columns)
        preload = math.ceil(self.preload_words / self.columns)
        drain = math.ceil(self.drain_words / self.columns) * self.threads
        total_threads = self.threads
        compute = self.compute_cycles
        if samples <= 0:
            return MimdBatchResult(
                total_cycles=preload + drain,
                stream_cycles=0,
                compute_bound_threads=0,
                per_thread_finish=[preload] * total_threads,
            )
        t = np.arange(total_threads, dtype=np.int64)
        # Samples assigned to thread t: ceil((samples - t) / threads).
        counts = np.maximum(
            0, (samples - t + total_threads - 1) // total_threads
        )
        spacing = total_threads * stream_per_sample
        first_end = preload + (t + 1) * stream_per_sample  # E_0 per thread
        if spacing >= compute:
            # Stream-paced: finish = E_{k-1} + C for the last sample.
            last_end = first_end + (counts - 1) * spacing
            finish = np.where(counts > 0, last_end + compute, preload)
        else:
            # Compute-paced: finish = E_0 + counts * C.
            finish = np.where(counts > 0, first_end + counts * compute, preload)
        # A sample is "compute bound" when the thread was still busy (or
        # just free) at stream end: always for follow-up samples when
        # compute dominates or exactly matches the arrival spacing, and
        # for every sample when streaming is free (w == 0).
        if stream_per_sample == 0:
            compute_bound = int(counts.sum())
        elif spacing <= compute:
            compute_bound = int(np.maximum(0, counts - 1).sum())
        else:
            compute_bound = 0
        return MimdBatchResult(
            total_cycles=int(finish.max()) + drain,
            stream_cycles=samples * stream_per_sample,
            compute_bound_threads=compute_bound,
            per_thread_finish=[int(f) for f in finish],
        )
