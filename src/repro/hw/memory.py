"""The programmable memory interface (Section 5.2, Figure 5).

Executes the Compiler-generated :class:`MemorySchedule` word by word: the
DRAM model serves ``columns`` words per cycle, the Shifter rotates each
burst onto the PE lanes it is destined for, the Prefetch Buffer stages
the next sample while the current one computes, and the Thread Index
Table redirects the *shared* schedule to each worker thread's PE block
and memory region.

The delivery cycles this model produces are exactly the arrival gates the
static scheduler assumed (``repro.compiler.scheduling``); a test pins the
two together so the schedule and the hardware can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.memsched import READ, WRITE, MemorySchedule, ThreadIndexEntry
from ..compiler.program import CompiledProgram
from ..compiler.scheduling import SHIFTER_LATENCY
from ..dfg import ir


@dataclass
class Dram:
    """A word-addressed backing store holding the training partition."""

    words: np.ndarray

    @classmethod
    def from_samples(cls, samples: Sequence[np.ndarray]) -> "Dram":
        """Lay out samples back to back, exactly as the host driver does
        (no padding — the Shifter absorbs misalignment)."""
        return cls(np.concatenate([np.ravel(s) for s in samples]))

    def read(self, addr: int, size: int) -> np.ndarray:
        if addr < 0 or addr + size > len(self.words):
            raise IndexError(
                f"DRAM read [{addr}, {addr + size}) outside "
                f"[0, {len(self.words)})"
            )
        return self.words[addr : addr + size]


class Shifter:
    """Aligns an incoming burst with the destination PE lanes.

    A burst fetched at an arbitrary word address lands on lanes
    ``addr % columns .. ``; the destination row expects it on lanes
    ``0 ..``. The shifter rotates by the difference in ``SHIFTER_LATENCY``
    cycles, so off-chip bandwidth is never wasted on padding.
    """

    def __init__(self, columns: int):
        if columns < 1:
            raise ValueError("need at least one column")
        self.columns = columns
        self.rotations = 0

    def align(
        self, burst: np.ndarray, source_lane: int, target_lane: int = 0
    ) -> List[Optional[float]]:
        """Place ``burst`` (fetched starting at ``source_lane``) onto
        lanes starting at ``target_lane``; empty lanes read None."""
        if len(burst) > self.columns:
            raise ValueError("burst wider than the lane count")
        lanes: List[Optional[float]] = [None] * self.columns
        shift = (target_lane - source_lane) % self.columns
        if shift:
            self.rotations += 1
        for offset, word in enumerate(burst):
            lanes[(source_lane + offset + shift) % self.columns] = float(word)
        return lanes

    @property
    def latency(self) -> int:
        return SHIFTER_LATENCY


@dataclass
class PrefetchBuffer:
    """Double-buffering stage between DRAM and the PE array.

    Stores the next sample's words while the current one computes; the
    MIMD timing model relies on this overlap. Capacity is in words; a
    put beyond capacity raises, which the Planner's sizing must prevent.
    """

    capacity_words: int
    _staged: List[Tuple[int, float]] = field(default_factory=list)
    peak_words: int = 0

    def put(self, vid: int, word: float):
        if len(self._staged) + 1 > self.capacity_words:
            raise OverflowError("prefetch buffer overrun")
        self._staged.append((vid, word))
        self.peak_words = max(self.peak_words, len(self._staged))

    def drain(self) -> List[Tuple[int, float]]:
        staged, self._staged = self._staged, []
        return staged

    @property
    def occupancy(self) -> int:
        return len(self._staged)


DeliverFn = Callable[[int, int, float], None]
"""(pe_index, value_id, word) -> None: write into a PE buffer."""


class MemoryInterface:
    """Executes a compiled program's memory schedule for one thread.

    ``thread`` selects a row of the Thread Index Table: the same schedule
    then reads from that thread's memory region and writes to its PE
    block (Base PE Index + PE Offset).
    """

    def __init__(
        self,
        program: CompiledProgram,
        thread_table: Optional[List[ThreadIndexEntry]] = None,
        thread: int = 0,
    ):
        self._program = program
        self._columns = program.grid.columns
        self.shifter = Shifter(self._columns)
        self.prefetch = PrefetchBuffer(
            capacity_words=max(16, 2 * program.memory.sample_words)
        )
        if thread_table is None:
            thread_table = [ThreadIndexEntry(0, 0, 0)]
        if not 0 <= thread < len(thread_table):
            raise ValueError(f"no thread {thread} in the index table")
        self._entry = thread_table[thread]

    @property
    def schedule(self) -> MemorySchedule:
        return self._program.memory

    # -- phases --------------------------------------------------------------
    def preload_model(
        self, model_words: Dict[int, float], deliver: DeliverFn
    ) -> int:
        """Broadcast model parameters to the thread's PEs.

        ``model_words`` maps scalar value id -> word. Returns the cycle at
        which the preload finishes.
        """
        mapping = self._program.mapping
        elements = self._program.expansion.input_elements(ir.MODEL)
        cursor = 0
        cycles = 0
        for entry in self.schedule.preload:
            if entry.direction != READ or not entry.broadcast:
                raise ValueError("model preload must be broadcast reads")
            for _, _, vid in elements[cursor : cursor + entry.size]:
                pe = mapping.pe_of_value[vid] + self._entry.pe_offset
                deliver(pe, vid, model_words[vid])
            cursor += entry.size
            cycles += 1  # one burst per cycle
        if cursor != len(elements):
            raise ValueError("preload schedule does not cover the model")
        return cycles + self.shifter.latency

    def stream_sample(
        self, dram: Dram, sample_index: int, deliver: DeliverFn
    ) -> Dict[int, int]:
        """Stream one training vector from DRAM into the PE buffers.

        Returns value id -> delivery cycle (relative to the stream start),
        which by construction equals the arrival gates the static
        scheduler assumed.
        """
        mapping = self._program.mapping
        elements = self._program.expansion.input_elements(ir.DATA)
        sample_words = len(elements)
        base_addr = self._entry.mem_addr + sample_index * sample_words
        arrivals: Dict[int, int] = {}
        cursor = 0
        cycle = 0
        for entry in self.schedule.per_sample:
            if entry.direction != READ:
                raise ValueError("sample streaming entries must be reads")
            burst = dram.read(base_addr + cursor, entry.size)
            lanes = self.shifter.align(
                burst, source_lane=(base_addr + cursor) % self._columns
            )
            burst_elements = elements[cursor : cursor + entry.size]
            cycle += 1
            for offset, (_, _, vid) in enumerate(burst_elements):
                word = lanes[(cursor + offset) % self._columns]
                assert word is not None
                self.prefetch.put(vid, word)
                pe = mapping.pe_of_value[vid] + self._entry.pe_offset
                deliver(pe, vid, word)
                arrivals[vid] = cycle + self.shifter.latency
            cursor += entry.size
        self.prefetch.drain()
        if cursor != sample_words:
            raise ValueError("sample schedule does not cover the vector")
        return arrivals

    def drain_gradients(
        self, read_word: Callable[[int, int], float]
    ) -> Dict[int, float]:
        """Execute the WRITE phase: collect the thread's partial gradient
        from the PE buffers for the host to aggregate.

        ``read_word(pe_index, value_id) -> word`` reads a PE interim
        buffer. Returns value id -> word in drain (burst) order.
        """
        dfg = self._program.expansion.dfg
        mapping = self._program.mapping
        grads = dfg.gradient_outputs()
        drained: Dict[int, float] = {}
        cursor = 0
        for entry in self.schedule.drain:
            if entry.direction != WRITE:
                raise ValueError("gradient drain entries must be writes")
            for value in grads[cursor : cursor + entry.size]:
                pe = (
                    mapping.pe_of_node[value.producer]
                    + self._entry.pe_offset
                )
                drained[value.vid] = read_word(pe, value.vid)
            cursor += entry.size
        if cursor != len(grads):
            raise ValueError("drain schedule does not cover the gradient")
        return drained
