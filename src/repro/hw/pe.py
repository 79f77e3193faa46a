"""Processing Engine model (Section 5.1, Figure 6).

A PE holds three separate SRAM buffers — training data, model parameters,
and intermediate results — so the DFG's parallel accesses never conflict,
and executes scheduled operations through a five-stage pipeline
(read -> register -> select operands -> ALU -> write back) with a bypass
path from write-back to the ALU stage.

The cycle simulator uses this class for functional execution and buffer
accounting; timing comes from the static schedule, exactly as in the
generated hardware where the schedule *is* the control logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..dfg.ops import op_info

#: Stages of the PE pipeline (Figure 6).
PIPELINE_STAGES = ("read", "register", "select", "alu", "writeback")
PIPELINE_DEPTH = len(PIPELINE_STAGES)


@dataclass
class PeBuffers:
    """The PE's partitioned SRAM: value id -> word, per category."""

    data: Dict[int, float] = field(default_factory=dict)
    model: Dict[int, float] = field(default_factory=dict)
    interim: Dict[int, float] = field(default_factory=dict)

    def words(self) -> int:
        return len(self.data) + len(self.model) + len(self.interim)


class Pe:
    """One processing engine of the 2-D template array."""

    def __init__(self, index: int, has_nonlinear_unit: bool = True):
        self.index = index
        self.has_nonlinear_unit = has_nonlinear_unit
        self.buffers = PeBuffers()
        self.ops_executed = 0

    def store(self, category: str, vid: int, word: float):
        """Write a word into the named buffer partition."""
        buffer = self._buffer(category)
        buffer[vid] = float(word)

    def load(self, vid: int) -> Optional[float]:
        """Read a word from whichever partition holds it."""
        for buffer in (
            self.buffers.interim,
            self.buffers.model,
            self.buffers.data,
        ):
            if vid in buffer:
                return buffer[vid]
        return None

    def execute(self, op: str, operands, out_vid: int) -> float:
        """Apply one scheduled operation on the ALU / non-linear unit."""
        info = op_info(op)
        if info.nonlinear and not self.has_nonlinear_unit:
            raise RuntimeError(
                f"PE {self.index} has no non-linear LUT unit but op {op!r} "
                "was scheduled on it"
            )
        result = float(info.numpy_fn(*operands))
        self.buffers.interim[out_vid] = result
        self.ops_executed += 1
        return result

    def _buffer(self, category: str) -> Dict[int, float]:
        if category == "DATA":
            return self.buffers.data
        if category == "MODEL":
            return self.buffers.model
        return self.buffers.interim
