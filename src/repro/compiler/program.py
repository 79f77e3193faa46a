"""The compiled accelerator program: map + schedule + memory program.

This is the artifact the Constructor consumes to emit RTL and the cycle
simulator consumes to execute. One program describes one worker thread;
the accelerator replicates it across threads via the Thread Index Table
(the schedule is shared, Section 5.2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict

from ..dfg import ir
from ..dfg.scalarize import ScalarExpansion, scalarize
from .mapping import Mapping, PeGrid, communication_edges, map_graph
from .memsched import MemorySchedule, build_memory_schedule
from .scheduling import Schedule, schedule_graph, verify_schedule


@dataclass
class CompiledProgram:
    """Everything needed to run one worker thread on the template."""

    expansion: ScalarExpansion
    mapping: Mapping
    schedule: Schedule
    memory: MemorySchedule

    @property
    def grid(self) -> PeGrid:
        return self.mapping.grid

    @property
    def cycles(self) -> int:
        """Static makespan of one sample evaluation."""
        return self.schedule.makespan

    @property
    def cross_pe_operands(self) -> int:
        """Operand reads that cross PEs — Algorithm 1's objective."""
        return len(communication_edges(self.expansion.dfg, self.mapping))

    @functools.cached_property
    def microcode(self) -> tuple:
        """The program's microcode stream, encoded once and shared by
        every design built from it (a tuple, so no design can alter
        another's)."""
        from ..circuit.microcode import encode_microcode

        return tuple(encode_microcode(self))

    def verify(self, deep: bool = False):
        """Re-check every static invariant of the compiled artifact.

        ``deep=True`` additionally replays every transfer on the
        structural interconnect model (topology, latencies, arbitration).
        """
        self.expansion.dfg.validate()
        verify_schedule(self.expansion.dfg, self.mapping, self.schedule)
        if deep:
            from ..hw.interconnect import replay_transfers

            replay_transfers(self.schedule)


def compile_thread(
    dfg: ir.Dfg,
    rows: int,
    columns: int,
    include_stream: bool = True,
) -> CompiledProgram:
    """Compile a macro DFG for one worker thread of ``rows x columns`` PEs.

    The graph is scalar-expanded, mapped with Algorithm 1, list-scheduled,
    and given its memory-interface program. Suitable for small/medium
    graphs (tests, estimator validation, RTL generation); large production
    graphs use the macro-level estimator directly.
    """
    for name, value in (("rows", rows), ("columns", columns)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    expansion = scalarize(dfg)
    grid = PeGrid(rows=rows, columns=columns)
    mapping = map_graph(expansion, grid)
    schedule = schedule_graph(expansion.dfg, mapping, include_stream)
    memory = build_memory_schedule(expansion, mapping)
    program = CompiledProgram(expansion, mapping, schedule, memory)
    program.verify()
    return program


def utilization_by_pe(program: CompiledProgram) -> Dict[int, float]:
    """Busy fraction of each PE over the makespan."""
    makespan = max(1, program.schedule.makespan)
    busy: Dict[int, int] = {pe: 0 for pe in range(program.grid.n_pe)}
    for op in program.schedule.ops.values():
        busy[op.pe] += op.end - op.start
    return {pe: cycles / makespan for pe, cycles in busy.items()}
