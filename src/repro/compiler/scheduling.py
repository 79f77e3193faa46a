"""Static operation scheduling for the mapped DFG (Section 6).

Given Algorithm 1's map, the scheduler produces the cycle-exact static
schedule that the Constructor later turns into state machines (FPGA) or
microcode (P-ASIC). It is a list scheduler that prioritises operations on
the longest dependence chain — "the Compiler also prioritizes scheduling
operations that have the longest dependence chain" — and charges the
template's three-level interconnect for every cross-PE operand:

* adjacent PEs in a row: bi-directional neighbour link (1 cycle);
* same row: the row's shared bus (pipelined, latency 2, 1 grant/cycle);
* across rows: the hierarchical tree bus (latency grows logarithmically
  with the row count).

DATA operands become available as the programmable memory interface
streams them in (``columns`` words per cycle through the shifter); MODEL
parameters are broadcast before the steady state and are ready at cycle 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..dfg import ir
from ..dfg.ops import op_info
from .mapping import Mapping, PeGrid

#: Cycles for the shifter to align an incoming memory word (Section 5.1).
SHIFTER_LATENCY = 2
#: Pipelined shared-bus transfer latency within a row.
ROW_BUS_LATENCY = 2
#: Neighbour-link latency between adjacent PEs in a row.
NEIGHBOR_LATENCY = 1


@dataclass(frozen=True)
class ScheduledOp:
    nid: int
    pe: int
    start: int
    end: int  # last busy cycle + 1


@dataclass(frozen=True)
class Transfer:
    value: int
    src_pe: int
    dst_pe: int
    start: int
    latency: int
    resource: str  # "neighbor" | "row_bus:<r>" | "tree_bus"


@dataclass
class Schedule:
    """The static schedule for one worker thread."""

    grid: PeGrid
    ops: Dict[int, ScheduledOp] = field(default_factory=dict)
    transfers: List[Transfer] = field(default_factory=list)
    makespan: int = 0


def tree_bus_latency(rows: int) -> int:
    """Cross-row transfer latency over the hierarchical tree bus."""
    return 2 + 2 * math.ceil(math.log2(max(2, rows)))


def schedule_graph(
    dfg: ir.Dfg,
    mapping: Mapping,
    include_stream: bool = True,
    priority: str = "longest_chain",
) -> Schedule:
    """List-schedule a mapped scalar DFG.

    Args:
        dfg: the scalar graph.
        mapping: Algorithm 1's output.
        include_stream: gate DATA operands on their memory arrival cycle
            (set False to measure pure compute, e.g. in steady state with
            the prefetch buffer already full).
        priority: ``"longest_chain"`` (the paper's heuristic — nodes on
            the longest dependence chain first) or ``"source_order"``
            (naive FIFO baseline, for ablating the heuristic).
    """
    if priority not in ("longest_chain", "source_order"):
        raise ValueError(f"unknown priority policy {priority!r}")
    grid = mapping.grid
    schedule = Schedule(grid)
    if priority == "longest_chain":
        ranks = _heights(dfg)
    else:
        ranks = {n.nid: -n.nid for n in dfg.topo_order()}
    ready_at: Dict[int, int] = {}  # value id -> cycle available at home PE
    arrival = _data_arrivals(mapping) if include_stream else {}
    pe_free = [0] * grid.n_pe
    bus = _BusCalendar(grid)

    for value in dfg.values.values():
        if value.producer is None:
            ready_at[value.vid] = arrival.get(value.vid, 0)

    # A producer outranks each of its consumers: under "longest_chain" its
    # height adds at least one cycle to theirs, under "source_order" the
    # Dfg numbers producers first. So in rank order every operand is ready
    # when its consumer is reached, and one pass issues the whole graph.
    for node in sorted(
        dfg.topo_order(), key=lambda n: ranks[n.nid], reverse=True
    ):
        _issue(node, dfg, mapping, schedule, ready_at, pe_free, bus)
    schedule.makespan = max(
        (op.end for op in schedule.ops.values()), default=0
    )
    return schedule


def verify_schedule(dfg: ir.Dfg, mapping: Mapping, schedule: Schedule):
    """Raise ValueError if the schedule violates any hardware constraint.

    Checks: every node scheduled once on its mapped PE; dependencies
    respected (a consumer starts only after its producers end, plus the
    transfer latency when they live on different PEs); no two ops overlap
    on one PE.
    """
    order = dfg.topo_order()
    if set(schedule.ops) != {n.nid for n in order}:
        raise ValueError("schedule does not cover the graph exactly")
    done: Dict[int, int] = {}
    for node in order:
        op = schedule.ops[node.nid]
        if op.pe != mapping.pe_of_node[node.nid]:
            raise ValueError(f"node {node.nid} scheduled on the wrong PE")
        done[node.output] = op.end
    transfer_done: Dict[Tuple[int, int], List[int]] = {}
    for t in schedule.transfers:
        transfer_done.setdefault((t.value, t.dst_pe), []).append(
            t.start + t.latency
        )
    for node in order:
        op = schedule.ops[node.nid]
        for vid in node.inputs:
            value = dfg.values[vid]
            if value.category == ir.CONST:
                continue
            src = mapping.pe_of_value.get(vid)
            if value.producer is not None and op.start < done[vid]:
                raise ValueError(
                    f"node {node.nid} starts before producer of {vid}"
                )
            if src is not None and src != op.pe:
                key = (vid, op.pe)
                if key not in transfer_done:
                    raise ValueError(
                        f"no transfer delivers value {vid} to PE {op.pe}"
                    )
                if not any(done <= op.start for done in transfer_done[key]):
                    raise ValueError(
                        f"node {node.nid} starts before value {vid} arrives"
                    )
    ops_by_pe: Dict[int, List[ScheduledOp]] = {}
    for op in schedule.ops.values():
        ops_by_pe.setdefault(op.pe, []).append(op)
    for pe in sorted(ops_by_pe):
        ops = sorted(ops_by_pe[pe], key=lambda op: op.start)
        for a, b in zip(ops, ops[1:]):
            if b.start < a.end:
                raise ValueError(f"PE {pe} runs two ops at cycle {b.start}")


# -- internals ---------------------------------------------------------------


def _heights(dfg: ir.Dfg) -> Dict[int, int]:
    """Longest dependence chain from each node to any sink.

    One reverse pass: ``below`` carries each value's tallest consumer.
    """
    height: Dict[int, int] = {}
    below: Dict[int, int] = {}
    for node in reversed(dfg.topo_order()):
        h = op_info(node.op).cycles + below.get(node.output, 0)
        height[node.nid] = h
        for vid in node.inputs:
            if below.get(vid, 0) < h:
                below[vid] = h
    return height


def _data_arrivals(mapping: Mapping) -> Dict[int, int]:
    """Cycle at which each DATA element lands in its PE buffer."""
    columns = mapping.grid.columns
    return {
        vid: pos // columns + 1 + SHIFTER_LATENCY
        for vid, pos in mapping.stream_position.items()
    }


class _BusCalendar:
    """Next-free bookkeeping for the shared interconnect resources."""

    def __init__(self, grid: PeGrid):
        self._grid = grid
        self._row_bus_free = [0] * grid.rows
        self._tree_bus_free = 0

    def route(
        self, src: int, dst: int, earliest: int
    ) -> Tuple[int, int, str]:
        """Reserve a path; returns (start, latency, resource)."""
        src_row, src_col = self._grid.position(src)
        dst_row, dst_col = self._grid.position(dst)
        if src_row == dst_row and abs(src_col - dst_col) == 1:
            return earliest, NEIGHBOR_LATENCY, "neighbor"
        if src_row == dst_row:
            start = max(earliest, self._row_bus_free[src_row])
            self._row_bus_free[src_row] = start + 1
            return start, ROW_BUS_LATENCY, f"row_bus:{src_row}"
        start = max(earliest, self._tree_bus_free)
        self._tree_bus_free = start + 1
        return start, tree_bus_latency(self._grid.rows), "tree_bus"


def _issue(
    node: ir.Node,
    dfg: ir.Dfg,
    mapping: Mapping,
    schedule: Schedule,
    ready_at: Dict[int, int],
    pe_free: List[int],
    bus: _BusCalendar,
):
    pe = mapping.pe_of_node[node.nid]
    earliest = 0
    for vid in node.inputs:
        value = dfg.values[vid]
        if value.category == ir.CONST:
            continue
        available = ready_at[vid]
        src = mapping.pe_of_value.get(vid, pe)
        if src != pe:
            start, latency, resource = bus.route(src, pe, available)
            schedule.transfers.append(
                Transfer(vid, src, pe, start, latency, resource)
            )
            available = start + latency
        earliest = max(earliest, available)
    start = max(earliest, pe_free[pe])
    cycles = op_info(node.op).cycles
    op = ScheduledOp(node.nid, pe, start, start + cycles)
    schedule.ops[node.nid] = op
    pe_free[pe] = op.end
    ready_at[node.output] = op.end
