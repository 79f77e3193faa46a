"""Algorithm 1: minimum-communication data/operation mapping (Section 6).

CoSMIC's Compiler reverses the conventional order — it maps *data* before
*operations*:

1. every training-data element (DATA) is pinned to the PE fed by the
   memory-interface column that streams that element in, so no marshaling
   is ever needed;
2. operations are then mapped onto the PEs that already hold their
   operands (DATA first, then MODEL, then INTERIM), with unplaced model
   parameters assigned round-robin so neighbouring PEs execute in
   parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dfg import ir
from ..dfg.scalarize import ScalarExpansion


class MappingError(ValueError):
    """The graph cannot be mapped onto the given geometry."""


@dataclass
class PeGrid:
    """Geometry of one worker thread's PE allocation."""

    rows: int
    columns: int

    @property
    def n_pe(self) -> int:
        return self.rows * self.columns

    def pe_of(self, row: int, col: int) -> int:
        return row * self.columns + col

    def position(self, pe: int) -> tuple:
        return divmod(pe, self.columns)

    def stream_pe(self, stream_pos: int) -> int:
        """PE receiving the DATA element at ``stream_pos``.

        The element arrives on column ``stream_pos % columns``; the
        shifter spreads consecutive bursts across rows.
        """
        col = stream_pos % self.columns
        row = (stream_pos // self.columns) % self.rows
        return self.pe_of(row, col)


@dataclass
class Mapping:
    """Output of Algorithm 1."""

    grid: PeGrid
    #: pe -> node ids in mapping order (the paper's O array)
    operation_map: Dict[int, List[int]] = field(default_factory=dict)
    #: pe -> value ids resident in that PE's buffers (the D array)
    data_map: Dict[int, List[int]] = field(default_factory=dict)
    pe_of_node: Dict[int, int] = field(default_factory=dict)
    pe_of_value: Dict[int, int] = field(default_factory=dict)
    #: DATA value id -> stream position (memory layout order)
    stream_position: Dict[int, int] = field(default_factory=dict)


def map_graph(expansion: ScalarExpansion, grid: PeGrid) -> Mapping:
    """Run Algorithm 1 on a scalar DFG.

    Args:
        expansion: scalar graph plus element bookkeeping from
            :func:`repro.dfg.scalarize.scalarize`.
        grid: the thread's PE geometry from the Planner.
    """
    dfg = expansion.dfg
    mapping = Mapping(grid)
    for pe in range(grid.n_pe):
        mapping.operation_map[pe] = []
        mapping.data_map[pe] = []

    _place_data(expansion, mapping)
    _map_operations(dfg, mapping)
    return mapping


def _place_data(expansion: ScalarExpansion, mapping: Mapping):
    """Step 1: pin DATA elements to the column that brings them in."""
    stream = expansion.input_elements(ir.DATA)
    for position, (_, _, vid) in enumerate(stream):
        pe = mapping.grid.stream_pe(position)
        mapping.pe_of_value[vid] = pe
        mapping.data_map[pe].append(vid)
        mapping.stream_position[vid] = position


def _map_operations(dfg: ir.Dfg, mapping: Mapping):
    """Steps 2-6: walk ready vertices, dispatching on operand category."""
    pe_counter = 0
    placed = mapping.pe_of_value
    remaining = list(dfg.topo_order())
    for node in remaining:  # topo order guarantees predecessors are mapped
        pe = _data_operand_pe(dfg, node, placed)
        if pe is not None:
            _adopt_model_operands(dfg, node, pe, mapping)
        else:
            pe, pe_counter = _model_or_interim_pe(
                dfg, node, placed, pe_counter, mapping
            )
        out = dfg.values[node.output]
        mapping.pe_of_node[node.nid] = pe
        mapping.operation_map[pe].append(node.nid)
        placed[out.vid] = pe


def _data_operand_pe(
    dfg: ir.Dfg, node: ir.Node, placed: Dict[int, int]
) -> Optional[int]:
    """Step 3: if any operand is DATA, the op runs where the data lives."""
    for vid in node.inputs:
        value = dfg.values[vid]
        if value.category == ir.DATA and value.producer is None:
            if vid not in placed:
                raise MappingError(f"DATA element {value.name!r} not placed")
            return placed[vid]
    return None


def _adopt_model_operands(
    dfg: ir.Dfg, node: ir.Node, pe: int, mapping: Mapping
):
    """Step 3 (cont.): co-locate the op's MODEL operands with it."""
    for vid in node.inputs:
        value = dfg.values[vid]
        if (
            value.category == ir.MODEL
            and value.producer is None
            and vid not in mapping.pe_of_value
        ):
            mapping.pe_of_value[vid] = pe
            mapping.data_map[pe].append(vid)


def _model_or_interim_pe(
    dfg: ir.Dfg,
    node: ir.Node,
    placed: Dict[int, int],
    pe_counter: int,
    mapping: Mapping,
):
    """Steps 4-5: follow MODEL placement, then INTERIM, else round-robin."""
    for vid in node.inputs:
        value = dfg.values[vid]
        if value.category == ir.MODEL and value.producer is None:
            if vid in placed:
                return placed[vid], pe_counter
            pe = pe_counter
            placed[vid] = pe
            mapping.data_map[pe].append(vid)
            pe_counter = (pe_counter + 1) % mapping.grid.n_pe
            return pe, pe_counter
    for vid in node.inputs:
        value = dfg.values[vid]
        if value.category != ir.CONST and vid in placed:
            return placed[vid], pe_counter
    # All-constant operands: round-robin for parallelism.
    pe = pe_counter
    pe_counter = (pe_counter + 1) % mapping.grid.n_pe
    return pe, pe_counter


def communication_edges(dfg: ir.Dfg, mapping: Mapping) -> List[tuple]:
    """(node, operand value, src_pe, dst_pe) for every cross-PE operand.

    This is the traffic Algorithm 1 minimises; tests assert data-first
    mapping produces less of it than ops-first alternatives.
    """
    edges = []
    for node in dfg.topo_order():
        dst = mapping.pe_of_node[node.nid]
        for vid in node.inputs:
            value = dfg.values[vid]
            if value.category == ir.CONST:
                continue
            src = mapping.pe_of_value.get(vid)
            if src is not None and src != dst:
                edges.append((node.nid, vid, src, dst))
    return edges
