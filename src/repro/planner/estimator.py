"""Performance estimation tool (Section 4.4).

"Instead of simulation, which will be intractable, we propose to equip the
Planner with a performance estimation tool. The tool will use the static
schedule of the operations for each design point to estimate its relative
performance." Estimation is viable because the DFG is fixed, there is no
hardware-managed cache, and the architecture does not change during
execution.

The model charges, per macro-operation of the DFG:

* **work** — scalar applications tiled over the thread's PEs
  (``ceil(space / n_pe)`` issue slots, weighted by per-op ALU cycles);
* **communication** — reduction merges across the interconnect
  (logarithmic on CoSMIC's tree bus, linear on a flat shared bus — the
  structural difference behind Figure 17), plus broadcast of scalars
  produced by one PE and consumed by a vector operation.

Compute is always dense: the static schedule cannot skip zeros. A
sparse (one-hot) DATA input's density thins only the words the memory
interface streams (:func:`effective_data_words`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..dfg import ir
from ..dfg.ops import op_info

#: CoSMIC's hierarchical tree bus with per-node reduction ALUs (Section 5.1).
TREE = "tree"
#: A single flat shared bus (TABLA's interconnect, for Figure 17).
FLAT = "flat"


@dataclass(frozen=True)
class CostParams:
    """Interconnect/mapping knobs of the cost model.

    ``mapping="data_first"`` is CoSMIC's Algorithm 1 (operands co-located
    with their operations, near-zero shuffle traffic); ``"ops_first"``
    models TABLA's latency-first mapping, which leaves a fraction
    ``shuffle_fraction`` of operand reads crossing the interconnect.
    """

    interconnect: str = TREE
    mapping: str = "data_first"
    bus_hop_cycles: int = 2  # pipelined shared-bus transfer
    neighbor_hop_cycles: int = 1
    shuffle_fraction: float = 0.45  # ops-first operand traffic share
    pipeline_depth: int = 5  # PE pipeline fill (Section 5.1)
    #: The prefetch buffer overlaps streaming with compute (Section 5.1);
    #: architectures without one (TABLA) serialise the two phases.
    overlap_stream: bool = True
    #: Fraction of off-chip bandwidth delivered to PEs. The shifter lets
    #: CoSMIC consume unaligned bursts at full rate; without it, padding
    #: and marshaling waste a share of every burst.
    stream_efficiency: float = 1.0


@dataclass(frozen=True)
class ThreadEstimate:
    """Per-sample cycle estimate for one worker thread.

    Frozen because one estimate is shared by every plan whose thread has
    the same (PEs, rows) on the same profile; ``per_node`` is read-only
    by convention.
    """

    work_cycles: float
    comm_cycles: float
    critical_path: float
    per_node: Dict[int, float] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return max(self.work_cycles + self.comm_cycles, self.critical_path)


class NodeCost(NamedTuple):
    """What the estimator needs of one macro-node, independent of the
    design point."""

    nid: int
    #: Scalar applications.
    space: int
    #: ALU cycles per application.
    cycles: int
    reduce: bool
    #: Partials a reduction merges; 1 for element-wise ops.
    width: int
    #: Outputs a reduction produces; their merges pipeline.
    out_count: int
    #: Produced operands of lower rank fanned out to this shaped op.
    broadcasts: int


class CostProfile:
    """The design-point-independent part of the estimate, for one DFG.

    Built in one topological walk of the DFG under fixed cost
    parameters; :meth:`estimate` then costs any (PEs, rows)
    point with only the tiling, merge, broadcast and shuffle arithmetic,
    once per point: an estimate depends on nothing else, so it is
    memoised on the profile. The Planner keeps one profile per (graph,
    cost params) on the graph, so plans on chips that differ only in DSP
    count, ``max_rows`` or bandwidth share their estimates.
    """

    def __init__(self, dfg: ir.Dfg, params: CostParams = CostParams()):
        self.params = params
        nodes: List[NodeCost] = []
        for node in dfg.topo_order():
            info = op_info(node.op)
            width = out_count = 1
            if info.reduce:
                width = max(
                    1, math.prod(dfg.extents[a] for a in node.reduce_axes)
                )
                out_count = max(1, dfg.size(dfg.values[node.output]))
            nodes.append(
                NodeCost(
                    node.nid,
                    dfg.node_iter_space(node),
                    info.cycles,
                    info.reduce,
                    width,
                    out_count,
                    _broadcasts(dfg, node),
                )
            )
        self.nodes = tuple(nodes)
        self.critical_path = dfg.critical_path_cycles() + params.pipeline_depth
        self._estimates: Dict[Tuple[int, int], ThreadEstimate] = {}

    def estimate(self, n_pe: int, rows: int) -> ThreadEstimate:
        """Cycles for one thread of ``n_pe`` PEs in ``rows`` rows.

        Memoised per point; callers share the returned estimate.
        """
        key = (n_pe, rows)
        if key not in self._estimates:
            self._estimates[key] = self._estimate(n_pe, rows)
        return self._estimates[key]

    def _estimate(self, n_pe: int, rows: int) -> ThreadEstimate:
        """:meth:`estimate` without the memo.

        Work, communication and each node's total accumulate in
        topological order, each node's communication as reduction, then
        broadcast, then shuffle: the ops-first shuffle term is not an
        integer, so the order of the float sums is part of the result.
        """
        if n_pe < 1:
            raise ValueError("a thread needs at least one PE")
        params = self.params
        tree = params.interconnect == TREE
        hop = params.bus_hop_cycles
        ops_first = params.mapping == "ops_first"
        # Scalars fanned out to a shaped operation traverse the buses.
        if tree:
            per_broadcast = (1 + math.ceil(math.log2(max(2, rows)))) * hop
        else:
            per_broadcast = max(2, rows) * hop
        work = 0.0
        comm = 0.0
        per_node: Dict[int, float] = {}
        for nid, space, cycles, reduce, width, outs, broadcasts in self.nodes:
            slots = math.ceil(space / n_pe)
            node_work = slots * cycles
            node_comm = 0.0
            spread = min(width, n_pe)
            if reduce and spread > 1:
                # Merge the partials across the PEs that hold them: a
                # tree is logarithmic, a flat shared bus serialises every
                # transfer. Independent outputs pipeline their merges:
                # full latency once plus an issue slot per extra output.
                if tree:
                    merge = math.ceil(math.log2(spread)) * hop
                else:
                    merge = (spread - 1) * hop
                node_comm += merge + max(0, outs - 1)
            node_comm += broadcasts * per_broadcast
            if ops_first and not reduce:
                # TABLA-style mapping: operands frequently live on other PEs.
                node_comm += params.shuffle_fraction * slots * hop
            work += node_work
            comm += node_comm
            per_node[nid] = node_work + node_comm
        return ThreadEstimate(work, comm, self.critical_path, per_node)


def estimate_thread_cycles(
    dfg: ir.Dfg,
    n_pe: int,
    rows: int,
    params: CostParams = CostParams(),
) -> ThreadEstimate:
    """Cycles for one thread to evaluate the gradient DFG on one sample.

    Args:
        dfg: the macro (named-axis) dataflow graph.
        n_pe: PEs allocated to the thread (rows x columns).
        rows: PE rows of the thread (tree-bus depth across rows).
        params: interconnect/mapping model.
    """
    return CostProfile(dfg, params).estimate(n_pe, rows)


def _broadcasts(dfg: ir.Dfg, node: ir.Node) -> int:
    """Produced operands of lower rank than a shaped node's output.

    Constants and inputs are pre-placed by the memory interface; only
    values computed on one PE must be fanned out.
    """
    out_axes = set(dfg.values[node.output].axes)
    if not out_axes:
        return 0
    count = 0
    for vid in node.inputs:
        value = dfg.values[vid]
        if value.category == ir.CONST or value.producer is None:
            continue
        if set(value.axes) < out_axes:
            count += 1
    return count


def effective_data_words(
    dfg: ir.Dfg, density: Optional[Mapping[str, float]] = None
) -> float:
    """Words streamed from memory per sample, honouring sparse encodings.

    A sparse input of width ``w`` and density ``d`` streams ``2*w*d`` words
    (index + value pairs), never more than its dense size.
    """
    density = density or {}
    words = 0.0
    for value in dfg.inputs_of_category(ir.DATA):
        size = dfg.size(value)
        d = float(density.get(value.name, 1.0))
        if d >= 1.0:
            words += size
        else:
            words += min(size, max(1.0, 2.0 * size * d))
    return words
