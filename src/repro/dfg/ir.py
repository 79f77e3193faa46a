"""Dataflow-graph IR for CoSMIC.

The Translator (Section 4.2) lowers a DSL program to this IR. Values carry
the operand categories the Compiler's Algorithm 1 dispatches on — DATA
(training vectors), MODEL (parameters), INTERIM (intermediate results) and
CONST — plus *named axes*: instead of fully unrolling a 784x784 weight
matrix into hundreds of thousands of scalar nodes, a value keeps symbolic
axes (iterator names) with known extents, and each node is a shaped
macro-operation. ``repro.dfg.scalarize`` expands small graphs to the scalar
form used by the mapping algorithm and the cycle simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .ops import op_info

# Operand categories of Section 6 ("segregates the DFG operands into DATA,
# MODEL, and INTERIM categories"); CONST covers literals and meta-params.
DATA = "DATA"
MODEL = "MODEL"
INTERIM = "INTERIM"
CONST = "CONST"
CATEGORIES = (DATA, MODEL, INTERIM, CONST)


@dataclass(slots=True)
class Value:
    """An edge of the DFG: a (possibly shaped) operand.

    Attributes:
        vid: unique id within the graph.
        name: source-level name, or a generated ``%N`` temporary.
        category: one of :data:`CATEGORIES`.
        axes: named axes, e.g. ``("i", "j")``; ``()`` for scalars.
        producer: id of the node that computes this value (None for inputs).
        const_value: literal payload for CONST scalars.
        is_gradient: True for values bound to ``gradient`` DSL variables —
            the outputs shipped to the aggregation stage.
    """

    vid: int
    name: str
    category: str
    axes: Tuple[str, ...] = ()
    producer: Optional[int] = None
    const_value: Optional[float] = None
    is_gradient: bool = False


@dataclass(slots=True)
class Node:
    """A vertex of the DFG: one (macro-)operation.

    ``reduce_axes`` is non-empty only for ``reduce_*`` ops and names the
    axes consumed by the reduction.
    """

    nid: int
    op: str
    inputs: Tuple[int, ...]
    output: int
    reduce_axes: Tuple[str, ...] = ()

    def __post_init__(self):
        op_info(self.op)  # fail fast on unknown operations


class Dfg:
    """A dataflow graph with named-axis macro operations.

    Nodes are stored in the order they were created, which is a valid
    topological order because values must exist before they are consumed.
    """

    def __init__(self, extents: Optional[Dict[str, int]] = None):
        self.values: Dict[int, Value] = {}
        self.nodes: Dict[int, Node] = {}
        self._order: List[int] = []
        #: axis name -> extent (iterator range length)
        self.extents: Dict[str, int] = dict(extents or {})
        #: source-level outputs: variable name -> value id
        self.outputs: Dict[str, int] = {}

    # -- construction ----------------------------------------------------
    def add_value(
        self,
        name: str,
        category: str,
        axes: Tuple[str, ...] = (),
        producer: Optional[int] = None,
        const_value: Optional[float] = None,
        is_gradient: bool = False,
    ) -> Value:
        if category not in CATEGORIES:
            raise ValueError(f"unknown operand category {category!r}")
        for axis in axes:
            if axis not in self.extents:
                raise ValueError(f"axis {axis!r} has no declared extent")
        vid = len(self.values)
        value = Value(vid, name, category, tuple(axes), producer, const_value, is_gradient)
        self.values[vid] = value
        return value

    def add_node(
        self,
        op: str,
        inputs: Iterable[Value],
        out_name: str,
        out_axes: Tuple[str, ...],
        out_category: str = INTERIM,
        reduce_axes: Tuple[str, ...] = (),
        is_gradient: bool = False,
    ) -> Value:
        """Create a node and its output value; returns the output value."""
        input_ids = tuple(v.vid for v in inputs)
        nid = len(self.nodes)
        out = self.add_value(
            out_name, out_category, out_axes, producer=nid, is_gradient=is_gradient
        )
        node = Node(nid, op, input_ids, out.vid, tuple(reduce_axes))
        self.nodes[nid] = node
        self._order.append(nid)
        return out

    # -- shape helpers ---------------------------------------------------
    def shape(self, value: Value) -> Tuple[int, ...]:
        return tuple(self.extents[a] for a in value.axes)

    def size(self, value: Value) -> int:
        return int(math.prod(self.shape(value)))

    def node_iter_space(self, node: Node) -> int:
        """Number of scalar applications this macro-node performs."""
        axes = self._node_axes(node)
        return int(math.prod(self.extents[a] for a in axes))

    def _node_axes(self, node: Node) -> Tuple[str, ...]:
        """Union of input axes plus reduced axes, in first-seen order."""
        seen: List[str] = []
        for vid in node.inputs:
            for axis in self.values[vid].axes:
                if axis not in seen:
                    seen.append(axis)
        return tuple(seen)

    # -- traversal -------------------------------------------------------
    def topo_order(self) -> List[Node]:
        return [self.nodes[nid] for nid in self._order]

    def inputs_of_category(self, category: str) -> List[Value]:
        return [
            v
            for v in self.values.values()
            if v.producer is None and v.category == category
        ]

    def gradient_outputs(self) -> List[Value]:
        return [v for v in self.values.values() if v.is_gradient]

    def consumers(self, value: Value) -> List[Node]:
        return [n for n in self.nodes.values() if value.vid in n.inputs]

    # -- aggregate statistics used by the Planner/estimator ---------------
    def total_scalar_ops(self) -> int:
        """Total scalar ALU applications for one evaluation of the graph."""
        return sum(self.node_iter_space(n) for n in self.topo_order())

    def data_words(self) -> int:
        """Scalar words of DATA streamed from memory per evaluation."""
        return sum(self.size(v) for v in self.inputs_of_category(DATA))

    def model_words(self) -> int:
        """Scalar words of MODEL parameters the graph reads."""
        return sum(self.size(v) for v in self.inputs_of_category(MODEL))

    def gradient_words(self) -> int:
        """Scalar words of gradient produced per evaluation."""
        return sum(self.size(v) for v in self.gradient_outputs())

    def live_interim_words(self) -> int:
        """Interim words that must be buffered in PE SRAM.

        Values that only feed reductions are accumulated on the fly by the
        tree-bus ALUs and never materialised; gradient outputs are written
        back over the thread's model replica (the local SGD update).
        """
        consumed = set()
        materialised = set()
        for node in self.topo_order():
            # A reduction streams its operand; identity aliases the same
            # buffer (a rename/permute). Any other consumer needs it stored.
            streams = op_info(node.op).reduce or node.op == "identity"
            for vid in node.inputs:
                consumed.add(vid)
                if not streams:
                    materialised.add(vid)
        words = 0
        for node in self.topo_order():
            out = self.values[node.output]
            if out.is_gradient:
                continue
            if node.output in consumed and node.output not in materialised:
                continue
            words += self.size(out)
        return words

    def uses_nonlinear(self) -> bool:
        """True if any scheduled op needs the non-linear LUT unit."""
        return any(op_info(n.op).nonlinear for n in self.topo_order())

    def depth(self) -> int:
        """Length of the longest dependence chain (macro-node granularity)."""
        level: Dict[int, int] = {}
        best = 0
        for node in self.topo_order():
            dep = 0
            for vid in node.inputs:
                producer = self.values[vid].producer
                if producer is not None:
                    dep = max(dep, level[producer])
            level[node.nid] = dep + 1
            best = max(best, level[node.nid])
        return best

    def critical_path_cycles(self) -> int:
        """Longest dependence chain weighted by per-op ALU cost."""
        level: Dict[int, int] = {}
        best = 0
        for node in self.topo_order():
            dep = 0
            for vid in node.inputs:
                producer = self.values[vid].producer
                if producer is not None:
                    dep = max(dep, level[producer])
            level[node.nid] = dep + op_info(node.op).cycles
            best = max(best, level[node.nid])
        return best

    # -- validation --------------------------------------------------------
    def validate(self):
        """Structural invariants; raises ValueError when violated."""
        for node in self.nodes.values():
            info = op_info(node.op)
            if not info.reduce and len(node.inputs) != info.arity:
                raise ValueError(
                    f"node {node.nid} ({node.op}) has {len(node.inputs)} inputs, "
                    f"expected {info.arity}"
                )
            if info.reduce and not node.reduce_axes:
                raise ValueError(f"reduce node {node.nid} has no reduce axes")
            if not info.reduce and node.reduce_axes:
                raise ValueError(f"non-reduce node {node.nid} has reduce axes")
            out = self.values[node.output]
            if out.producer != node.nid:
                raise ValueError(f"output of node {node.nid} has wrong producer")
            for vid in node.inputs:
                value = self.values[vid]
                if value.producer is not None and value.producer >= node.nid:
                    raise ValueError(
                        f"node {node.nid} consumes value produced later"
                    )
            if info.reduce:
                in_axes = set(self.values[node.inputs[0]].axes)
                if not set(node.reduce_axes) <= in_axes:
                    raise ValueError(
                        f"node {node.nid} reduces axes not present in its input"
                    )
                expect = tuple(
                    a for a in self.values[node.inputs[0]].axes
                    if a not in node.reduce_axes
                )
                if out.axes != expect:
                    raise ValueError(f"node {node.nid} output axes mismatch")
        for name, vid in self.outputs.items():
            if vid not in self.values:
                raise ValueError(f"output {name!r} refers to missing value")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dfg(nodes={len(self.nodes)}, values={len(self.values)}, "
            f"axes={self.extents})"
        )
