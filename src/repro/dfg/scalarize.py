"""Scalar expansion of macro dataflow graphs.

The Compiler's Algorithm 1 (Section 6) and the cycle-level simulator
operate on *scalar* DFGs — one vertex per arithmetic operation, one edge
per operand, exactly as in the paper. This module unrolls a macro
(named-axis) graph into that form. Reductions expand into balanced binary
trees, which is both the minimum-depth schedule and what the tree bus's
reduction ALUs implement in hardware.

Expansion is intended for small instances (unit tests, estimator
validation); a guard refuses to materialise graphs beyond ``max_nodes``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from . import ir
from .ops import op_info

#: (variable name, element index) -> scalar value id
ElementMap = Dict[Tuple[str, Tuple[int, ...]], int]


class ExpansionTooLarge(ValueError):
    """The macro graph would expand past the configured node budget."""


@dataclass
class ScalarExpansion:
    """A fully unrolled DFG plus the element bookkeeping the mapper needs."""

    dfg: ir.Dfg
    #: scalar ids of every input element, by (var, index)
    elements: ElementMap = field(default_factory=dict)
    #: category -> (var, index, vid) of its input elements, in layout order
    _inputs: Dict[str, List[Tuple[str, Tuple[int, ...], int]]] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self):
        for (name, index), vid in sorted(self.elements.items()):
            value = self.dfg.values[vid]
            if value.producer is None:
                self._inputs.setdefault(value.category, []).append(
                    (name, index, vid)
                )

    def input_elements(self, category: str) -> List[Tuple[str, Tuple[int, ...], int]]:
        """(var, index, vid) for inputs of ``category`` in layout order."""
        return list(self._inputs.get(category, ()))


def scalarize(macro: ir.Dfg, max_nodes: int = 50_000) -> ScalarExpansion:
    """Unroll ``macro`` into a scalar DFG.

    Raises :class:`ExpansionTooLarge` if the expansion would exceed
    ``max_nodes`` scalar operations.
    """
    estimated = macro.total_scalar_ops()
    if estimated > max_nodes:
        raise ExpansionTooLarge(
            f"{estimated} scalar ops exceed the budget of {max_nodes}; "
            "use the macro-level estimator for graphs this large"
        )
    return _Expander(macro).run()


class _Expander:
    def __init__(self, macro: ir.Dfg):
        self._macro = macro
        self._scalar = ir.Dfg()
        # macro vid -> {index tuple -> scalar Value}
        self._grid: Dict[int, Dict[Tuple[int, ...], ir.Value]] = {}
        self._elements: ElementMap = {}

    def run(self) -> ScalarExpansion:
        for value in self._macro.values.values():
            if value.producer is None:
                self._expand_input(value)
        for node in self._macro.topo_order():
            self._expand_node(node)
        for name, vid in self._macro.outputs.items():
            # Keep one representative output binding (index () if scalar).
            grid = self._grid[vid]
            first = grid[min(grid)]
            self._scalar.outputs[name] = first.vid
        return ScalarExpansion(self._scalar, self._elements)

    # -- helpers -------------------------------------------------------------
    def _indices(self, axes: Tuple[str, ...]):
        ranges = [range(self._macro.extents[a]) for a in axes]
        return itertools.product(*ranges)

    def _expand_input(self, value: ir.Value):
        grid: Dict[Tuple[int, ...], ir.Value] = {}
        for index in self._indices(value.axes):
            if value.category == ir.CONST:
                scalar = self._scalar.add_value(
                    value.name, ir.CONST, (), const_value=value.const_value
                )
            else:
                scalar = self._scalar.add_value(
                    _element_name(value.name, index), value.category, ()
                )
                self._elements[(value.name, index)] = scalar.vid
            grid[index] = scalar
        self._grid[value.vid] = grid

    def _expand_node(self, node: ir.Node):
        info = op_info(node.op)
        out_value = self._macro.values[node.output]
        if info.reduce:
            self._expand_reduce(node, out_value)
            return
        grid: Dict[Tuple[int, ...], ir.Value] = {}
        out_axes = out_value.axes
        # Per input: its element grid and where its axes sit in out_axes.
        gathers = [
            (
                self._grid[vid],
                [out_axes.index(a) for a in self._macro.values[vid].axes],
            )
            for vid in node.inputs
        ]
        for index in self._indices(out_axes):
            operands = [
                source[tuple(index[p] for p in positions)]
                for source, positions in gathers
            ]
            grid[index] = self._scalar.add_node(
                node.op,
                operands,
                _element_name(out_value.name, index),
                (),
                is_gradient=out_value.is_gradient,
            )
        self._grid[node.output] = grid

    def _expand_reduce(self, node: ir.Node, out_value: ir.Value):
        in_value = self._macro.values[node.inputs[0]]
        in_axes = in_value.axes
        out_axes = out_value.axes
        combine = {
            "reduce_sum": "add",
            "reduce_prod": "mul",
            "reduce_min": "min",
            "reduce_max": "max",
        }[node.op]
        # Each input axis is read from the output index or, past its end,
        # from the reduced index.
        positions = [
            out_axes.index(a)
            if a in out_axes
            else len(out_axes) + node.reduce_axes.index(a)
            for a in in_axes
        ]
        source = self._grid[node.inputs[0]]
        grid: Dict[Tuple[int, ...], ir.Value] = {}
        for index in self._indices(out_axes):
            leaves: List[ir.Value] = []
            for reduced in self._indices(node.reduce_axes):
                full = index + reduced
                leaves.append(source[tuple(full[p] for p in positions)])
            grid[index] = self._tree(
                combine, leaves, out_value, index
            )
        self._grid[node.output] = grid

    def _tree(
        self,
        combine: str,
        leaves: List[ir.Value],
        out_value: ir.Value,
        index: Tuple[int, ...],
    ) -> ir.Value:
        """Balanced binary reduction tree (minimum dependence depth)."""
        if len(leaves) == 1:
            return self._scalar.add_node(
                "identity",
                leaves,
                _element_name(out_value.name, index),
                (),
                is_gradient=out_value.is_gradient,
            )
        level = leaves
        while len(level) > 1:
            nxt: List[ir.Value] = []
            for i in range(0, len(level) - 1, 2):
                name = (
                    _element_name(out_value.name, index)
                    if len(level) == 2
                    else f"%{combine}"
                )
                nxt.append(
                    self._scalar.add_node(
                        combine,
                        [level[i], level[i + 1]],
                        name,
                        (),
                        is_gradient=out_value.is_gradient and len(level) == 2,
                    )
                )
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]


def _element_name(name: str, index: Tuple[int, ...]) -> str:
    if not index:
        return name
    return f"{name}[{','.join(map(str, index))}]"
