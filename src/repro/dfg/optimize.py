"""Optimisation passes over the dataflow graph.

The Translator emits a literal rendering of the programmer's formula;
before mapping, the Compiler can clean it up:

* **constant folding** — operations whose inputs are all constants are
  evaluated at compile time (the DSL's ``1 - out[k]``-style arithmetic
  produces plenty of these);
* **common-subexpression elimination** — structurally identical
  operations compute once (``sum[i](w[i]*x[i])`` reused across
  statements);
* **dead-code elimination** — values that cannot reach a gradient or
  named output are dropped.

Every pass is semantics-preserving: the optimised graph produces
bit-identical results through the interpreter, which the test suite
checks property-style. Passes run at the macro (named-axis) level so the
savings multiply through scalarization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import ir
from .ops import op_info


@dataclass
class OptimizationReport:
    """What the pipeline changed."""

    nodes_before: int
    nodes_after: int
    folded: int
    cse_merged: int
    dead_removed: int


def optimize(
    dfg: ir.Dfg, passes: Tuple[str, ...] = ("fold", "cse", "dce")
) -> Tuple[ir.Dfg, OptimizationReport]:
    """Run the optimisation pipeline; returns (new graph, report)."""
    for name in passes:
        if name not in ("fold", "cse", "dce"):
            raise ValueError(f"unknown pass {name!r}")
    builder = _Rebuilder(dfg, set(passes))
    return builder.run()


class _Rebuilder:
    """Single rebuilding walk applying fold + CSE, then a DCE sweep."""

    def __init__(self, src: ir.Dfg, passes):
        self._src = src
        self._passes = passes
        self._out = ir.Dfg(dict(src.extents))
        self._map: Dict[int, ir.Value] = {}  # src vid -> new value
        self._cse: Dict[tuple, ir.Value] = {}
        self._const_cache: Dict[float, ir.Value] = {}
        self.folded = 0
        self.cse_merged = 0

    def run(self) -> Tuple[ir.Dfg, OptimizationReport]:
        for value in self._src.values.values():
            if value.producer is None:
                self._map[value.vid] = self._copy_input(value)
        for node in self._src.topo_order():
            self._map[node.output] = self._rebuild(node)
        for name, vid in self._src.outputs.items():
            self._out.outputs[name] = self._map[vid].vid
        result = self._out
        dead_removed = 0
        if "dce" in self._passes:
            result, dead_removed = _eliminate_dead(result)
        result.validate()
        return result, OptimizationReport(
            nodes_before=len(self._src.nodes),
            nodes_after=len(result.nodes),
            folded=self.folded,
            cse_merged=self.cse_merged,
            dead_removed=dead_removed,
        )

    def _copy_input(self, value: ir.Value) -> ir.Value:
        if value.category == ir.CONST:
            return self._const(value.const_value)
        return self._out.add_value(
            value.name, value.category, value.axes,
            const_value=value.const_value,
        )

    def _const(self, literal: float) -> ir.Value:
        key = float(literal)
        if key not in self._const_cache:
            self._const_cache[key] = self._out.add_value(
                "%c", ir.CONST, (), const_value=key
            )
        return self._const_cache[key]

    def _rebuild(self, node: ir.Node) -> ir.Value:
        inputs = [self._map[vid] for vid in node.inputs]
        out_src = self._src.values[node.output]

        if "fold" in self._passes and self._foldable(node, inputs):
            literal = self._evaluate(node, inputs)
            if literal is not None:
                self.folded += 1
                return self._const(literal)

        if "cse" in self._passes:
            key = (
                node.op,
                tuple(v.vid for v in inputs),
                out_src.axes,
                node.reduce_axes,
            )
            hit = self._cse.get(key)
            if hit is not None:
                self.cse_merged += 1
                # Preserve gradient visibility: if this duplicate was a
                # gradient output, expose the shared value under its name.
                if out_src.is_gradient and not hit.is_gradient:
                    alias = self._out.add_node(
                        "identity", [hit], out_src.name, out_src.axes,
                        is_gradient=True,
                    )
                    return alias
                return hit

        rebuilt = self._out.add_node(
            node.op,
            inputs,
            out_src.name,
            out_src.axes,
            reduce_axes=node.reduce_axes,
            is_gradient=out_src.is_gradient,
        )
        if "cse" in self._passes:
            key = (
                node.op,
                tuple(v.vid for v in inputs),
                out_src.axes,
                node.reduce_axes,
            )
            self._cse[key] = rebuilt
        return rebuilt

    def _foldable(self, node: ir.Node, inputs) -> bool:
        out = self._src.values[node.output]
        if out.axes or out.is_gradient:
            return False  # fold scalars only; keep named outputs
        return all(
            v.category == ir.CONST and v.const_value is not None
            for v in inputs
        )

    def _evaluate(self, node: ir.Node, inputs) -> Optional[float]:
        info = op_info(node.op)
        try:
            if info.reduce:
                return None  # scalar reduce over consts cannot occur
            operands = [np.float64(v.const_value) for v in inputs]
            result = float(info.numpy_fn(*operands))
        except Exception:
            return None
        if not np.isfinite(result):
            return None
        return result


def _eliminate_dead(dfg: ir.Dfg) -> Tuple[ir.Dfg, int]:
    """Drop every node that cannot reach a gradient or named output."""
    live: set = set(dfg.outputs.values())
    live |= {v.vid for v in dfg.gradient_outputs()}
    for node in reversed(dfg.topo_order()):
        if node.output in live:
            live |= set(node.inputs)
    out = ir.Dfg(dict(dfg.extents))
    mapping: Dict[int, ir.Value] = {}
    removed = 0
    for value in dfg.values.values():
        if value.producer is None:
            # Keep all non-const inputs: feeds are part of the interface.
            if value.category == ir.CONST and value.vid not in live:
                continue
            mapping[value.vid] = out.add_value(
                value.name, value.category, value.axes,
                const_value=value.const_value,
            )
    for node in dfg.topo_order():
        if node.output not in live:
            removed += 1
            continue
        src_out = dfg.values[node.output]
        mapping[node.output] = out.add_node(
            node.op,
            [mapping[vid] for vid in node.inputs],
            src_out.name,
            src_out.axes,
            reduce_axes=node.reduce_axes,
            is_gradient=src_out.is_gradient,
        )
    for name, vid in dfg.outputs.items():
        out.outputs[name] = mapping[vid].vid
    return out, removed
