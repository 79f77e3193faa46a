"""Reverse-mode differentiation of dataflow graphs.

The paper requires programmers to write the *gradient* of their loss
(Section 2.1). This module removes that burden: write the loss itself and
CoSMIC derives the partial-gradient DFG by reverse accumulation over the
named-axis IR — producing exactly the kind of graph the Compiler and
Planner already consume. Backpropagation falls out automatically: the
derived graph for the MLP's squared loss *is* the paper's hand-written
backprop program.

Axis discipline: the adjoint of a value always carries that value's axes.
When a value with axes ``A`` feeds an operation with axes ``B ⊇ A``
(an implicit broadcast), the adjoint contribution is summed over the
extra axes ``B \\ A`` — the transpose of broadcasting.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..dsl import ast
from ..dsl.errors import DslError
from ..dsl.parser import parse
from . import ir
from .translate import AggregatorSpec, Translation, translate


class DifferentiationError(DslError):
    """The loss graph contains an op with no differentiation rule."""


def derive_gradients(
    source: str,
    bindings: Optional[Mapping[str, int]] = None,
    loss_name: str = "loss",
) -> Translation:
    """Compile a loss-only DSL program into a gradient Translation.

    The program declares ``model``/``model_input``/``model_output``
    variables and assigns a scalar to ``loss_name``; no ``gradient``
    declarations or gradient formulas are needed. The result is a
    drop-in :class:`repro.dfg.translate.Translation` whose DFG outputs
    one gradient per model variable, named ``g_<model>``.
    """
    program = parse(source)
    if not any(s.target == loss_name for s in program.statements):
        raise DifferentiationError(
            f"program never assigns the loss variable {loss_name!r}"
        )
    # The semantic checker requires a gradient formulation; the loss
    # program legitimately has none, so pre-register phantom gradients.
    forward = translate(_with_phantom_gradient(program), bindings)
    loss_vid = forward.dfg.outputs.get(loss_name)
    if loss_vid is None:
        # The loss is an interim; locate it by name.
        loss_vid = _find_value(forward.dfg, loss_name)
    grad_dfg = differentiate(forward.dfg, loss_vid)
    pairs = tuple(
        (name[2:], name)
        for name in sorted(
            v.name for v in grad_dfg.gradient_outputs()
        )
    )
    return Translation(
        dfg=grad_dfg,
        table=forward.table,
        bindings=dict(bindings or {}),
        aggregator=AggregatorSpec("mean", pairs),
        program=program,
    )


def differentiate(dfg: ir.Dfg, loss_vid: int) -> ir.Dfg:
    """Return a new DFG computing d(loss)/d(model) for every MODEL input.

    The result contains the forward graph (re-emitted) followed by the
    adjoint computation; gradient outputs are flagged ``is_gradient`` and
    named ``g_<model>``.
    """
    loss = dfg.values[loss_vid]
    if loss.axes:
        raise DifferentiationError(
            f"loss {loss.name!r} must be scalar, has axes {loss.axes}"
        )
    return _Differentiator(dfg, loss_vid).run()


class _Differentiator:
    def __init__(self, dfg: ir.Dfg, loss_vid: int):
        self._src = dfg
        self._loss_vid = loss_vid
        self._out = ir.Dfg(dict(dfg.extents))
        #: source value id -> value in the new graph (forward copy)
        self._fwd: Dict[int, ir.Value] = {}
        #: source value id -> accumulated adjoint in the new graph
        self._adj: Dict[int, ir.Value] = {}

    def run(self) -> ir.Dfg:
        self._copy_forward()
        one = self._out.add_value("%one", ir.CONST, (), const_value=1.0)
        self._adj[self._loss_vid] = one
        for node in reversed(self._src.topo_order()):
            out_adj = self._adj.get(node.output)
            if out_adj is None:
                continue  # this node does not influence the loss
            self._backprop(node, out_adj)
        self._emit_gradients()
        self._out.outputs.update(
            {
                name: self._fwd[vid].vid
                for name, vid in self._src.outputs.items()
                if vid in self._fwd
            }
        )
        # Expose the (forward) loss so users can monitor it for free.
        loss = self._src.values[self._loss_vid]
        self._out.outputs.setdefault(loss.name, self._fwd[self._loss_vid].vid)
        self._out.validate()
        return self._out

    # -- forward copy -----------------------------------------------------
    def _copy_forward(self):
        for value in self._src.values.values():
            if value.producer is None:
                self._fwd[value.vid] = self._out.add_value(
                    value.name, value.category, value.axes,
                    const_value=value.const_value,
                )
        for node in self._src.topo_order():
            out = self._src.values[node.output]
            self._fwd[node.output] = self._out.add_node(
                node.op,
                [self._fwd[vid] for vid in node.inputs],
                out.name,
                out.axes,
                reduce_axes=node.reduce_axes,
            )

    # -- adjoint plumbing ---------------------------------------------------
    def _accumulate(self, src_vid: int, contribution: ir.Value):
        """Add a contribution to d(loss)/d(src value), axis-aligned."""
        target = self._src.values[src_vid]
        contribution = self._project(contribution, target.axes)
        existing = self._adj.get(src_vid)
        if existing is None:
            self._adj[src_vid] = contribution
        else:
            self._adj[src_vid] = self._out.add_node(
                "add", [existing, contribution], "%adj", target.axes
            )

    def _project(self, value: ir.Value, axes: Tuple[str, ...]) -> ir.Value:
        """Sum out axes not in ``axes`` (transpose of broadcasting)."""
        extra = tuple(a for a in value.axes if a not in axes)
        if extra:
            kept = tuple(a for a in value.axes if a in axes)
            value = self._out.add_node(
                "reduce_sum", [value], "%proj", kept, reduce_axes=extra
            )
        if value.axes != axes:
            value = self._out.add_node("identity", [value], "%align", axes)
        return value

    def _const(self, literal: float) -> ir.Value:
        return self._out.add_value(
            "%c", ir.CONST, (), const_value=float(literal)
        )

    def _node(self, op: str, inputs: List[ir.Value]) -> ir.Value:
        axes: Tuple[str, ...] = ()
        for value in inputs:
            for axis in value.axes:
                if axis not in axes:
                    axes = axes + (axis,)
        return self._out.add_node(op, inputs, f"%d{op}", axes)

    # -- per-op rules -----------------------------------------------------
    def _backprop(self, node: ir.Node, adj: ir.Value):
        op = node.op
        fwd_in = [self._fwd[vid] for vid in node.inputs]
        fwd_out = self._fwd[node.output]
        if op == "add":
            self._accumulate(node.inputs[0], adj)
            self._accumulate(node.inputs[1], adj)
        elif op == "sub":
            self._accumulate(node.inputs[0], adj)
            self._accumulate(node.inputs[1], self._node("neg", [adj]))
        elif op == "mul":
            self._accumulate(node.inputs[0], self._node("mul", [adj, fwd_in[1]]))
            self._accumulate(node.inputs[1], self._node("mul", [adj, fwd_in[0]]))
        elif op == "div":
            self._accumulate(
                node.inputs[0], self._node("div", [adj, fwd_in[1]])
            )
            ratio = self._node("div", [fwd_out, fwd_in[1]])
            self._accumulate(
                node.inputs[1],
                self._node("neg", [self._node("mul", [adj, ratio])]),
            )
        elif op == "neg":
            self._accumulate(node.inputs[0], self._node("neg", [adj]))
        elif op == "identity":
            self._accumulate(node.inputs[0], adj)
        elif op == "sigmoid":
            one_minus = self._node("sub", [self._const(1.0), fwd_out])
            local = self._node("mul", [fwd_out, one_minus])
            self._accumulate(node.inputs[0], self._node("mul", [adj, local]))
        elif op == "exp":
            self._accumulate(node.inputs[0], self._node("mul", [adj, fwd_out]))
        elif op == "log":
            self._accumulate(node.inputs[0], self._node("div", [adj, fwd_in[0]]))
        elif op == "sqrt":
            half = self._node("div", [self._const(0.5), fwd_out])
            self._accumulate(node.inputs[0], self._node("mul", [adj, half]))
        elif op == "gaussian":
            # d/dx exp(-x^2) = -2x exp(-x^2)
            two_x = self._node("mul", [self._const(-2.0), fwd_in[0]])
            local = self._node("mul", [two_x, fwd_out])
            self._accumulate(node.inputs[0], self._node("mul", [adj, local]))
        elif op == "abs":
            sign = self._node("sign", [fwd_in[0]])
            self._accumulate(node.inputs[0], self._node("mul", [adj, sign]))
        elif op == "select":
            zero = self._const(0.0)
            self._accumulate(
                node.inputs[1],
                self._node("select", [fwd_in[0], adj, zero]),
            )
            self._accumulate(
                node.inputs[2],
                self._node("select", [fwd_in[0], zero, adj]),
            )
        elif op in ("min", "max"):
            picked_first = (
                self._node("le", fwd_in)
                if op == "min"
                else self._node("ge", fwd_in)
            )
            zero = self._const(0.0)
            self._accumulate(
                node.inputs[0],
                self._node("select", [picked_first, adj, zero]),
            )
            self._accumulate(
                node.inputs[1],
                self._node("select", [picked_first, zero, adj]),
            )
        elif op in ("gt", "lt", "ge", "le", "eq", "ne", "sign"):
            pass  # piecewise-constant: zero gradient
        elif op == "reduce_sum":
            # Broadcast the adjoint back along the reduced axes.
            in_axes = self._src.values[node.inputs[0]].axes
            widened = self._out.add_node(
                "identity", [adj], "%bcast", in_axes
            )
            self._accumulate(node.inputs[0], widened)
        else:
            raise DifferentiationError(
                f"no differentiation rule for op {op!r}"
            )

    # -- gradient emission ---------------------------------------------------
    def _emit_gradients(self):
        for value in self._src.inputs_of_category(ir.MODEL):
            adj = self._adj.get(value.vid)
            if adj is None:
                adj = self._out.add_node(
                    "identity",
                    [self._const(0.0)],
                    f"g_{value.name}",
                    value.axes,
                    is_gradient=True,
                )
            else:
                adj = self._out.add_node(
                    "identity", [adj], f"g_{value.name}", value.axes,
                    is_gradient=True,
                )
            self._out.outputs[f"g_{value.name}"] = adj.vid


def _with_phantom_gradient(program: ast.Program) -> ast.Program:
    """Satisfy the 'has a gradient formulation' semantic rule: the loss
    program is its own (gradient-free) formulation."""
    return program


def _find_value(dfg: ir.Dfg, name: str) -> int:
    candidates = [v.vid for v in dfg.values.values() if v.name == name]
    if not candidates:
        raise DifferentiationError(f"no value named {name!r} in the graph")
    return max(candidates)  # last assignment wins
