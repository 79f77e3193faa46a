"""The Translator: DSL AST -> dataflow graph (Figure 4(b)).

The translation is axis-aware: subscripted references bind array dimensions
to iterator axes, reductions consume an axis, and binary operations align
operands by axis name. Each array variable must be subscripted with the
same iterators everywhere it appears (true of all TABLA-lineage programs);
violations raise :class:`TranslationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..dsl import ast
from ..dsl.errors import DslError
from ..dsl.semantic import SymbolTable, analyze, iterator_extent, resolve_dims
from . import ir
from .ops import REDUCE_OPS


class TranslationError(DslError):
    """The program is semantically valid but not translatable."""


@dataclass
class AggregatorSpec:
    """How partial gradients are combined across threads/nodes (Eq. 3b).

    ``kind`` is ``"mean"`` (parallelized SGD averaging) or ``"sum"``
    (batched gradient descent summation). ``pairs`` maps each aggregated
    source variable (usually a ``gradient``) to the model variable it
    updates.
    """

    kind: str = "mean"
    pairs: Tuple[Tuple[str, str], ...] = ()  # (target_model, source_gradient)

    def describe(self) -> str:
        ops = ", ".join(f"{t} <- {self.kind}({s})" for t, s in self.pairs)
        return ops or f"{self.kind} over all gradients"


@dataclass
class Translation:
    """Result of translating one DSL program."""

    dfg: ir.Dfg
    table: SymbolTable
    bindings: Dict[str, int]
    aggregator: AggregatorSpec
    program: ast.Program

    @property
    def learning_rate(self) -> float:
        return float(self.program.params.get("mu", 0.01))

    @property
    def minibatch(self) -> int:
        return self.program.minibatch


def translate(
    program: ast.Program, bindings: Optional[Mapping[str, int]] = None
) -> Translation:
    """Translate a parsed DSL program into a :class:`repro.dfg.ir.Dfg`.

    Args:
        program: output of :func:`repro.dsl.parser.parse`.
        bindings: concrete sizes for symbolic dimensions (e.g. ``{"n": 784}``).
    """
    bindings = dict(bindings or {})
    table = analyze(program)
    builder = _Builder(program, table, bindings)
    dfg = builder.build()
    aggregator = _extract_aggregator(program, table)
    return Translation(dfg, table, bindings, aggregator, program)


class _Builder:
    def __init__(self, program: ast.Program, table: SymbolTable, bindings):
        self._program = program
        self._table = table
        self._bindings = bindings
        extents = {}
        for symbol in table.of_kind("iterator"):
            try:
                lo, hi = iterator_extent(symbol, bindings)
            except DslError:
                continue  # aggregator-only iterators (e.g. over "nodes")
            extents[symbol.name] = hi - lo
        self._dfg = ir.Dfg(extents)
        self._env: Dict[str, ir.Value] = {}
        self._axes_of: Dict[str, Tuple[str, ...]] = {}
        self._temp = 0

    def build(self) -> ir.Dfg:
        for stmt in self._program.statements:
            self._assignment(stmt)
        self._dfg.validate()
        return self._dfg

    # -- statements --------------------------------------------------------
    def _assignment(self, stmt: ast.Assignment):
        value = self._expr(stmt.expr)
        target_axes = tuple(stmt.indices)
        self._check_axes_declared(target_axes, stmt.line)
        if not set(value.axes) <= set(target_axes):
            loose = set(value.axes) - set(target_axes)
            raise TranslationError(
                f"assignment to {stmt.target!r} leaves iterator(s) "
                f"{sorted(loose)} unbound; subscript the target or reduce",
                stmt.line,
            )
        symbol = self._table.get(stmt.target)
        is_gradient = symbol.kind == "gradient"
        if set(value.axes) != set(target_axes) or value.category == ir.CONST:
            # Broadcast (or materialise a constant) to the target's axes.
            value = self._dfg.add_node(
                "identity", [value], stmt.target, target_axes,
                is_gradient=is_gradient,
            )
        elif value.axes != target_axes or value.producer is None:
            # Same axes, possibly different order; tag with the target name.
            value = self._dfg.add_node(
                "identity", [value], stmt.target, target_axes,
                is_gradient=is_gradient,
            )
        else:
            value.name = stmt.target
            value.is_gradient = is_gradient
        self._env[stmt.target] = value
        self._axes_of[stmt.target] = target_axes
        if is_gradient or symbol.kind == "model":
            self._dfg.outputs[stmt.target] = value.vid

    def _check_axes_declared(self, axes: Tuple[str, ...], line: int):
        for axis in axes:
            if axis not in self._dfg.extents:
                raise TranslationError(
                    f"iterator {axis!r} has an unbound extent", line
                )

    # -- expressions ---------------------------------------------------------
    def _expr(self, expr: ast.Expr) -> ir.Value:
        if isinstance(expr, ast.Number):
            return self._dfg.add_value(
                self._fresh("const"), ir.CONST, (), const_value=expr.value
            )
        if isinstance(expr, ast.Name):
            return self._name(expr)
        if isinstance(expr, ast.Subscript):
            return self._subscript(expr)
        if isinstance(expr, ast.UnaryOp):
            operand = self._expr(expr.operand)
            return self._dfg.add_node(
                expr.op, [operand], self._fresh(expr.op), operand.axes
            )
        if isinstance(expr, ast.BinaryOp):
            left = self._expr(expr.left)
            right = self._expr(expr.right)
            axes = _union_axes(left.axes, right.axes)
            return self._dfg.add_node(
                expr.op, [left, right], self._fresh(expr.op), axes
            )
        if isinstance(expr, ast.Ternary):
            cond = self._expr(expr.cond)
            if_true = self._expr(expr.if_true)
            if_false = self._expr(expr.if_false)
            axes = _union_axes(
                cond.axes, _union_axes(if_true.axes, if_false.axes)
            )
            return self._dfg.add_node(
                "select", [cond, if_true, if_false], self._fresh("select"), axes
            )
        if isinstance(expr, ast.Reduce):
            return self._reduce(expr)
        if isinstance(expr, ast.Call):
            return self._call(expr)
        raise TranslationError(f"cannot translate expression {expr!r}")

    def _name(self, expr: ast.Name) -> ir.Value:
        symbol = self._table.get(expr.ident)
        if symbol.kind == "param":
            return self._dfg.add_value(
                expr.ident, ir.CONST, (),
                const_value=self._program.params[expr.ident],
            )
        if expr.ident in self._env:
            return self._env[expr.ident]
        value = self._dfg.add_value(
            expr.ident, _category_for(symbol.kind), ()
        )
        self._env[expr.ident] = value
        self._axes_of[expr.ident] = ()
        return value

    def _subscript(self, expr: ast.Subscript) -> ir.Value:
        symbol = self._table.get(expr.ident)
        axes = tuple(expr.indices)
        self._check_axes_declared(axes, expr.line)
        if expr.ident in self._env:
            known = self._axes_of[expr.ident]
            if known != axes:
                raise TranslationError(
                    f"{expr.ident!r} subscripted as {axes} but previously "
                    f"as {known}; use consistent iterators",
                    expr.line,
                )
            return self._env[expr.ident]
        if symbol.kind == "interim":
            raise TranslationError(
                f"interim {expr.ident!r} used before assignment", expr.line
            )
        dims = resolve_dims(symbol.dims, self._bindings)
        if len(dims) != len(axes):
            raise TranslationError(
                f"{expr.ident!r} has {len(dims)} dims, subscripted with "
                f"{len(axes)}",
                expr.line,
            )
        for axis, dim in zip(axes, dims):
            if self._dfg.extents[axis] != dim:
                raise TranslationError(
                    f"iterator {axis!r} (extent {self._dfg.extents[axis]}) "
                    f"does not span dimension of size {dim} of {expr.ident!r}",
                    expr.line,
                )
        value = self._dfg.add_value(expr.ident, _category_for(symbol.kind), axes)
        self._env[expr.ident] = value
        self._axes_of[expr.ident] = axes
        return value

    def _reduce(self, expr: ast.Reduce) -> ir.Value:
        body = self._expr(expr.body)
        axis = expr.iterator
        if axis not in body.axes:
            raise TranslationError(
                f"reduction over {axis!r} but body does not vary with it",
                expr.line,
            )
        if expr.kind == "norm":
            body = self._dfg.add_node(
                "mul", [body, body], self._fresh("sq"), body.axes
            )
        out_axes = tuple(a for a in body.axes if a != axis)
        value = self._dfg.add_node(
            REDUCE_OPS[expr.kind], [body], self._fresh(expr.kind), out_axes,
            reduce_axes=(axis,),
        )
        if expr.kind == "norm":
            value = self._dfg.add_node(
                "sqrt", [value], self._fresh("norm"), value.axes
            )
        return value

    def _call(self, expr: ast.Call) -> ir.Value:
        args = [self._expr(a) for a in expr.args]
        if expr.func in ("min", "max") and len(args) == 2:
            axes = _union_axes(args[0].axes, args[1].axes)
            return self._dfg.add_node(
                expr.func, args, self._fresh(expr.func), axes
            )
        if len(args) != 1:
            raise TranslationError(
                f"{expr.func} expects 1 argument, got {len(args)}", expr.line
            )
        return self._dfg.add_node(
            expr.func, args, self._fresh(expr.func), args[0].axes
        )

    def _fresh(self, hint: str) -> str:
        self._temp += 1
        return f"%{hint}{self._temp}"


def _category_for(kind: str) -> str:
    if kind in ("model_input", "model_output"):
        return ir.DATA
    if kind == "model":
        return ir.MODEL
    return ir.INTERIM


def _union_axes(a: Tuple[str, ...], b: Tuple[str, ...]) -> Tuple[str, ...]:
    merged: List[str] = list(a)
    for axis in b:
        if axis not in merged:
            merged.append(axis)
    return tuple(merged)


def _extract_aggregator(
    program: ast.Program, table: SymbolTable
) -> AggregatorSpec:
    """Classify the aggregator section as mean or sum aggregation.

    Recognised pattern per statement::

        target[idx...] = sum[j](source[j, idx...]) ;          # sum
        target[idx...] = sum[j](source[j, idx...]) / nodes ;  # mean

    With no aggregator section, defaults to averaging every gradient into
    the like-named or sole model variable (parallelized SGD, Eq. 3b).
    """
    gradients = [s.name for s in table.of_kind("gradient")]
    models = [s.name for s in table.of_kind("model")]
    if not program.aggregator:
        pairs = tuple((_matching_model(g, models), g) for g in gradients)
        return AggregatorSpec("mean", pairs)

    kind = None
    pairs: List[Tuple[str, str]] = []
    for stmt in program.aggregator:
        expr = stmt.expr
        stmt_kind = "sum"
        if isinstance(expr, ast.BinaryOp) and expr.op == "div":
            expr = expr.left
            stmt_kind = "mean"
        if not (isinstance(expr, ast.Reduce) and expr.kind == "sum"):
            raise TranslationError(
                "aggregator must be a sum[...] reduction, optionally "
                "divided by the node count",
                stmt.line,
            )
        body = expr.body
        if not isinstance(body, ast.Subscript):
            raise TranslationError(
                "aggregator body must reference the partial results directly",
                stmt.line,
            )
        if body.indices[0] != expr.iterator:
            raise TranslationError(
                "first subscript of the aggregated variable must be the "
                "node iterator",
                stmt.line,
            )
        if kind is not None and stmt_kind != kind:
            raise TranslationError(
                "mixed sum/mean aggregation is not supported", stmt.line
            )
        kind = stmt_kind
        pairs.append((stmt.target, body.ident))
    return AggregatorSpec(kind or "mean", tuple(pairs))


def _matching_model(gradient: str, models: List[str]) -> str:
    """Pair a gradient with its model variable by naming convention.

    Accepts ``g_w``/``gw``/``grad_w`` for model ``w`` and suffix matches
    such as gradient ``g1`` for model ``w1``.
    """
    for model in models:
        if gradient in (f"g_{model}", f"g{model}", f"grad_{model}"):
            return model
    tail = gradient[1:].lstrip("_") if gradient.startswith("g") else None
    if tail:
        for model in models:
            if model[1:].lstrip("_") == tail:
                return model
    if len(models) == 1:
        return models[0]
    raise TranslationError(
        f"cannot infer which model variable gradient {gradient!r} updates; "
        "write an aggregator section"
    )
