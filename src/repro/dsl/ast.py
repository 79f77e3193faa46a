"""Abstract syntax tree for the CoSMIC DSL.

The tree mirrors the three segments a programmer writes (Section 4.1):
data declarations, gradient formulation, and aggregator specification —
plus scalar meta-parameters such as the mini-batch size and learning rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

#: The five DSL data types of Section 4.1.
DATA_TYPES = ("model_input", "model_output", "model", "gradient", "iterator")

Dim = Union[int, str]  # a dimension is a literal or a symbolic size like "n"


@dataclass(frozen=True)
class Node:
    """Base class for AST nodes; carries the source line for diagnostics."""

    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Number(Node):
    value: float = 0.0


@dataclass(frozen=True)
class Name(Node):
    """A scalar reference or iterator name."""

    ident: str = ""


@dataclass(frozen=True)
class Subscript(Node):
    """An indexed reference such as ``w[i][j]`` or ``w[i, j]``."""

    ident: str = ""
    indices: Tuple[str, ...] = ()


@dataclass(frozen=True)
class UnaryOp(Node):
    op: str = ""  # "neg"
    operand: "Expr" = None


@dataclass(frozen=True)
class BinaryOp(Node):
    op: str = ""  # add sub mul div gt lt ge le eq ne
    left: "Expr" = None
    right: "Expr" = None


@dataclass(frozen=True)
class Ternary(Node):
    """``cond ? if_true : if_false`` — maps to the PE select operation."""

    cond: "Expr" = None
    if_true: "Expr" = None
    if_false: "Expr" = None


@dataclass(frozen=True)
class Reduce(Node):
    """A group operator: ``sum[i](body)``, ``pi[i](body)``, ``norm[i](body)``."""

    kind: str = "sum"  # sum | pi | norm
    iterator: str = ""
    body: "Expr" = None


@dataclass(frozen=True)
class Call(Node):
    """A built-in non-linear function call, e.g. ``sigmoid(u)``."""

    func: str = ""
    args: Tuple["Expr", ...] = ()


Expr = Union[Number, Name, Subscript, UnaryOp, BinaryOp, Ternary, Reduce, Call]


@dataclass(frozen=True)
class Declaration(Node):
    """``model w[n][m];`` — dims empty for scalars.

    For iterators, ``dims`` holds (lo, hi) of the half-open range.
    """

    data_type: str = ""
    ident: str = ""
    dims: Tuple[Dim, ...] = ()


@dataclass(frozen=True)
class Assignment(Node):
    """``target[indices] = expr;``"""

    target: str = ""
    indices: Tuple[str, ...] = ()
    expr: Expr = None


@dataclass(frozen=True)
class ParamDecl(Node):
    """A scalar meta-parameter, e.g. ``mu = 0.1;`` or ``minibatch = 10000;``"""

    ident: str = ""
    value: float = 0.0


@dataclass
class Program:
    """A parsed DSL program.

    Attributes:
        declarations: all data declarations in source order.
        statements: the gradient-formulation assignments.
        aggregator: assignments in the ``aggregator:`` section (how the
            runtime combines partial gradients across nodes/threads).
        params: scalar meta-parameters (learning rate, minibatch, ...).
        source: original text, kept for line-of-code accounting (Table 1).
    """

    declarations: List[Declaration] = field(default_factory=list)
    statements: List[Assignment] = field(default_factory=list)
    aggregator: List[Assignment] = field(default_factory=list)
    params: Dict[str, float] = field(default_factory=dict)
    source: str = ""

    def declaration(self, ident: str) -> Optional[Declaration]:
        """Return the declaration for ``ident`` or None."""
        for decl in self.declarations:
            if decl.ident == ident:
                return decl
        return None

    @property
    def minibatch(self) -> int:
        """Programmer-declared mini-batch size (Section 2.2), default 10000."""
        return int(self.params.get("minibatch", 10_000))

    @property
    def lines_of_code(self) -> int:
        """Non-blank, non-comment source lines — the Table 1 LoC metric."""
        count = 0
        for raw in self.source.splitlines():
            stripped = raw.strip()
            if stripped and not stripped.startswith(("#", "//")):
                count += 1
        return count


def walk(expr: Expr):
    """Yield ``expr`` and all sub-expressions, depth first."""
    yield expr
    if isinstance(expr, UnaryOp):
        yield from walk(expr.operand)
    elif isinstance(expr, BinaryOp):
        yield from walk(expr.left)
        yield from walk(expr.right)
    elif isinstance(expr, Ternary):
        yield from walk(expr.cond)
        yield from walk(expr.if_true)
        yield from walk(expr.if_false)
    elif isinstance(expr, Reduce):
        yield from walk(expr.body)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk(arg)
