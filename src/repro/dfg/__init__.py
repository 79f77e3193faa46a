"""CoSMIC compilation layer, part 1: the Translator and the DFG IR.

``translate`` lowers a parsed DSL program to a named-axis dataflow graph;
``Interpreter`` executes graphs functionally with NumPy; ``scalarize``
unrolls small graphs to the scalar form consumed by Algorithm 1 and the
cycle simulator.
"""

from .differentiate import (
    DifferentiationError,
    derive_gradients,
    differentiate,
)
from .interpreter import Interpreter, InterpreterError
from .ir import CATEGORIES, CONST, DATA, INTERIM, MODEL, Dfg, Node, Value
from .ops import OpInfo, all_ops, is_known_op, op_info
from .optimize import OptimizationReport, optimize
from .scalarize import ExpansionTooLarge, ScalarExpansion, scalarize
from .translate import (
    AggregatorSpec,
    Translation,
    TranslationError,
    translate,
)

__all__ = [
    "AggregatorSpec",
    "CATEGORIES",
    "CONST",
    "DATA",
    "Dfg",
    "DifferentiationError",
    "derive_gradients",
    "differentiate",
    "ExpansionTooLarge",
    "INTERIM",
    "Interpreter",
    "InterpreterError",
    "MODEL",
    "Node",
    "OpInfo",
    "OptimizationReport",
    "optimize",
    "ScalarExpansion",
    "Translation",
    "TranslationError",
    "Value",
    "all_ops",
    "is_known_op",
    "op_info",
    "scalarize",
    "translate",
]
