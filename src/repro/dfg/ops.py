"""Operation registry for the CoSMIC dataflow graph.

Each DFG operation corresponds to a PE capability (Section 5.1): the ALU
executes linear operations on DSP slices, while sigmoid/gaussian/log/exp
and friends go through the non-linear look-up-table unit that the
Constructor only instantiates when the Compiler schedules one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one DFG operation."""

    name: str
    arity: int
    numpy_fn: Callable
    #: ALU cycles for one scalar application on a PE (pipelined issue rate).
    cycles: int = 1
    #: True if the op needs the PE's non-linear LUT unit.
    nonlinear: bool = False
    #: True for reduction ops (consume an axis).
    reduce: bool = False


def _select(cond, if_true, if_false):
    return np.where(cond != 0, if_true, if_false)


def _gaussian(x):
    return np.exp(-np.square(x))


def _sigmoid(x):
    # Clip to keep exp() finite in fixed-range LUT fashion.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


_REGISTRY: Dict[str, OpInfo] = {}


def _register(info: OpInfo):
    _REGISTRY[info.name] = info


# Element-wise binary ALU ops.
_register(OpInfo("add", 2, np.add))
_register(OpInfo("sub", 2, np.subtract))
_register(OpInfo("mul", 2, np.multiply))
_register(OpInfo("div", 2, np.divide, cycles=4, nonlinear=True))
_register(OpInfo("gt", 2, lambda a, b: np.asarray(a > b, dtype=np.float64)))
_register(OpInfo("lt", 2, lambda a, b: np.asarray(a < b, dtype=np.float64)))
_register(OpInfo("ge", 2, lambda a, b: np.asarray(a >= b, dtype=np.float64)))
_register(OpInfo("le", 2, lambda a, b: np.asarray(a <= b, dtype=np.float64)))
_register(OpInfo("eq", 2, lambda a, b: np.asarray(a == b, dtype=np.float64)))
_register(OpInfo("ne", 2, lambda a, b: np.asarray(a != b, dtype=np.float64)))
_register(OpInfo("min", 2, np.minimum))
_register(OpInfo("max", 2, np.maximum))

# Element-wise unary ops.
_register(OpInfo("neg", 1, np.negative))
_register(OpInfo("identity", 1, lambda a: a))
_register(OpInfo("abs", 1, np.abs))
_register(OpInfo("sign", 1, np.sign))
_register(OpInfo("sigmoid", 1, _sigmoid, cycles=2, nonlinear=True))
_register(OpInfo("gaussian", 1, _gaussian, cycles=2, nonlinear=True))
_register(OpInfo("log", 1, lambda a: np.log(np.maximum(a, 1e-30)), cycles=2, nonlinear=True))
_register(OpInfo("exp", 1, lambda a: np.exp(np.clip(a, -30.0, 30.0)), cycles=2, nonlinear=True))
_register(OpInfo("sqrt", 1, lambda a: np.sqrt(np.maximum(a, 0.0)), cycles=2, nonlinear=True))

# Three-input select implements the DSL ternary.
_register(OpInfo("select", 3, _select))

# Reductions over named axes (executed on PEs + tree-bus ALUs). The
# ufunc reducers are what np.sum/np.prod/np.min/np.max call, minus the
# Python wrapper.
_register(OpInfo("reduce_sum", 1, np.add.reduce, reduce=True))
_register(OpInfo("reduce_prod", 1, np.multiply.reduce, reduce=True))
_register(OpInfo("reduce_min", 1, np.minimum.reduce, reduce=True))
_register(OpInfo("reduce_max", 1, np.maximum.reduce, reduce=True))

#: Map from DSL reduce keyword to DFG op name. ``norm`` is sum-of-squares.
REDUCE_OPS = {"sum": "reduce_sum", "pi": "reduce_prod", "norm": "reduce_sum"}

#: Binary comparison ops (produce 0/1 masks consumed by select).
COMPARISON_OPS = frozenset({"gt", "lt", "ge", "le", "eq", "ne"})


def op_info(name: str) -> OpInfo:
    """Metadata for op ``name``; raises KeyError for unknown ops."""
    return _REGISTRY[name]


def is_known_op(name: str) -> bool:
    return name in _REGISTRY


def all_ops() -> Dict[str, OpInfo]:
    """A copy of the full registry (for documentation and tests)."""
    return dict(_REGISTRY)
