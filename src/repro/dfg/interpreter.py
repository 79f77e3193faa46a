"""Functional (NumPy) execution of CoSMIC dataflow graphs.

The accelerator's arithmetic is deterministic and order-independent at the
macro-op level, so executing the DFG with NumPy yields bit-comparable
results to the cycle simulator while being fast enough to actually *train*
the benchmarks. The runtime layer uses this interpreter as the compute
kernel of every simulated accelerator thread.

A leading batch axis lets one call evaluate the DFG for a whole data
sub-partition at once, mirroring how a worker thread iterates its
sub-partition ``D_ij`` (Figure 1).
"""

from __future__ import annotations

import functools
import math
import string
from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import ir
from .ops import op_info


class InterpreterError(ValueError):
    """Bad feeds, or a graph whose operands cannot be aligned."""


class _Step:
    """One precompiled macro-op: ``fn`` applied to fixed views of its
    operands. Reduce axes and einsum subscripts are bound into ``fn``."""

    __slots__ = ("output", "fn", "operands", "broadcast")

    def __init__(self, output, fn, operands, broadcast):
        self.output = output
        self.fn = fn
        #: ((vid, perm, index), ...); ``None`` where no transpose or
        #: indexing is needed.
        self.operands = operands
        #: the declared output shape (without the batch dim) when the
        #: result must be broadcast up to it, else None.
        self.broadcast = broadcast


def _batched(value: ir.Value, batch: bool) -> bool:
    """Whether ``value`` carries the leading batch dim. In batch mode a
    value's rank is static: DATA inputs and every produced value have
    it; MODEL and CONST inputs do not."""
    return batch and (value.category == ir.DATA or value.producer is not None)


def _batch_sum(per_sample: np.ndarray) -> np.ndarray:
    """Sum of :meth:`Interpreter.gradients`' C-ordered result over rows."""
    return np.add.reduce(np.array(per_sample, dtype=np.float64), axis=0)


def sample_count(feeds: Mapping[str, np.ndarray]) -> int:
    """The length of the leading sample axis that every feed shares."""
    for name, value in feeds.items():
        if np.ndim(value) == 0:
            raise ValueError(
                f"feed {name!r} is 0-d; every feed needs a leading sample axis"
            )
    counts = {np.shape(v)[0] for v in feeds.values()}
    if len(counts) != 1:
        raise ValueError("all feeds must share one leading sample axis")
    return counts.pop()


class Interpreter:
    """Evaluates a :class:`repro.dfg.ir.Dfg` on NumPy arrays.

    Construction precompiles an execution plan per batch mode —
    topological order, op dispatch, and each operand's view — plus the
    graph's inputs and output lists, so the per-call cost of :meth:`run`
    is the feed checks and the NumPy arithmetic itself. The per-node
    reference path it is cross-validated against bit-for-bit lives in
    the tests.

    A ``mul`` whose product only feeds a ``reduce_sum`` becomes one
    ``np.einsum`` step when that keeps the float order (see
    :meth:`_fusable`): the product is never materialised.

    The batch plan runs a body, then a gradient tail (:meth:`_split_tail`):
    :meth:`shard_gradient_means` runs the body once, the tail per shard.
    """

    def __init__(self, dfg: ir.Dfg):
        dfg.validate()
        self._dfg = dfg
        topo = dfg.topo_order()
        uses = Counter(vid for node in topo for vid in node.inputs)
        self._plans = {
            batch: self._compile(topo, batch, uses) for batch in (False, True)
        }
        #: (value, declared shape) of every fed input, in vid order.
        self._inputs = [
            (value, dfg.shape(value))
            for value in dfg.values.values()
            if value.producer is None and value.category != ir.CONST
        ]
        self._consts = {
            value.vid: np.float64(value.const_value)
            for value in dfg.values.values()
            if value.producer is None and value.category == ir.CONST
        }
        gradient_names = {v.name for v in dfg.gradient_outputs()}
        self._outputs = tuple(dfg.outputs.items())
        self._gradient_outputs = tuple(
            (name, vid)
            for name, vid in self._outputs
            if name in gradient_names
        )
        self._split_tail(topo, uses)

    @property
    def dfg(self) -> ir.Dfg:
        return self._dfg

    def run(
        self,
        feeds: Mapping[str, np.ndarray],
        batch: bool = False,
    ) -> Dict[str, np.ndarray]:
        """Evaluate the graph.

        Args:
            feeds: input name -> array. Every DATA and MODEL input must be
                fed. Array dims must match the value's axes — with one
                extra leading batch dimension everywhere on DATA inputs
                when ``batch=True``.
            batch: evaluate for a whole batch of samples at once. MODEL
                inputs are shared (no batch dim); all DATA inputs must
                carry the same leading batch size.

        Returns:
            name -> array for every named output (gradients and assigned
            model variables). Batch mode keeps the leading batch dim.
        """
        return self._collect(self._evaluate(feeds, batch), self._outputs)

    def gradients(
        self, feeds: Mapping[str, np.ndarray], batch: bool = False
    ) -> Dict[str, np.ndarray]:
        """Like :meth:`run` but restricted to gradient outputs."""
        return self._collect(
            self._evaluate(feeds, batch), self._gradient_outputs
        )

    def shard_gradient_means(
        self, feeds: Mapping[str, np.ndarray], bounds: Sequence[int]
    ) -> List[Dict[str, np.ndarray]]:
        """Per shard, gradient name -> mean over the shard's rows
        ``bounds[s]:bounds[s + 1]`` of the batch ``feeds``. Equals
        ``np.add.reduce(gradients(shard_feeds, batch=True)[name],
        axis=0) / n`` bit for bit, NaN signs aside
        (``docs/performance.md``)."""
        env: Dict[int, np.ndarray] = {}
        rows = self._bind_inputs(feeds, env, True)
        if bounds[0] != 0 or bounds[-1] != rows or min(np.diff(bounds)) < 1:
            raise InterpreterError(f"shard bounds must rise from 0 to {rows}")
        self._execute(self._plans[True][: self._tail_start], env, (rows,))
        means = []
        for lo, hi in zip(bounds, bounds[1:]):
            n = hi - lo
            shard = {
                vid: env[vid][lo:hi] if batched else env[vid]
                for vid, batched in self._tail_inputs
            }
            self._execute(self._shard_tail, shard, (n,))
            means.append({k: shard[v] / n for k, v in self._gradient_outputs})
        return means

    def _evaluate(
        self, feeds: Mapping[str, np.ndarray], batch: bool
    ) -> Dict[int, np.ndarray]:
        env: Dict[int, np.ndarray] = {}
        batch_size = self._bind_inputs(feeds, env, batch)
        self._execute(self._plans[batch], env, (batch_size,) if batch else ())
        return env

    @staticmethod
    def _execute(steps: Sequence[_Step], env: dict, prefix: tuple) -> None:
        for step in steps:
            views = []
            for vid, perm, index in step.operands:
                arr = env[vid]
                if perm is not None:
                    arr = arr.transpose(perm)
                if index is not None:
                    arr = arr[index]
                views.append(arr)
            result = step.fn(*views)
            if step.broadcast is not None:
                result = np.broadcast_to(result, prefix + step.broadcast)
            env[step.output] = result

    @staticmethod
    def _collect(
        env: Dict[int, np.ndarray], outputs: Tuple[Tuple[str, int], ...]
    ) -> Dict[str, np.ndarray]:
        # Materialise broadcast views; np.array keeps 0-d scalars 0-d
        # (np.ascontiguousarray would promote them to shape (1,)).
        return {
            name: np.array(env[vid], dtype=np.float64) for name, vid in outputs
        }

    # -- compilation -------------------------------------------------------
    def _compile(
        self, topo: List[ir.Node], batch: bool, uses: Counter
    ) -> List[_Step]:
        """One step per node, except that a fusable ``mul`` is folded
        into the ``reduce_sum`` consuming it."""
        steps: Dict[int, _Step] = {}
        for node in topo:
            mul = self._fusable(node, steps, batch, uses)
            if mul is None:
                steps[node.output] = self._compile_step(node, batch)
            else:
                del steps[mul.output]
                out = self._dfg.values[node.output]
                steps[node.output] = self._einsum_step(mul, out, batch, batch)
        return list(steps.values())

    def _compile_step(self, node: ir.Node, batch: bool) -> _Step:
        """Resolve op dispatch and operand views for one node.

        Operands without the batch dim are left to broadcasting, so only
        batched operands count the leading dim in axis positions.
        """
        info = op_info(node.op)
        out_value = self._dfg.values[node.output]
        in_values = [self._dfg.values[vid] for vid in node.inputs]
        if info.reduce:
            (in_value,) = in_values
            lead = 1 if _batched(in_value, batch) else 0
            positions = tuple(
                lead + in_value.axes.index(a) for a in node.reduce_axes
            )
            fn = functools.partial(info.numpy_fn, axis=positions)
            operands = ((in_value.vid, None, None),)
        else:
            fn = info.numpy_fn
            operands = tuple(
                self._view(value, out_value.axes, batch) for value in in_values
            )
        # A result missing an output axis, or the batch dim, that no
        # operand carries is broadcast up to the declared shape.
        present = {a for value in in_values for a in value.axes}
        batched = any(_batched(value, batch) for value in in_values)
        if set(out_value.axes) <= present and batched == batch:
            return _Step(node.output, fn, operands, None)
        return _Step(node.output, fn, operands, self._dfg.shape(out_value))

    def _view(
        self, value: ir.Value, out_axes: Tuple[str, ...], batch: bool
    ) -> Tuple[int, Optional[tuple], Optional[tuple]]:
        """``(vid, perm, index)`` that lines ``value`` up with
        ``out_axes`` for broadcasting: transpose its axes into output
        order, then insert a new axis for each output axis it lacks."""
        in_axes = value.axes
        missing = [a for a in in_axes if a not in out_axes]
        if missing:
            raise InterpreterError(
                f"operand {value.name!r} has axes {missing} that its "
                f"consumer's output {out_axes} lacks"
            )
        lead = 1 if _batched(value, batch) else 0
        perm = tuple(range(lead)) + tuple(
            lead + in_axes.index(a) for a in out_axes if a in in_axes
        )
        index = [slice(None)] * lead + [
            slice(None) if a in in_axes else None for a in out_axes
        ]
        if not lead:
            # Broadcasting supplies missing leading axes.
            while index and index[0] is None:
                index.pop(0)
        return (
            value.vid,
            None if perm == tuple(range(len(perm))) else perm,
            None if None not in index else tuple(index),
        )

    def _fusable(
        self,
        node: ir.Node,
        steps: Dict[int, _Step],
        batch: bool,
        uses: Counter,
    ) -> Optional[ir.Node]:
        """The ``mul`` node to fold into ``node``, or None.

        NumPy's ``add.reduce`` over a non-innermost axis of a C-ordered
        array and ``einsum`` both start each output from +0.0 and add
        the products in axis order, one at a time, so the fused result
        is bit-identical. Over the innermost axis (or one followed only
        by extent-1 axes) NumPy sums pairwise and ``einsum`` does not;
        over an axis only one operand has, ``einsum`` sums that operand
        before multiplying. Those stay unfused, as do multi-axis
        reductions and products that are transposed, need a broadcast,
        are a named output, or have another consumer.
        """
        if node.op != "reduce_sum" or len(node.reduce_axes) != 1:
            return None
        product = self._dfg.values[node.inputs[0]]
        if product.producer is None:
            return None
        mul = self._dfg.nodes[product.producer]
        if (
            mul.op != "mul"
            or uses[product.vid] != 1
            or product.vid in self._dfg.outputs.values()
        ):
            return None
        step = steps[product.vid]
        if step.broadcast is not None or any(
            perm is not None for _, perm, _ in step.operands
        ):
            return None
        reduced = node.reduce_axes[0]
        operands = [self._dfg.values[vid] for vid in mul.inputs]
        if any(reduced not in value.axes for value in operands):
            return None
        trailing = product.axes[product.axes.index(reduced) + 1:]
        if math.prod(self._dfg.extents[a] for a in trailing) <= 1:
            return None
        return mul

    def _einsum_step(
        self, mul: ir.Node, out: ir.Value, batch: bool, out_batched: bool
    ) -> _Step:
        """``mul`` summed into ``out``'s axes as one ``np.einsum``: the
        batch axis too unless ``out_batched``."""
        product = self._dfg.values[mul.output]
        # None stands for the batch axis.
        letters = dict(zip((None,) + product.axes, string.ascii_letters))

        def term(value: ir.Value, batched: bool) -> str:
            lead = (None,) if batched else ()
            return "".join(letters[a] for a in lead + value.axes)

        values = [self._dfg.values[vid] for vid in mul.inputs]
        inputs = ",".join(term(v, _batched(v, batch)) for v in values)
        subscripts = f"{inputs}->{term(out, out_batched)}"
        return _Step(
            out.vid,
            functools.partial(np.einsum, subscripts),
            tuple((vid, None, None) for vid in mul.inputs),
            None,
        )

    def _split_tail(self, topo: List[ir.Node], uses: Counter) -> None:
        """Order the batch plan as body, then gradient tail: each
        unconsumed gradient, and back from it every unnamed single-use
        value with exactly its axes. Per shard, the tail ends in a sum
        over rows per gradient: ``einsum`` (:meth:`_contraction`) or
        ``add.reduce``."""
        dfg = self._dfg
        shared = {vid for vid, n in uses.items() if n > 1}
        shared.update(dfg.outputs.values())
        #: tail vid -> the axes of its gradient
        tail = {
            vid: set(dfg.values[vid].axes)
            for _, vid in self._gradient_outputs
            if not uses[vid]
        }
        for node in reversed(topo):
            axes = tail.get(node.output)
            for src in node.inputs if axes is not None else ():
                if src not in shared and set(dfg.values[src].axes) == axes:
                    tail[src] = axes
        plan = self._plans[True]
        plan.sort(key=lambda step: step.output in tail)  # stable
        self._tail_start = sum(step.output not in tail for step in plan)
        steps = {step.output: step for step in plan[self._tail_start:]}
        sums = []
        for _, vid in self._gradient_outputs:
            mul = self._contraction(vid, steps)
            if mul is None:
                sums.append(_Step(vid, _batch_sum, ((vid, None, None),), None))
                continue
            del steps[vid]
            steps.pop(mul.output, None)
            sums.append(self._einsum_step(mul, dfg.values[vid], True, False))
        self._shard_tail = (*steps.values(), *sums)
        read = {v for step in self._shard_tail for v, _, _ in step.operands}
        #: (vid, batched) of each body value the per-shard tail reads.
        self._tail_inputs = tuple(
            (vid, _batched(dfg.values[vid], True))
            for vid in sorted(read - steps.keys())
        )

    def _contraction(self, vid: int, steps: dict) -> Optional[ir.Node]:
        """The ``mul`` of gradient ``vid`` (or of its ``identity``) if
        ``einsum`` sums it over rows as ``add.reduce`` does: from +0.0,
        row by row. Not for one element (summed pairwise), a factor
        without rows (``einsum`` sums it first) or a broadcast."""
        dfg = self._dfg
        if vid not in steps or dfg.size(dfg.values[vid]) < 2:
            return None
        node = dfg.nodes[dfg.values[vid].producer]
        if node.op == "identity" and node.inputs[0] in steps:
            node = dfg.nodes[dfg.values[node.inputs[0]].producer]
        if (
            node.op != "mul"
            or steps[node.output].broadcast is not None
            or not all(_batched(dfg.values[v], True) for v in node.inputs)
        ):
            return None
        return node

    # -- internals ---------------------------------------------------------
    def _bind_inputs(
        self, feeds: Mapping[str, np.ndarray], env: Dict[int, np.ndarray],
        batch: bool,
    ) -> Optional[int]:
        env.update(self._consts)
        batch_size: Optional[int] = None
        for value, expect in self._inputs:
            if value.name not in feeds:
                raise InterpreterError(f"missing feed for input {value.name!r}")
            arr = np.asarray(feeds[value.name], dtype=np.float64)
            if batch and value.category == ir.DATA:
                if arr.ndim == 0 or arr.shape[1:] != expect:
                    raise InterpreterError(
                        f"feed {value.name!r} has shape {arr.shape}, expected "
                        f"(batch,) + {expect}"
                    )
                if batch_size is None:
                    batch_size = arr.shape[0]
                elif arr.shape[0] != batch_size:
                    raise InterpreterError(
                        "all DATA feeds must share one batch size"
                    )
            elif arr.shape != expect:
                raise InterpreterError(
                    f"feed {value.name!r} has shape {arr.shape}, expected {expect}"
                )
            env[value.vid] = arr
        if batch and batch_size is None:
            raise InterpreterError("batch mode requires at least one DATA feed")
        return batch_size
