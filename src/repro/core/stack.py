"""`CosmicStack`: the whole stack behind one object (Figure 3).

A stack instance owns one learning algorithm's journey through every
layer: DSL source -> Translator -> Planner -> Compiler -> Constructor,
plus the functional trainer. The scale-out system model lives in
:mod:`repro.core.system`.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..circuit.constructor import RtlDesign, construct
from ..compiler.program import CompiledProgram, compile_thread
from ..dfg.translate import Translation, translate
from ..dsl.parser import parse
from ..hw.spec import ChipSpec, XILINX_VU9P
from ..ml.benchmarks import Benchmark
from ..planner.estimator import CostParams
from ..planner.plan import AcceleratorPlan, Planner
from ..runtime.trainer import DistributedTrainer


class CosmicStack:
    """Compile and plan one DSL program through the full CoSMIC stack."""

    def __init__(
        self,
        source: str,
        bindings: Optional[Mapping[str, int]] = None,
        density: Optional[Mapping[str, float]] = None,
        functional_bindings: Optional[Mapping[str, int]] = None,
    ):
        """
        Args:
            source: the DSL program text.
            bindings: paper-scale dimension bindings for planning/timing.
            density: sparse-input annotations for the estimator.
            functional_bindings: reduced dims used when actually training
                (defaults to ``bindings``).
        """
        self.source = source
        self.density = dict(density or {})
        self._translation = translate(parse(source), bindings)
        if functional_bindings and functional_bindings != bindings:
            self._functional = translate(parse(source), functional_bindings)
        else:
            self._functional = self._translation

    @classmethod
    def from_benchmark(cls, bench: Benchmark) -> "CosmicStack":
        """Build the stack for one Table 1 benchmark, on the benchmark's
        own memoised translations (so its plans are shared too)."""
        stack = cls.__new__(cls)
        stack.source = bench.source()
        stack.density = dict(bench.density)
        stack._translation = bench.translate()
        stack._functional = bench.translate(scaled=True)
        return stack

    # -- layers ---------------------------------------------------------
    @property
    def translation(self) -> Translation:
        """Paper-scale translation (Programming + Translator layers)."""
        return self._translation

    @property
    def functional_translation(self) -> Translation:
        """Reduced-scale translation used for actual training."""
        return self._functional

    def plan(
        self,
        chip: ChipSpec = XILINX_VU9P,
        minibatch: Optional[int] = None,
        params: CostParams = CostParams(),
    ) -> AcceleratorPlan:
        """Architecture layer: Planner DSE for ``chip``.

        :meth:`Planner.plan` memoises on the paper-scale graph, so a
        repeat (chip, minibatch, params) here returns the identical plan.
        """
        minibatch = minibatch or self._translation.minibatch
        return Planner(chip, params).plan(
            self._translation.dfg, minibatch, self.density
        )

    def compile(self, rows: int, columns: int) -> CompiledProgram:
        """Compilation layer on the *functional-scale* graph.

        Runs the fold/CSE/DCE pipeline first (semantics-preserving), then
        scalar-expands, maps, and schedules. Full scalar compilation of
        paper-scale graphs is intentionally unsupported (millions of
        scalar ops); the macro-level estimator covers those, exactly as
        in the paper's toolchain.
        """
        from ..dfg.optimize import optimize

        dfg, _ = optimize(self._functional.dfg)
        return compile_thread(dfg, rows=rows, columns=columns)

    def rtl(
        self, rows: int = 2, columns: int = 4, target: str = "fpga"
    ) -> RtlDesign:
        """Circuit layer: Constructor output for one worker thread."""
        return construct(self.compile(rows, columns), target=target)

    def trainer(
        self,
        nodes: int = 1,
        threads_per_node: int = 1,
        cluster=None,
        seed: int = 0,
    ) -> DistributedTrainer:
        """System layer: a functional distributed trainer."""
        return DistributedTrainer(
            self._functional,
            nodes=nodes,
            threads_per_node=threads_per_node,
            cluster=cluster,
            seed=seed,
        )
