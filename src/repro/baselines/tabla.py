"""TABLA baseline: the prior single-node template generator (Figure 17).

TABLA differs from CoSMIC's architecture layer in exactly the two ways
Section 7.2 identifies, and both are modelled structurally rather than as
fudge factors:

* **single-threaded**: one instance of the learning algorithm owns every
  PE, so throughput is bounded by the DFG's own fine-grained parallelism;
* **flat shared bus + ops-first mapping**: reduction partials serialise
  over one bus (cost linear in PE count, vs CoSMIC's logarithmic tree),
  and mapping operations before data leaves operand reads crossing PEs.

Running TABLA's generator on the same UltraScale+ budget therefore uses
the same PE count but markedly lower throughput on large chips — the
3.9x average gap of Figure 17.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..dfg import ir
from ..hw.spec import ChipSpec, XILINX_VU9P
from ..planner.estimator import FLAT, CostParams
from ..planner.plan import AcceleratorPlan, DesignPoint, Planner

#: The cost-model knobs that *are* TABLA: flat shared bus, operations-
#: first mapping, no prefetch buffer (streaming serialises with compute),
#: no shifter (padding/marshaling waste on every burst).
TABLA_PARAMS = CostParams(
    interconnect=FLAT,
    mapping="ops_first",
    overlap_stream=False,
    stream_efficiency=0.7,
)


@dataclass
class TablaModel:
    """TABLA-generated accelerator on a given chip."""

    chip: ChipSpec = field(default_factory=lambda: XILINX_VU9P)

    def plan(
        self,
        dfg: ir.Dfg,
        minibatch: int = 10_000,
        density: Optional[Mapping[str, float]] = None,
        pes: Optional[int] = None,
    ) -> AcceleratorPlan:
        """Best single-threaded plan on the chip.

        TABLA has no multi-threading, so its design space is only the row
        count of the one thread; we sweep it ("we modify the templates for
        UltraScale+ and perform design space exploration to present the
        best results with TABLA", Section 7.2). Passing ``pes`` pins the
        allocation instead.
        """
        columns = self.chip.columns
        planner = Planner(self.chip, TABLA_PARAMS)
        if pes is not None:
            rows = max(1, pes // columns)
            point = DesignPoint(threads=1, rows_per_thread=rows, columns=columns)
            return planner.evaluate(dfg, point, minibatch, density)
        rows = 1
        options = []
        while rows < self.chip.row_max:
            options.append(rows)
            rows *= 2
        options.append(self.chip.row_max)
        points = [
            DesignPoint(threads=1, rows_per_thread=rows, columns=columns)
            for rows in options
        ]
        # Each candidate is timed once; the first of equally fast wins.
        timed = [
            (plan.seconds_for(minibatch), plan)
            for plan in planner.evaluate_points(
                dfg, points, minibatch, density
            )
        ]
        return functools.reduce(
            lambda best, cand: cand if cand[0] < best[0] else best, timed
        )[1]

    def samples_per_second(
        self,
        dfg: ir.Dfg,
        minibatch: int = 10_000,
        density: Optional[Mapping[str, float]] = None,
        pes: Optional[int] = None,
    ) -> float:
        return self.plan(dfg, minibatch, density, pes).samples_per_second


def cosmic_vs_tabla_speedup(
    dfg: ir.Dfg,
    chip: ChipSpec = XILINX_VU9P,
    minibatch: int = 10_000,
    density: Optional[Mapping[str, float]] = None,
) -> float:
    """Throughput ratio with the same FPGA compute resources (Figure 17).

    Both generators target the whole UltraScale+ fabric: CoSMIC splits it
    into worker threads, TABLA's single thread spans it — "while both
    CoSMIC and TABLA use the same number of FPGA compute resources, the
    gap in performance shows that CoSMIC uses [them] more efficiently".
    """
    cosmic = Planner(chip).plan(dfg, minibatch, density)
    tabla = TablaModel(chip).plan(dfg, minibatch, density)
    return cosmic.samples_per_second / tabla.samples_per_second
