"""Bit-identity of the Planner's design-space costs.

The digest below was recorded from the commit *before* the estimator was
split into a per-DFG cost profile and a per-design-point estimate, when
every design point re-walked the DFG. The split must not move a single
float: the ops-first shuffle term is the one non-integer addend, so any
reordering of the per-node sums shows up here. Regenerate the digest
only for a deliberate change to the cost model.
"""

import hashlib

from repro.baselines.tabla import TABLA_PARAMS, TablaModel
from repro.hw.spec import XILINX_VU9P
from repro.ml.benchmarks import BENCHMARKS
from repro.planner.estimator import CostParams
from repro.planner.plan import Planner

#: SHA-256 of the canonical text below, recorded at the parent commit.
PARENT_DIGEST = (
    "70abae4ec6c1172da2aca31d4d476ba3f9e22f92d7e82b5eae0ef0fda744a344"
)


def _estimate_repr(label, plan):
    est = plan.thread_estimate
    return repr(
        (
            label,
            est.work_cycles,
            est.comm_cycles,
            est.critical_path,
            est.per_node,
            plan.storage_per_thread_bytes,
            plan.data_words_per_sample,
            plan.model_words,
            plan.gradient_words,
        )
    )


def design_space_text():
    """Every sweep point, the chosen CoSMIC plan, and TABLA's chosen (and
    PE-pinned) plan, for the ten Table 1 benchmarks under both the
    CoSMIC and the TABLA cost parameters."""
    lines = []
    tabla = TablaModel(XILINX_VU9P)
    for b in BENCHMARKS:
        dfg = b.translate().dfg
        for params in (CostParams(), TABLA_PARAMS):
            planner = Planner(XILINX_VU9P, params)
            sweep = planner.sweep(dfg, 10_000, b.density)
            for label, plan in sweep.items():
                lines.append(_estimate_repr(label, plan))
            best = planner.plan(dfg, 10_000, b.density)
            lines.append(_estimate_repr("plan", best))
        for pes in (None, XILINX_VU9P.max_pes):
            plan = tabla.plan(dfg, 10_000, b.density, pes=pes)
            lines.append(_estimate_repr(plan.design.label(), plan))
    return "\n".join(lines)


def test_design_space_costs_match_parent_digest():
    text = design_space_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PARENT_DIGEST
