"""CoSMIC: a full computing stack for scale-out acceleration of machine
learning (reproduction of Park et al., MICRO-50, 2017).

The stack's layers map to subpackages:

* :mod:`repro.dsl` — the mathematical domain-specific language;
* :mod:`repro.dfg` — Translator, dataflow-graph IR, NumPy interpreter;
* :mod:`repro.compiler` — Algorithm 1 mapping, scheduling, memory program;
* :mod:`repro.planner` — design-space exploration + performance estimator;
* :mod:`repro.hw` — chip specs, PE model, cycle-level simulators;
* :mod:`repro.circuit` — Constructor (RTL / microcode generation);
* :mod:`repro.runtime` — Sigma/Delta system software and distributed
  training;
* :mod:`repro.ml` — the five algorithms and ten Table 1 benchmarks;
* :mod:`repro.baselines` — Spark+MLlib, GPU, and TABLA comparators;
* :mod:`repro.core` — the `CosmicStack` / `CosmicSystem` facade;
* :mod:`repro.bench` — the harness regenerating every figure and table.
"""

__version__ = "1.0.0"
