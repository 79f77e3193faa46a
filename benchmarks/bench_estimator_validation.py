"""Estimator validation: the Planner's performance-estimation tool vs
the cycle-level simulator (Section 4.4 says the tool "is validated
against the hardware"; ours is validated against the compiled schedules
the simulator executes).

The estimator need not be cycle-exact — it models tree-bus ALU reduction
while the scalar schedule routes partials through PEs — but it must rank
design points the way the schedule does, or the DSE would pick wrong.
"""

import math

from repro.compiler.program import compile_thread
from repro.dfg.translate import translate
from repro.dsl.parser import parse
from repro.planner.estimator import estimate_thread_cycles

PROGRAMS = {
    "linreg": """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
""",
    "logreg": """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
p = sigmoid(sum[i](w[i] * x[i]));
g[i] = (p - y) * x[i];
""",
    "svm": """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
m = sum[i](w[i] * x[i]) * y;
g[i] = (m < 1) ? (-y * x[i]) : 0;
""",
}

GEOMETRIES = [(1, 1), (1, 4), (2, 4), (4, 4), (4, 8)]
WIDTHS = [16, 48, 96, 192]


def _collect():
    pairs = []
    for source in PROGRAMS.values():
        for n in WIDTHS:
            dfg = translate(parse(source), {"n": n}).dfg
            for rows, columns in GEOMETRIES:
                program = compile_thread(
                    dfg, rows=rows, columns=columns, include_stream=False
                )
                estimate = estimate_thread_cycles(
                    dfg, rows * columns, rows
                )
                pairs.append((estimate.cycles, program.cycles))
    return pairs


def _pearson(xs, ys):
    nx = len(xs)
    mx, my = sum(xs) / nx, sum(ys) / nx
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = math.sqrt(sum((a - mx) ** 2 for a in xs))
    vy = math.sqrt(sum((b - my) ** 2 for b in ys))
    return cov / (vx * vy)


def test_estimator_tracks_simulated_schedules(benchmark):
    pairs = benchmark.pedantic(_collect, rounds=1, iterations=1)
    est = [math.log(e) for e, s in pairs]
    sim = [math.log(s) for e, s in pairs]
    r = _pearson(est, sim)
    print(f"\nestimator-vs-schedule log-log correlation over "
          f"{len(pairs)} (program, width, geometry) points: r = {r:.3f}")
    # The estimator models tree-bus ALU reduction; the scalar schedule
    # routes partials through PEs, flooring its makespan at high PE
    # counts — so rank correlation is strong but not perfect.
    assert r > 0.75
    # Magnitudes stay within a small constant factor either way.
    ratios = [s / e for e, s in pairs]
    assert 0.2 < min(ratios) and max(ratios) < 10.0
