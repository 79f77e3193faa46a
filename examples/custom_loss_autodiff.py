"""Write the loss, not the gradient: automatic differentiation.

The paper's programming model asks the user for the partial-gradient
formula. This extension derives it: write the *loss* in the same DSL and
reverse-mode differentiation over the dataflow graph produces the
gradient program — which then plans, compiles, and trains through the
unchanged stack. The demo uses a robust regression loss the paper never
shipped (a Geman-McClure-style bounded penalty via ``gaussian``).

Run: ``python examples/custom_loss_autodiff.py``
"""

import numpy as np

from repro.compiler.program import compile_thread
from repro.dfg.differentiate import derive_gradients
from repro.dfg.interpreter import Interpreter
from repro.hw.accelerator import ThreadSimulator
from repro.hw.spec import XILINX_VU9P
from repro.planner.plan import Planner
from repro.runtime.trainer import DistributedTrainer

# A robust loss: small residuals behave quadratically, outliers saturate.
#   loss = 1 - exp(-(e/2)^2)
ROBUST_LOSS = """
mu = 0.3;
model_input x[n];
model_output y;
model w[n];
iterator i[0:n];
e = sum[i](w[i] * x[i]) - y;
loss = 1 - gaussian(e / 2);
"""


def main():
    n = 16
    derived = derive_gradients(ROBUST_LOSS, {"n": n})
    print("=== derived gradient program ===")
    grads = [v.name for v in derived.dfg.gradient_outputs()]
    print(f"gradient outputs: {grads}")
    print(f"aggregation:      {derived.aggregator.describe()}")
    print(f"graph size:       {len(derived.dfg.nodes)} macro-ops "
          f"(forward + adjoint)")

    # The derived graph is a first-class stack citizen.
    plan = Planner(XILINX_VU9P).plan(derived.dfg, minibatch=1024)
    program = compile_thread(derived.dfg, rows=2, columns=4)
    print(f"\nplanner:          {plan.design.label()}, "
          f"{plan.samples_per_second:,.0f} samples/s")
    print(f"compiled:         {program.cycles}-cycle static schedule")

    # Cycle simulator agrees with the interpreter on the derived math.
    rng = np.random.default_rng(0)
    feeds = {
        "x": rng.normal(size=n),
        "y": np.float64(0.5),
        "w": rng.normal(size=n),
    }
    hw = ThreadSimulator(program).run(feeds).gradient_vector("g_w", n)
    sw = Interpreter(derived.dfg).run(feeds)["g_w"]
    print(f"hw-vs-sw gradient error: {np.max(np.abs(hw - sw)):.2e}")
    assert np.max(np.abs(hw - sw)) < 1e-9

    # Train on data with 10% gross outliers: the robust loss shrugs.
    N = 4096
    true_w = rng.normal(size=n)
    X = rng.normal(size=(N, n))
    Y = X @ true_w + 0.05 * rng.normal(size=N)
    outliers = rng.choice(N, size=N // 10, replace=False)
    Y[outliers] += rng.normal(scale=25.0, size=len(outliers))

    trainer = DistributedTrainer(derived, nodes=4, threads_per_node=2)
    result = trainer.train(
        {"x": X, "y": Y},
        epochs=30,
        minibatch_per_worker=32,
        loss_fn=lambda m, f: float(
            np.median(np.abs(f["x"] @ m["w"] - f["y"]))
        ),
    )
    err = np.linalg.norm(result.model["w"] - true_w)
    print(f"\ntrained across 4 nodes x 2 threads, {result.iterations} iters")
    print(f"median abs residual: {result.loss_history[0]:.3f} -> "
          f"{result.final_loss:.3f}")
    print(f"weight error vs ground truth: {err:.3f}")
    assert err < 0.35, "robust regression failed to recover the weights"
    print("\ncustom_loss_autodiff OK")


if __name__ == "__main__":
    main()
