"""Quickstart: the whole CoSMIC stack in one script.

A programmer writes ~20 lines of the mathematical DSL (the gradient, the
aggregation operator, the mini-batch size); CoSMIC does everything else:

1. translate the program to a dataflow graph;
2. plan a multi-threaded accelerator for an UltraScale+ FPGA;
3. compile (map + schedule) a worker thread and emit its RTL;
4. train the model across a simulated 4-node accelerated cluster.

Run: ``python examples/quickstart.py``
"""

import numpy as np

from repro.core.stack import CosmicStack

# 1. The DSL program: a support vector machine (Equation 4 of the paper).
SVM_PROGRAM = """
minibatch = 512;
mu = 0.05;
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];

s = sum[i](w[i] * x[i]);
m = s * y;
g[i] = (m < 1) ? (-y * x[i]) : 0;

aggregator:
iterator j[0:nodes];
w[i] = sum[j](g[j, i]) / nodes;
"""


def main():
    stack = CosmicStack(
        SVM_PROGRAM,
        bindings={"n": 1740},  # the paper's "face" benchmark width
        functional_bindings={"n": 32},  # reduced width for actual training
    )

    # 2. Architecture layer: the Planner shapes the template.
    plan = stack.plan()
    print("=== Planner (UltraScale+ VU9P) ===")
    print(f"design point:      {plan.design.label()} "
          f"({plan.design.total_pes} PEs over {plan.design.total_rows} rows)")
    print(f"cycles per sample: {plan.cycles_per_sample:.0f}")
    print(f"throughput:        {plan.samples_per_second:,.0f} samples/s")
    print(f"bound by:          "
          f"{'compute' if plan.compute_bound else 'off-chip bandwidth'}")

    # 3. Compilation + circuit layers for one worker thread.
    program = stack.compile(rows=2, columns=4)
    print("\n=== Compiler (one worker thread, 2x4 PEs) ===")
    print(f"scalar operations: {len(program.schedule.ops)}")
    print(f"static makespan:   {program.cycles} cycles")
    print(f"cross-PE operands: {program.cross_pe_operands}")
    design = stack.rtl(rows=2, columns=4, target="fpga")
    print(f"generated modules: {', '.join(design.module_names())}")

    # 4. System layer: distributed training on 4 simulated nodes.
    rng = np.random.default_rng(0)
    n, samples = 32, 4096
    true_w = rng.normal(size=n)
    x = rng.normal(size=(samples, n))
    y = np.sign(x @ true_w)

    def accuracy(model, feeds):
        return float(np.mean(np.sign(feeds["x"] @ model["w"]) == feeds["y"]))

    trainer = stack.trainer(nodes=4, threads_per_node=2)
    result = trainer.train(
        {"x": x, "y": y}, epochs=8, minibatch_per_worker=32, loss_fn=accuracy
    )
    print("\n=== Distributed training (4 nodes x 2 threads) ===")
    print(f"iterations:        {result.iterations}")
    print(f"initial accuracy:  {result.loss_history[0]:.3f}")
    print(f"final accuracy:    {result.final_loss:.3f}")
    assert result.final_loss > 0.95, "training failed to converge"
    print("\nquickstart OK")


if __name__ == "__main__":
    main()
