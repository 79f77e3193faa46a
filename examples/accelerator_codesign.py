"""Hardware/software co-design walkthrough for a custom algorithm.

Shows what the lower layers of the stack do for an algorithm the paper
never shipped — a robust (Huber-style, via a gaussian weight) regression —
demonstrating the "new learning models and algorithmic changes" claim:

1. design-space exploration across (threads x rows) on three chips;
2. Algorithm 1's data-first mapping vs an ops-first alternative;
3. the static schedule executed on the cycle-level simulator, checked
   against the NumPy interpreter;
4. FPGA state-machine RTL vs P-ASIC microcode from the same program.

Run: ``python examples/accelerator_codesign.py``
"""

import numpy as np

from repro.baselines.tabla import TABLA_PARAMS
from repro.compiler.program import compile_thread
from repro.core.stack import CosmicStack
from repro.dfg.interpreter import Interpreter
from repro.hw.accelerator import ThreadSimulator
from repro.hw.spec import PASIC_F, PASIC_G, XILINX_VU9P
from repro.planner.plan import Planner

ROBUST_REGRESSION = """
minibatch = 4096;
mu = 0.05;
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];

e = sum[i](w[i] * x[i]) - y;
influence = gaussian(e * 0.5);
g[i] = influence * e * x[i];
"""


def main():
    stack = CosmicStack(
        ROBUST_REGRESSION, bindings={"n": 4096}, functional_bindings={"n": 16}
    )
    dfg = stack.translation.dfg

    print("=== 1. design-space exploration across chips ===")
    for chip in (XILINX_VU9P, PASIC_F, PASIC_G):
        plan = Planner(chip).plan(dfg, minibatch=4096)
        print(f"{chip.name:18s} {plan.design.label():8s} "
              f"{plan.samples_per_second:>12,.0f} samples/s "
              f"({'compute' if plan.compute_bound else 'bandwidth'}-bound)")

    print("\n=== 2. mapping quality: data-first (Alg. 1) vs ops-first ===")
    from repro.planner.estimator import estimate_thread_cycles

    data_first = estimate_thread_cycles(dfg, 256, 16)
    ops_first = estimate_thread_cycles(dfg, 256, 16, TABLA_PARAMS)
    print(f"data-first: {data_first.cycles:7.0f} cycles/sample "
          f"({data_first.comm_cycles:.0f} on the interconnect)")
    print(f"ops-first:  {ops_first.cycles:7.0f} cycles/sample "
          f"({ops_first.comm_cycles:.0f} on the interconnect)")

    print("\n=== 3. cycle simulator vs NumPy interpreter ===")
    program = compile_thread(stack.functional_translation.dfg, rows=2, columns=4)
    rng = np.random.default_rng(1)
    feeds = {
        "x": rng.normal(size=16),
        "y": np.float64(0.3),
        "w": rng.normal(size=16),
    }
    hw = ThreadSimulator(program).run(feeds)
    sw = Interpreter(stack.functional_translation.dfg).run(feeds)
    err = np.max(np.abs(hw.gradient_vector("g", 16) - sw["g"]))
    print(f"schedule makespan: {program.cycles} cycles "
          f"({len(program.schedule.ops)} scalar ops on 8 PEs)")
    print(f"max |hw - sw| gradient error: {err:.2e}")
    assert err < 1e-9

    print("\n=== 4. one program, two silicon targets ===")
    fpga = stack.rtl(rows=2, columns=4, target="fpga")
    pasic = stack.rtl(rows=2, columns=4, target="pasic")
    print(f"FPGA:   {fpga.fsm_states} control-FSM states "
          f"(no instruction fetch/decode)")
    print(f"P-ASIC: {len(pasic.microcode)} microcode words "
          f"(reprogrammable after tape-out)")
    word = pasic.microcode[0]
    print(f"first micro-op: cycle={word.cycle} pe={word.pe} "
          f"op={word.op_name} encoded=0x{word.encode():016x}")
    print("\naccelerator_codesign OK")


if __name__ == "__main__":
    main()
