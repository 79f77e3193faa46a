"""Bit-identity of the codesign back end.

Every Table 1 benchmark is compiled at two grid shapes, 1x2 and 4x8, and
put through the whole back end: the self-checking testbench, the FPGA
and P-ASIC designs, the P-ASIC micro-op words and the ThreadSimulator's
outputs for one seeded sample. One SHA-256 pins the lot.

The digest below was recorded from the commit *before* the back end's
per-element scans were replaced by one index per program (the
testbench's gradient-name set and the schedule check's per-PE
grouping). Those rewrites must not move a single character or float.
Regenerate the digest only for a deliberate change to the compiler,
constructor or testbench output.
"""

import hashlib

from repro.circuit.constructor import construct
from repro.circuit.testbench import generate_testbench
from repro.core.stack import CosmicStack
from repro.hw.accelerator import ThreadSimulator
from repro.ml.benchmarks import BENCHMARKS

#: SHA-256 of the canonical text below, recorded at the parent commit.
PARENT_DIGEST = (
    "98524093421b25d039ddcc1bf99096aa325a0339b8855db015a5ecdb44e3ac3a"
)

GRIDS = ((1, 2), (4, 8))


def _sample_feeds(bench, stack):
    dataset = bench.make_dataset(samples=4, seed=1)
    feeds = {k: v[0] for k, v in dataset.feeds.items()}
    feeds.update(stack.trainer(seed=1).initial_model(scale=0.1))
    return feeds


def back_end_text():
    """The back end's every output, for the ten benchmarks at both
    grids, as one canonical text."""
    lines = []
    for bench in BENCHMARKS:
        stack = CosmicStack.from_benchmark(bench)
        feeds = _sample_feeds(bench, stack)
        for rows, columns in GRIDS:
            program = stack.compile(rows=rows, columns=columns)
            fpga = construct(program, target="fpga")
            pasic = construct(program, target="pasic")
            outputs = ThreadSimulator(program).run(feeds).outputs
            lines += [
                f"== {bench.name} {rows}x{columns}",
                generate_testbench(program, feeds),
                fpga.verilog,
                pasic.verilog,
                " ".join(f"{op.encode():016x}" for op in pasic.microcode),
                repr(sorted(outputs.items())),
            ]
    return "\n".join(lines)


def test_back_end_matches_parent_digest():
    text = back_end_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PARENT_DIGEST
