"""Bit-identity of the codesign back end.

Every Table 1 benchmark is compiled at two grid shapes, 1x2 and 4x8, and
put through the whole back end: the self-checking testbench, the FPGA
and P-ASIC designs, the P-ASIC micro-op words and the ThreadSimulator's
outputs for one seeded sample. Each of those artifacts, per benchmark
and grid, is pinned by its own SHA-256 in the committed map
``tests/golden/circuit_back_end.json``, so a failure names the
artifacts that moved. The text is too large to commit (1.8 MiB).

The map was recorded in the same run as the one whole-text digest it
replaced, which dated from before the back end's per-element scans were
replaced by one index per program (the testbench's gradient-name set
and the schedule check's per-PE grouping); those rewrites moved no
character or float. Regenerate the map only for a deliberate change to
the compiler, constructor or testbench output::

    PYTHONPATH=src:. python -c "import sys; from tests.circuit.test_bit_identity import artifact_digests; from tests.golden_diff import digests_json; sys.stdout.write(digests_json(artifact_digests()))" > tests/golden/circuit_back_end.json
"""

import hashlib

from repro.circuit.constructor import construct
from repro.circuit.testbench import generate_testbench
from repro.core.stack import CosmicStack
from repro.hw.accelerator import ThreadSimulator
from repro.ml.benchmarks import BENCHMARKS
from tests.golden_diff import assert_digests_match

GRIDS = ((1, 2), (4, 8))


def _sample_feeds(bench, stack):
    dataset = bench.make_dataset(samples=4, seed=1)
    feeds = {k: v[0] for k, v in dataset.feeds.items()}
    feeds.update(stack.trainer(seed=1).initial_model(scale=0.1))
    return feeds


def back_end_artifacts():
    """Yield ``(key, text)`` for every back-end output of the ten
    benchmarks at both grids; ``key`` is ``"<benchmark> <rows>x<columns>
    <artifact>"``."""
    for bench in BENCHMARKS:
        stack = CosmicStack.from_benchmark(bench)
        feeds = _sample_feeds(bench, stack)
        for rows, columns in GRIDS:
            program = stack.compile(rows=rows, columns=columns)
            fpga = construct(program, target="fpga")
            pasic = construct(program, target="pasic")
            outputs = ThreadSimulator(program).run(feeds).outputs
            point = f"{bench.name} {rows}x{columns}"
            yield f"{point} testbench", generate_testbench(program, feeds)
            yield f"{point} fpga_verilog", fpga.verilog
            yield f"{point} pasic_verilog", pasic.verilog
            yield f"{point} microcode", " ".join(
                f"{op.encode():016x}" for op in pasic.microcode
            )
            yield f"{point} outputs", repr(sorted(outputs.items()))


def artifact_digests():
    return {
        key: hashlib.sha256(text.encode()).hexdigest()
        for key, text in back_end_artifacts()
    }


def test_back_end_matches_golden_digests():
    assert_digests_match(artifact_digests(), "circuit_back_end.json")
