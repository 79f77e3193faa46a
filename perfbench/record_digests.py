"""Regenerate ``digests.json``, the committed answers the checks use.

Run from the root of a checkout, only when the program's results are
meant to change, and review the diff::

    python3 perfbench/record_digests.py

It records the rows-and-summary digest of each of the 14 experiments, and
for every seeded workload the digests of the first ops of each
interpreter's stream at the workload's default seed.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
OPS_PER_STREAM = 20
STREAMS = 5


def main() -> int:
    sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]
    import workloads

    digests = {}
    with contextlib.redirect_stdout(sys.stderr):
        paper = workloads.WORKLOADS["paper-regen"]
        experiments = paper.setup(DEFAULT_SEED)
        digests[paper.name] = {
            "experiments": {
                exp_id: paper.digest(
                    paper.run(experiments, {"experiment": exp_id})
                )
                for exp_id in workloads.EXPERIMENT_IDS
            }
        }
        for name in ("cluster-study", "train-chaos", "codesign"):
            workload = workloads.WORKLOADS[name]
            state = workload.setup(DEFAULT_SEED)
            streams = {}
            for stream in range(STREAMS):
                ops = workload.ops(DEFAULT_SEED, stream)
                outputs = []
                for _, op in zip(range(OPS_PER_STREAM), ops):
                    output = workload.run(state, op)
                    problem = workload.check(state, op, output, {})
                    if problem is not None:
                        raise SystemExit(f"{name} {op}: {problem}")
                    outputs.append(workload.digest(output))
                streams[str(stream)] = outputs
            digests[name] = {"seed": DEFAULT_SEED, "streams": streams}
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {HERE / 'digests.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
