"""The end-to-end contract: every ``run_all()`` row and summary, plus the
seeded ``train``/``chaos`` flows, pinned.

``tests/golden/run_all.json`` is the canonical ``result_payload`` JSON of
all 14 Section 7 experiments. Any change to a table or figure fails this
test; if the change is intended, regenerate the file, review its diff
against the EXPERIMENTS.md headline table, and commit both::

    PYTHONPATH=src:. python -c "import sys; from repro.bench.figures import run_all; from tests.test_golden import result_payload; sys.stdout.write(result_payload(run_all()))" > tests/golden/run_all.json

``tests/golden/train_chaos.json`` pins the ``repro train`` and ``repro
chaos`` flows at CLI defaults at full precision (the CLI itself prints
rounded values): iterations, simulated seconds and every loss, and for
chaos every recovery-event field, checkpoints and time to recovery.
Faulted runs replay like healthy ones (a fault changes the cluster spec,
the compute times or the topology, all part of the memo and trace keys),
so this is the pin on schedule replay under faults. Regenerate with::

    PYTHONPATH=src:. python -c "import sys; from tests.test_golden import train_chaos_payload; sys.stdout.write(train_chaos_payload())" > tests/golden/train_chaos.json
"""

import dataclasses
import json
from pathlib import Path

from repro.bench.figures import run_all
from repro.cli import build_parser, chaos_flow, train_flow
from repro.runtime.recovery import SCENARIOS

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "run_all.json"

TRAIN_BENCHMARKS = ("stock", "cancer1", "face", "mnist", "movielens")
CHAOS_BENCHMARK = "mnist"


def result_payload(results) -> str:
    """Canonical JSON of every row and summary — the bit-identity probe."""
    return json.dumps(
        [(r.experiment, r.rows, r.summary) for r in results],
        default=str,
        sort_keys=True,
    )


def _run_fields(result):
    return {
        "iterations": result.iterations,
        "simulated_seconds": repr(result.simulated_seconds),
        "losses": [repr(loss) for loss in result.loss_history],
    }


def _chaos_fields(result):
    fields = _run_fields(result)
    fields["events"] = [
        {k: repr(v) for k, v in dataclasses.asdict(event).items()}
        for event in result.events
    ]
    fields["checkpoints"] = result.checkpoints_taken
    fields["time_to_recovery_s"] = repr(result.time_to_recovery_s)
    return fields


def train_chaos_payload() -> str:
    """Canonical JSON of the seeded flows at CLI defaults."""
    parser = build_parser()
    train = {}
    for name in TRAIN_BENCHMARKS:
        _, _, result = train_flow(parser.parse_args(["train", name]))
        train[name] = _run_fields(result)
    chaos = {}
    for scenario in SCENARIOS:
        args = parser.parse_args(
            ["chaos", CHAOS_BENCHMARK, "--scenario", scenario]
        )
        _, _, healthy, result = chaos_flow(args)
        chaos[scenario] = {
            "healthy": _run_fields(healthy),
            "faulted": _chaos_fields(result),
        }
    payload = {"train": train, "chaos": {CHAOS_BENCHMARK: chaos}}
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_run_all_matches_golden_byte_exact():
    assert result_payload(run_all()).encode() == GOLDEN.read_bytes()


def test_train_and_chaos_flows_match_golden_byte_exact():
    golden = (GOLDEN_DIR / "train_chaos.json").read_bytes()
    assert train_chaos_payload().encode() == golden
