"""The end-to-end contract: every ``run_all()`` row and summary, pinned.

``tests/golden/run_all.json`` is the canonical ``_result_payload`` JSON of
all 14 Section 7 experiments. Any change to a table or figure fails this
test; if the change is intended, regenerate the file, review its diff
against the EXPERIMENTS.md headline table, and commit both::

    PYTHONPATH=src python -c "import sys; from repro.bench import run_all; from repro.bench.perf import _result_payload; sys.stdout.write(_result_payload(run_all()))" > tests/golden/run_all.json
"""

from pathlib import Path

from repro.bench import run_all
from repro.bench.perf import _result_payload

GOLDEN = Path(__file__).parent / "golden" / "run_all.json"


def test_run_all_matches_golden_byte_exact():
    assert _result_payload(run_all()).encode() == GOLDEN.read_bytes()
