"""``results_full.txt`` is exactly what the report writer produces.

The committed file is the text record of all 14 Section 7 experiments
followed by every ablation; the ablation rows are pinned nowhere else.
If a change to an experiment or ablation is intended, regenerate the
file, review its diff, and commit it::

    PYTHONPATH=src python -c "from repro.bench.report import write_report; write_report('results_full.txt', include_ablations=True)"
"""

from pathlib import Path

from repro.bench.report import generate_results, render_text

RESULTS_FULL = Path(__file__).resolve().parents[2] / "results_full.txt"


def test_results_full_matches_the_report_writer():
    rendered = render_text(generate_results(include_ablations=True))
    assert rendered == RESULTS_FULL.read_text()
