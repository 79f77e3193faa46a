"""Report-writer tests."""

import pytest

from repro.bench import report
from repro.bench.report import (
    generate_results,
    render_text,
    write_report,
)
from repro.bench.results import ExperimentResult


class TestGenerate:
    def test_selected_experiments(self):
        results = generate_results(["table1", "figure17"])
        assert [r.experiment for r in results] == ["Table 1", "Figure 17"]

    def test_ablation_by_name(self):
        results = generate_results(["mapping"])
        assert results[0].experiment.startswith("Ablation")

    def test_ablations_added_to_a_selection(self, monkeypatch):
        """``include_ablations`` appends every ablation not already
        listed, after the selection, whether or not one is given."""
        stubs = {
            name: (lambda name=name: ExperimentResult(name, "", ["name"]))
            for name in ("mapping", "straggler")
        }
        monkeypatch.setattr(report, "ABLATIONS", stubs)
        results = generate_results(["table1", "straggler"], True)
        assert [r.experiment for r in results] == [
            "Table 1",
            "straggler",
            "mapping",
        ]

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            generate_results(["figure99"])


class TestRenderers:
    @pytest.fixture(scope="class")
    def results(self):
        return generate_results(["table1"])

    def test_text_contains_rows(self, results):
        text = render_text(results)
        assert "mnist" in text
        assert "Table 1" in text


class TestWrite:
    def test_writes_text_file(self, tmp_path):
        out = write_report(tmp_path / "report.txt", ["table1"])
        assert out.exists()
        assert "mnist" in out.read_text()
