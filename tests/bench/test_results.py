"""ExperimentResult container and rendering tests."""

import pytest

from repro.bench.results import ExperimentResult, geomean


@pytest.fixture
def result():
    r = ExperimentResult(
        "Figure X",
        "A demonstration",
        ["name", "value", "note"],
        paper={"geomean_value": 2.0},
    )
    r.add_row(name="alpha", value=1.5, note="ok")
    r.add_row(name="beta", value=2_000_000.0, note="big")
    r.add_row(name="gamma", value=0.0042, note="small")
    r.summary["geomean_value"] = geomean([1.5, 2.0])
    return r


class TestContainer:
    def test_column_extraction(self, result):
        assert result.column("value") == [1.5, 2_000_000.0, 0.0042]

    def test_column_skips_missing(self, result):
        result.add_row(name="delta")
        assert len(result.column("value")) == 3


class TestRendering:
    def test_header_and_rows(self, result):
        text = result.to_table()
        lines = text.splitlines()
        assert lines[0] == "== Figure X: A demonstration =="
        assert "alpha" in text and "beta" in text

    def test_float_formatting(self, result):
        text = result.to_table()
        assert "1.50" in text  # normal floats: 2 decimals
        assert "2e+06" in text  # large: scientific
        assert "0.0042" in text  # small: scientific/compact

    def test_summary_with_paper_reference(self, result):
        text = result.to_table()
        assert "geomean_value:" in text
        assert "(paper: 2)" in text

    def test_columns_aligned(self, result):
        lines = [
            line for line in result.to_table().splitlines() if line.startswith(("n", "a", "b", "g"))
        ]
        header = next(
            line for line in result.to_table().splitlines() if line.startswith("name")
        )
        # Every data row is as wide as its content; the value column
        # starts at the same offset everywhere.
        offset = header.index("value")
        for row in result.rows:
            line = next(
                line for line in result.to_table().splitlines()
                if line.startswith(str(row["name"]))
            )
            assert line[: offset].strip() == str(row["name"])

    def test_empty_result_renders(self):
        r = ExperimentResult("Empty", "nothing", ["a", "b"])
        text = r.to_table()
        assert "Empty" in text
