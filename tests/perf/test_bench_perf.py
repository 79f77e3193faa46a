"""Perf-regression harness: payloads, comparator, CLI gate.

The flow runner is stubbed throughout: these tests never start the
timed subprocesses (tier-1 among them).
"""

import json

import pytest

from repro.bench import perf
from repro.bench.perf import (
    FLOWS,
    REPEATS,
    PerfReport,
    compare_to_baseline,
    load_report,
    render_report,
    run_perf,
    write_report,
)
from repro.cli import main

BASE = {"run_all": 0.5, "train_chaos": 1.0, "tier1": 20.0}


def _report(seconds=BASE, spread=(0.9, 1.0, 1.1)):
    """``len(spread)`` runs per flow around ``seconds[flow]``."""
    return PerfReport(
        runs=[
            (flow, rep, s * factor)
            for rep, factor in enumerate(spread)
            for flow, s in seconds.items()
        ]
    )


@pytest.fixture
def stub_flows(monkeypatch):
    """Route ``_time_flow`` to fixed per-flow seconds; returns the dict
    so a test can slow one flow down."""
    seconds = dict(BASE)
    monkeypatch.setattr(perf, "_time_flow", lambda flow: seconds[flow])
    return seconds


class TestComparator:
    def test_within_tolerance_passes(self):
        assert compare_to_baseline(_report(), _report()) == []

    def test_regressed_flow_flagged(self):
        slow = _report(dict(BASE, train_chaos=3.0))
        problems = compare_to_baseline(slow, _report())
        assert len(problems) == 1
        assert problems[0].startswith("train_chaos:")

    def test_judges_medians(self):
        """One fast outlier does not hide a slow median, and one slow
        outlier does not fail a fast one."""
        slow_median = _report(spread=(0.1, 3.0, 3.0))
        assert compare_to_baseline(slow_median, _report()) != []
        one_outlier = _report(spread=(1.0, 1.0, 9.0))
        assert compare_to_baseline(one_outlier, _report()) == []

    def test_unknown_flow_ignored(self):
        current = _report({"brand-new": 99.0})
        assert compare_to_baseline(current, _report()) == []


class TestPayloadRoundTrip:
    def test_write_and_load(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        report = _report()
        write_report(report, path)
        assert load_report(path).runs == report.runs
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 4
        assert payload["runs"][0] == {
            "flow": "run_all",
            "repetition": 0,
            "seconds": 0.45,
        }
        assert payload["flows"]["tier1"] == {
            "runs": 3,
            "median_s": 20.0,
            "p90_s": 21.6,
        }

    def test_other_format_rejected(self):
        with pytest.raises(ValueError, match="format 3"):
            PerfReport.from_dict({"format_version": 3, "stages": {}})

    def test_render_is_textual(self):
        text = render_report(_report())
        assert all(flow in text for flow in BASE)


class TestHarness:
    def test_every_flow_timed_repeats_times(self, stub_flows):
        report = run_perf()
        assert [(f, r) for f, r, _ in report.runs] == [
            (flow, rep) for rep in range(REPEATS) for flow in FLOWS
        ]
        assert set(FLOWS) == set(BASE)


class TestCli:
    def test_perf_creates_baseline_then_passes(
        self, tmp_path, capsys, stub_flows
    ):
        baseline = tmp_path / "BENCH_perf.json"
        args = ["perf", "--baseline", str(baseline)]
        assert main(args + ["--update-baseline"]) == 0
        assert baseline.is_file()
        assert main(args) == 0
        assert "within" in capsys.readouterr().out

    def test_perf_fails_naming_the_slow_flow(
        self, tmp_path, capsys, stub_flows
    ):
        baseline = tmp_path / "BENCH_perf.json"
        write_report(_report(spread=(1.0,)), baseline)
        stub_flows["run_all"] *= 3
        assert main(["perf", "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        regressions = out[out.index("PERF REGRESSIONS"):]
        assert "run_all:" in regressions
        assert "tier1:" not in regressions
