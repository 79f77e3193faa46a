"""Perf-regression harness: payloads, comparator, CLI gate."""

import json


from repro.bench.perf import (
    PerfReport,
    compare_to_baseline,
    load_report,
    measure_stages,
    render_report,
    write_report,
)
from repro.cli import main
from repro.runtime import schedule


def _report(stages=None):
    return PerfReport(
        stages=stages
        or {"stock": {"translate": 0.01, "plan": 0.02, "compile": 0.03}},
        quick=True,
    )


class TestComparator:
    def test_within_tolerance_passes(self):
        assert compare_to_baseline(_report(), _report()) == []

    def test_regressed_stage_flagged(self):
        slow = _report(
            stages={"stock": {"plan": 0.1, "translate": 0.01}}
        )
        problems = compare_to_baseline(slow, _report(), tolerance=2.0)
        assert any("stock/plan" in p for p in problems)

    def test_sub_floor_stages_never_flagged(self):
        base = _report(stages={"stock": {"translate": 0.0001}})
        slow = _report(stages={"stock": {"translate": 0.004}})
        assert compare_to_baseline(slow, base) == []

    def test_unknown_bench_ignored(self):
        current = _report(stages={"brand-new": {"plan": 9.9}})
        assert compare_to_baseline(current, _report()) == []


class TestPayloadRoundTrip:
    def test_write_and_load(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        write_report(_report(), path)
        loaded = load_report(path)
        assert loaded.stages == _report().stages
        assert json.loads(path.read_text())["format_version"] == 3

    def test_render_is_textual(self):
        text = render_report(_report())
        assert "stock" in text


class TestHarness:
    def test_measure_stages_shape(self):
        stages = measure_stages(["stock"], repeats=1)
        assert set(stages) == {"stock"}
        assert set(stages["stock"]) == {
            "translate", "plan", "compile", "simulate", "epoch",
        }
        assert all(v >= 0 for v in stages["stock"].values())

    def test_simulate_stage_runs_the_mimd_timing_model(self, monkeypatch):
        from repro.hw.accelerator import MimdTimingModel

        batches = []
        run_batch = MimdTimingModel.run_batch

        def spy(self, samples):
            batches.append(samples)
            return run_batch(self, samples)

        monkeypatch.setattr(MimdTimingModel, "run_batch", spy)
        measure_stages(["stock"], repeats=2)
        assert batches.count(10_000) == 2

    def test_epoch_stage_replays_from_an_empty_table(self, monkeypatch):
        """Each timed epoch derives its schedule trace afresh, so the
        stage times replay work, not memo hits."""
        traces = []
        real = schedule.schedule_trace
        monkeypatch.setattr(
            schedule,
            "schedule_trace",
            lambda *a: traces.append(1) or real(*a),
        )
        schedule.TRACES.clear()
        measure_stages(["stock"], repeats=2)
        assert len(traces) == 2


class TestCli:
    def test_perf_quick_creates_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_perf.json"
        code = main(
            [
                "perf", "--quick", "--bench", "stock",
                "--baseline", str(baseline), "--update-baseline",
            ]
        )
        assert code == 0
        assert baseline.is_file()
        # Second run gates against it and passes (same machine).
        code = main(
            [
                "perf", "--quick", "--bench", "stock",
                "--baseline", str(baseline), "--tolerance", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "within" in out
