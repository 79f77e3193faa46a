"""Perf-regression harness: payloads, comparator, CLI gate."""

import json


from repro.bench.perf import (
    PerfReport,
    compare_to_baseline,
    load_report,
    measure_figure_sweep,
    measure_quorum_sweep,
    measure_stages,
    render_report,
    write_report,
)
from repro.cli import main
from repro.runtime import schedule


def _report(stages=None, sweep=None, quorum=None):
    return PerfReport(
        stages=stages
        or {"stock": {"translate": 0.01, "plan": 0.02, "compile": 0.03}},
        sweep=sweep
        or {
            "replay_off_s": 0.2,
            "replay_on_s": 0.1,
            "replay_speedup": 2.0,
            "rows_identical": True,
        },
        quorum=quorum
        or {
            "points": 4,
            "fractions": [0.5, 1.0],
            "deadlines_s": [0.001, 0.02],
            "event_driven_s": 0.02,
            "replay_s": 0.01,
            "speedup": 2.0,
            "rows_identical": True,
        },
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

    def test_divergent_rows_flagged(self):
        bad_sweep = dict(_report().sweep, rows_identical=False)
        problems = compare_to_baseline(
            _report(sweep=bad_sweep), _report()
        )
        assert any("identical" in p for p in problems)

    def test_divergent_quorum_rows_flagged(self):
        bad = dict(_report().quorum, rows_identical=False)
        problems = compare_to_baseline(_report(quorum=bad), _report())
        assert any("quorum" in p for p in problems)

    def test_missing_quorum_leg_tolerated(self):
        """Baselines written before the quorum leg existed (and current
        runs without it) must not be flagged for the absence alone."""
        old = _report()
        old.quorum = {}
        assert compare_to_baseline(old, _report()) == []
        assert compare_to_baseline(_report(), old) == []


class TestPayloadRoundTrip:
    def test_write_and_load(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        write_report(_report(), path)
        loaded = load_report(path)
        assert loaded.stages == _report().stages
        assert loaded.sweep == _report().sweep
        assert loaded.quorum == _report().quorum
        assert json.loads(path.read_text())["format_version"] == 2

    def test_pre_quorum_payload_loads(self):
        payload = _report().to_dict()
        del payload["quorum_sweep"]
        assert PerfReport.from_dict(payload).quorum == {}

    def test_render_is_textual(self):
        text = render_report(_report())
        assert "stock" in text
        assert "replay on" in text
        assert "quorum replay" in text


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

        def spy(self, samples, vectorized=None):
            batches.append(samples)
            return run_batch(self, samples, vectorized)

        monkeypatch.setattr(MimdTimingModel, "run_batch", spy)
        measure_stages(["stock"], repeats=2)
        assert batches.count(10_000) == 2

    def test_figure_sweep_rows_identical(self):
        sweep = measure_figure_sweep(quick=True)
        assert sweep["rows_identical"] is True
        assert sweep["replay_off_s"] > 0
        assert sweep["replay_on_s"] > 0
        assert schedule.TRACES  # the replay-on leg recorded its traces

    def test_quorum_sweep_rows_identical(self):
        quorum = measure_quorum_sweep(quick=True)
        assert quorum["rows_identical"] is True
        assert quorum["points"] == len(quorum["fractions"]) * len(
            quorum["deadlines_s"]
        )
        assert quorum["event_driven_s"] > 0
        assert quorum["replay_s"] > 0
        assert quorum["speedup"] > 0


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
