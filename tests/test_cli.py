"""CLI tests (in-process, asserting on captured stdout)."""

import pytest

from repro.cli import main
from repro.runtime.recovery import SCENARIOS


class TestBenchmarksCommand:
    def test_lists_all_ten(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("mnist", "netflix", "cancer2"):
            assert name in out


class TestExperimentCommand:
    def test_runs_a_figure(self, capsys):
        assert main(["experiment", "figure17"]) == 0
        out = capsys.readouterr().out
        assert "TABLA" in out
        assert "geomean_speedup" in out

    def test_runs_a_table(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "movielens" in capsys.readouterr().out

    def test_unknown_id_fails(self, capsys):
        assert main(["experiment", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestAblationCommand:
    def test_runs_one(self, capsys):
        assert main(["ablation", "mapping"]) == 0
        assert "ops-first" in capsys.readouterr().out

    def test_unknown_fails(self, capsys):
        assert main(["ablation", "nonsense"]) == 2
        assert "unknown ablation" in capsys.readouterr().err


class TestPlanCommand:
    def test_plan_fpga(self, capsys):
        assert main(["plan", "mnist"]) == 0
        out = capsys.readouterr().out
        assert "UltraScale+" in out
        assert "design point" in out
        assert "compute" in out

    def test_plan_pasic(self, capsys):
        assert main(["plan", "stock", "--chip", "pasic-g"]) == 0
        assert "P-ASIC-G" in capsys.readouterr().out



class TestRtlCommand:
    def test_emits_verilog(self, capsys):
        assert main(["rtl", "stock", "--rows", "1", "--columns", "2"]) == 0
        out = capsys.readouterr().out
        assert "module cosmic_pe" in out
        assert "cosmic_control_fsm" in out

    def test_pasic_target(self, capsys):
        assert main(["rtl", "stock", "--target", "pasic",
                     "--rows", "1", "--columns", "2"]) == 0
        assert "cosmic_microcode_rom" in capsys.readouterr().out


class TestTrainCommand:
    def test_trains_linear_benchmark(self, capsys):
        code = main([
            "train", "stock", "--nodes", "2", "--threads", "1",
            "--epochs", "3", "--samples", "512",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "loss:" in out
        assert "simulated seconds:" in out

    def test_trains_cf_benchmark(self, capsys):
        code = main([
            "train", "movielens", "--nodes", "2", "--threads", "1",
            "--epochs", "6", "--samples", "512",
        ])
        assert code == 0
        assert "movielens" in capsys.readouterr().out


class TestChaosCommand:
    def test_master_crash_recovers(self, capsys):
        code = main([
            "chaos", "stock", "--scenario", "master-crash",
            "--epochs", "2", "--samples", "256",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "master-crash" in out
        assert "new_master=" in out
        assert "time to recovery:" in out
        assert "throughput kept:" in out

    def test_healthy_scenario_has_no_faults(self, capsys):
        code = main([
            "chaos", "stock", "--scenario", "healthy",
            "--epochs", "1", "--samples", "256",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "(no faults injected)" in out
        assert "time to recovery:   0.0000s" in out

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "stock", "--scenario", "alien-invasion"])
        assert "invalid choice" in capsys.readouterr().err


COUNT_FLAGS = [
    ("plan", "--minibatch"), ("rtl", "--rows"), ("rtl", "--columns"),
    *[("train", f) for f in ("--nodes", "--threads", "--epochs", "--samples")],
    *[
        ("chaos", f)
        for f in ("--nodes", "--groups", "--threads", "--epochs", "--samples")
    ],
    ("chaos", "--checkpoint-every"),
]


class TestUnknownBenchmark:
    @pytest.mark.parametrize("command", ["plan", "rtl", "train", "chaos"])
    def test_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "bert"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument benchmark: invalid choice" in captured.err
        assert "Traceback" not in captured.err


class TestCountFlags:
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command,flag", COUNT_FLAGS)
    def test_below_one_exits_2(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "stock", flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be at least 1" in captured.err
        assert "Traceback" not in captured.err


class TestFlagCombinations:
    """Flag values argparse accepts one by one but the run cannot use."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["train", "stock", "--samples", "4", "--nodes", "8"],
                "dataset of 4 samples is smaller than one global "
                "mini-batch of 16",
            ),
            (
                ["chaos", "stock", "--samples", "4", "--nodes", "8"],
                "dataset of 4 samples is smaller than one global "
                "mini-batch of 8",
            ),
            (
                ["chaos", "stock", "--nodes", "1"],
                "cannot split 1 nodes into 2 groups",
            ),
        ],
        ids=["train-samples", "chaos-samples", "chaos-groups"],
    )
    def test_exits_2_with_one_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro {argv[0]}: error: {message}\n"


class TestSingleNodeChaos:
    """Every chaos scenario on a one-node cluster: the ones that must
    fault a node other than the one that exists are usage errors."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_runs_or_exits_2(self, capsys, scenario):
        code = main(
            ["chaos", "stock", "--nodes", "1", "--groups", "1"]
            + ["--samples", "256", "--scenario", scenario]
        )
        captured = capsys.readouterr()
        if scenario in ("healthy", "flaky"):
            assert code == 0
            assert "throughput kept:    100.0%" in captured.out
            return
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"repro chaos: error: scenario {scenario!r} needs at least 2 "
            "nodes: a single-node cluster has no other node to fault\n"
        )


class TestModuleEntry:
    def test_python_dash_m(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "benchmarks"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "mnist" in proc.stdout
