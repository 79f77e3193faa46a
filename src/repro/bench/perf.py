"""Perf-regression harness: end-to-end wall times, gated on medians.

``python -m repro perf`` times the three end-to-end flows — a cold
``run_all()``, the seeded ``train``/``chaos`` CLI flows and the tier-1
suite — each ``REPEATS`` times in a fresh interpreter started from the
checkout root with ``PYTHONPATH=src``, so every run pays its imports and
fills its memos from empty. Repetitions are interleaved across flows so
a drift in the host's speed lands on every flow alike.

``BENCH_perf.json`` keeps every run as a raw ``(flow, repetition,
seconds)`` row, so the spread can be audited, plus each flow's median
and p90. A run regresses when a flow's median exceeds the baseline's
median by more than ``TOLERANCE`` times. Per-layer host time comes from
``perfbench/run.py --trace 1``, which reports ``layer.*.self_s``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: Checkout root: the flows run from here with ``PYTHONPATH=src``.
ROOT = Path(__file__).resolve().parents[3]

_TRAIN_CHAOS = """\
from repro.cli import main
from repro.runtime.recovery import SCENARIOS
for name in ("stock", "cancer1", "face", "mnist", "movielens"):
    main(["train", name])
for scenario in SCENARIOS:
    main(["chaos", "mnist", "--scenario", scenario])
"""

#: Interpreter arguments of each end-to-end flow; the train and chaos
#: flows are the ones ``tests/golden/train_chaos.json`` pins.
FLOWS: Dict[str, Tuple[str, ...]] = {
    "run_all": ("-c", "from repro.bench.figures import run_all; run_all()"),
    "train_chaos": ("-c", _TRAIN_CHAOS),
    "tier1": ("-m", "pytest", "-x", "-q"),
}

#: Fresh processes timed per flow.
REPEATS = 5

#: A flow regresses when its median exceeds the baseline's by this factor.
TOLERANCE = 2.0

#: A flow process still running after this long is killed and the run
#: fails; tier-1, the slowest flow, takes well under a minute.
TIMEOUT_S = 600


@dataclass
class PerfReport:
    """One harness run: a ``(flow, repetition, seconds)`` row per process."""

    runs: List[Tuple[str, int, float]]
    machine: Dict[str, object] = field(default_factory=dict)

    def flows(self) -> Dict[str, Dict[str, float]]:
        """Run count, median and p90 wall time per flow, in first-run
        order."""
        seconds: Dict[str, List[float]] = {}
        for flow, _, s in self.runs:
            seconds.setdefault(flow, []).append(s)
        return {
            flow: {
                "runs": len(xs),
                "median_s": round(float(np.median(xs)), 4),
                "p90_s": round(float(np.percentile(xs, 90)), 4),
            }
            for flow, xs in seconds.items()
        }

    def to_dict(self) -> Dict:
        return {
            "format_version": 4,
            "machine": self.machine,
            "runs": [
                {"flow": flow, "repetition": rep, "seconds": s}
                for flow, rep, s in self.runs
            ],
            "flows": self.flows(),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PerfReport":
        if payload.get("format_version") != 4:
            raise ValueError(
                f"perf payload format {payload.get('format_version')} is "
                "not 4; rewrite it with --update-baseline"
            )
        return cls(
            runs=[
                (row["flow"], row["repetition"], row["seconds"])
                for row in payload["runs"]
            ],
            machine=payload.get("machine", {}),
        )


def _time_flow(flow: str) -> float:
    """Wall seconds of one fresh process running ``flow``."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *FLOWS[flow]],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=TIMEOUT_S,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"perf flow {flow} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}"
        )
    return seconds


def run_perf() -> PerfReport:
    """Time every flow ``REPEATS`` times, repetitions interleaved."""
    runs = [
        (flow, rep, round(_time_flow(flow), 4))
        for rep in range(REPEATS)
        for flow in FLOWS
    ]
    return PerfReport(
        runs=runs,
        machine={
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
            "cpus": os.cpu_count(),
        },
    )


def write_report(report: PerfReport, path: Path):
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def load_report(path: Path) -> PerfReport:
    return PerfReport.from_dict(json.loads(Path(path).read_text()))


def compare_to_baseline(
    current: PerfReport, baseline: PerfReport
) -> List[str]:
    """Regression messages; empty means every median is within
    ``TOLERANCE`` times its baseline median."""
    base = baseline.flows()
    problems: List[str] = []
    for flow, stats in current.flows().items():
        if flow not in base:
            continue
        limit = base[flow]["median_s"] * TOLERANCE
        if stats["median_s"] > limit:
            problems.append(
                f"{flow}: median {stats['median_s']:.3f}s vs baseline "
                f"{base[flow]['median_s']:.3f}s (>{TOLERANCE:g}x)"
            )
    return problems


def render_report(report: PerfReport) -> str:
    """One line per flow: median, p90 and the number of runs."""
    lines = ["== perf: end-to-end wall time per fresh process (seconds) =="]
    lines.append(f"{'flow':<12}{'median':>9}{'p90':>9}{'runs':>6}")
    for flow, stats in report.flows().items():
        lines.append(
            f"{flow:<12}{stats['median_s']:9.3f}{stats['p90_s']:9.3f}"
            f"{stats['runs']:6d}"
        )
    return "\n".join(lines)
