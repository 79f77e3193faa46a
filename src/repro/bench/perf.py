"""Perf-regression harness: time the stack, gate against a baseline.

``python -m repro perf`` times each toolchain stage per benchmark —
translate / plan / compile / simulate / epoch — and writes the timings
to ``BENCH_perf.json``. Each stage times the work itself rather than a
memo hit: the translator and the Planner's DSE are called below their
memos (the DSE after clearing the profiles and sizes it keeps on the
graph), and the epoch starts from an empty schedule table.

Comparing a run against a committed baseline flags any stage that got
more than ``tolerance`` times slower, so CI catches perf regressions the
functional suite cannot.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Stages timed per benchmark, in pipeline order.
STAGES = ("translate", "plan", "compile", "simulate", "epoch")

#: Benchmarks the ``--quick`` CI gate times (small, medium, large model).
QUICK_BENCHES = ("stock", "movielens", "mnist")

#: Timings below this floor are noise on any machine; the comparator
#: never flags a stage whose baseline is under it.
FLOOR_SECONDS = 0.005


@dataclass
class PerfReport:
    """One harness run: stage timings per benchmark."""

    stages: Dict[str, Dict[str, float]]
    quick: bool
    machine: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "format_version": 3,
            "quick": self.quick,
            "machine": self.machine,
            "stages": self.stages,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PerfReport":
        return cls(
            stages=payload["stages"],
            quick=payload.get("quick", False),
            machine=payload.get("machine", {}),
        )


def _timeit(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time — the usual perf-counter practice:
    the minimum is the least noisy estimator of the true cost.

    The cyclic collector is paused while the clock runs (as
    :mod:`timeit` does): a gen-2 collection scheduled by allocations in
    *earlier* stages would otherwise land inside whichever sample runs
    next and charge unrelated garbage to that stage.
    """
    best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def measure_stages(
    names: Optional[Iterable[str]] = None, repeats: int = 2
) -> Dict[str, Dict[str, float]]:
    """Per-benchmark wall time of each toolchain stage's own work.

    ``translate`` parses + translates the DSL program; ``plan`` runs the
    full design-space exploration from a graph with no planner memos; ``compile`` scalarises, maps, and
    schedules; ``simulate`` runs the MIMD timing model over a
    10k-sample mini-batch; ``epoch`` times a 16-node epoch of cluster
    iterations, clearing the schedule table inside each timed call so it
    derives and replays the schedule rather than hitting the memo.
    """
    from ..core.stack import CosmicStack
    from ..core.system import CosmicSystem, platform_for
    from ..dfg.translate import translate
    from ..dsl.parser import parse
    from ..hw.accelerator import MimdTimingModel
    from ..hw.spec import XILINX_VU9P
    from ..ml.benchmarks import BENCHMARKS, benchmark
    from ..planner.plan import Planner
    from ..runtime import schedule

    benches = (
        list(BENCHMARKS) if names is None else [benchmark(n) for n in names]
    )
    out: Dict[str, Dict[str, float]] = {}
    for bench in benches:
        translation = bench.translate()
        plan = Planner(XILINX_VU9P).plan(
            translation.dfg,
            10_000,
            bench.density,
            stream_words=bench.bytes_per_sample() / XILINX_VU9P.word_bytes,
        )
        timing = MimdTimingModel.for_plan(plan)
        stack = CosmicStack.from_benchmark(bench)
        system = CosmicSystem(
            bench, platform_for(bench, "fpga"), nodes=16
        )
        source = bench.source()
        timings = {
            "translate": _timeit(
                lambda: translate(parse(source), bench.dims), repeats
            ),
            "plan": _timeit(
                lambda: _plan_cold(translation.dfg, bench.density), repeats
            ),
            "compile": _timeit(
                lambda: stack.compile(rows=2, columns=4), repeats
            ),
            "simulate": _timeit(lambda: timing.run_batch(10_000), repeats),
            "epoch": _timeit(
                lambda: (schedule.TRACES.clear(), system.epoch_seconds()),
                repeats,
            ),
        }
        out[bench.name] = {k: round(v, 6) for k, v in timings.items()}
    return out


def _plan_cold(dfg, density):
    """The full DSE of one graph on the VU9P, below every memo the
    Planner keeps on the graph: its plans (by calling below
    :meth:`~repro.planner.plan.Planner.plan`), and its cost profiles,
    sizes and stream words (cleared first), so every repeat costs and
    times each design point afresh."""
    from ..hw.spec import XILINX_VU9P
    from ..planner.plan import Planner

    for memo in ("_profiles", "_sizes", "_stream_words"):
        dfg.__dict__.pop(memo, None)
    return Planner(XILINX_VU9P)._plan_uncached(dfg, 10_000, density, None)


def _result_payload(results: Sequence) -> str:
    """Canonical JSON of every row and summary — the bit-identity probe."""
    return json.dumps(
        [(r.experiment, r.rows, r.summary) for r in results],
        default=str,
        sort_keys=True,
    )


def run_perf(
    names: Optional[Iterable[str]] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
) -> PerfReport:
    """The full harness: the stage matrix."""
    if names is None and quick:
        names = QUICK_BENCHES
    if repeats is None:
        repeats = 1 if quick else 2
    return PerfReport(
        stages=measure_stages(names, repeats=repeats),
        quick=quick,
        machine={
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
    )


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------


def write_report(report: PerfReport, path: Path):
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def load_report(path: Path) -> PerfReport:
    return PerfReport.from_dict(json.loads(Path(path).read_text()))


def compare_to_baseline(
    current: PerfReport, baseline: PerfReport, tolerance: float = 2.0
) -> List[str]:
    """Regression messages; empty means the run is within tolerance.

    A stage regresses when it is ``tolerance`` times slower than the
    baseline *and* the baseline is above the noise floor.
    """
    problems: List[str] = []
    for bench, stages in current.stages.items():
        base_stages = baseline.stages.get(bench)
        if base_stages is None:
            continue
        for stage, seconds in stages.items():
            base = base_stages.get(stage)
            if base is None or base < FLOOR_SECONDS:
                continue
            if seconds > base * tolerance:
                problems.append(
                    f"{bench}/{stage}: {seconds:.4f}s vs baseline "
                    f"{base:.4f}s (>{tolerance:g}x)"
                )
    return problems


def render_report(report: PerfReport) -> str:
    """Human-readable table of the payload."""
    lines = ["== perf: toolchain stage timings (seconds, below the memos) =="]
    header = "bench".ljust(12) + "".join(s.rjust(11) for s in STAGES)
    lines.append(header)
    lines.append("-" * len(header))
    for bench, stages in report.stages.items():
        lines.append(
            bench.ljust(12)
            + "".join(f"{stages.get(s, 0.0):11.4f}" for s in STAGES)
        )
    return "\n".join(lines)
