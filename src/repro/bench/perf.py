"""Perf-regression harness: time the stack, gate against a baseline.

``python -m repro perf`` measures three things and writes them to
``BENCH_perf.json``:

* **Stage timings** — translate / plan / compile / simulate / epoch per
  benchmark, each timing the work itself rather than a memo hit: the
  translator and the Planner's DSE are called below their memos, and
  the epoch runs the event-driven cluster simulation.
* **Figure-sweep comparison** — a full Figure 7 + Figure 16 regeneration
  with schedule replay off and on, each after one untimed warm-up
  regeneration and from an empty schedule table. The harness asserts
  both produce bit-identical :class:`ExperimentResult` rows and records
  the replay speedup.
* **Quorum sweep** (:func:`measure_quorum_sweep`) — a graceful-degradation
  study, a quorum fraction x deadline grid on a 16-node straggler
  cluster, on both the event-driven and the quorum-replay paths; every
  :class:`IterationTiming` must be bit-identical between them.

Comparing a run against a committed baseline flags any stage that got
more than ``tolerance`` times slower, and any leg whose rows diverged,
so CI catches perf regressions the functional suite cannot.
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
    """One harness run: stage timings + sweep comparisons."""

    stages: Dict[str, Dict[str, float]]
    sweep: Dict[str, float]
    quick: bool
    machine: Dict[str, object] = field(default_factory=dict)
    #: Quorum-sweep leg (:func:`measure_quorum_sweep`); empty when the
    #: leg was skipped (baselines written before it existed).
    quorum: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "format_version": 2,
            "quick": self.quick,
            "machine": self.machine,
            "stages": self.stages,
            "figure_sweep": self.sweep,
            "quorum_sweep": self.quorum,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PerfReport":
        return cls(
            stages=payload["stages"],
            sweep=payload["figure_sweep"],
            quick=payload.get("quick", False),
            machine=payload.get("machine", {}),
            quorum=payload.get("quorum_sweep", {}),
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
    full design-space exploration; ``compile`` scalarises, maps, and
    schedules; ``simulate`` runs the vectorized MIMD timing model over a
    10k-sample mini-batch; ``epoch`` runs the event-driven cluster
    simulation for a 16-node epoch.
    """
    from ..core.stack import CosmicStack
    from ..core.system import CosmicSystem, platform_for
    from ..dfg.translate import translate
    from ..dsl import parse
    from ..hw.accelerator import MimdTimingModel
    from ..hw.spec import XILINX_VU9P
    from ..ml.benchmarks import BENCHMARKS, benchmark
    from ..planner import Planner
    from ..runtime.schedule import replay_disabled

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
                lambda: Planner(XILINX_VU9P)._plan_uncached(
                    translation.dfg, 10_000, bench.density, None
                ),
                repeats,
            ),
            "compile": _timeit(
                lambda: stack.compile(rows=2, columns=4), repeats
            ),
            "simulate": _timeit(lambda: timing.run_batch(10_000), repeats),
        }
        with replay_disabled():
            timings["epoch"] = _timeit(system.epoch_seconds, repeats)
        out[bench.name] = {k: round(v, 6) for k, v in timings.items()}
    return out


def _result_payload(results: Sequence) -> str:
    """Canonical JSON of every row and summary — the bit-identity probe."""
    return json.dumps(
        [(r.experiment, r.rows, r.summary) for r in results],
        default=str,
        sort_keys=True,
    )


def measure_figure_sweep(quick: bool = False) -> Dict[str, float]:
    """Regenerate Figure 7 + Figure 16 with schedule replay off and on.

    One untimed warm-up regeneration first, so both timed legs share the
    same memoised translations and plans; then each leg starts from an
    empty schedule table. Raises :class:`AssertionError` if the two legs'
    rows diverge — the determinism contract of the replay engine.
    """
    from ..bench import figures
    from ..runtime import schedule

    fig7_names = QUICK_BENCHES if quick else None

    def regenerate():
        return [figures.figure7(fig7_names), figures.figure16()]

    regenerate()
    schedule.TRACES.clear()
    with schedule.replay_disabled():
        start = time.perf_counter()
        replay_off = regenerate()
        replay_off_s = time.perf_counter() - start
    schedule.TRACES.clear()
    start = time.perf_counter()
    replay_on = regenerate()
    replay_on_s = time.perf_counter() - start

    if _result_payload(replay_on) != _result_payload(replay_off):
        raise AssertionError(
            "figure rows diverge between schedule replay off and on"
        )
    return {
        "replay_off_s": round(replay_off_s, 6),
        "replay_on_s": round(replay_on_s, 6),
        "replay_speedup": round(replay_off_s / replay_on_s, 3),
        "rows_identical": True,
    }


def measure_quorum_sweep(quick: bool = False) -> Dict[str, object]:
    """The quorum-study measurement leg: a fraction x deadline grid on a
    16-node straggler cluster, evaluated twice — full event-driven
    simulation (replay kill switch thrown) and the quorum replay path —
    and compared for bit-identity on every
    :class:`IterationTiming` field.

    This is the workload the replay engine was extended for: the grid
    shares one schedule trace, built once from the topology, and the
    replay leg re-times every (fraction, deadline) point on the booked
    arrival arrays. Raises :class:`AssertionError` if any point
    diverges, or if the replay leg never built a trace (a
    silently-disabled replayer would vacuously pass).
    """
    from ..runtime import ClusterSimulator, ClusterSpec, QuorumConfig
    from ..runtime import schedule

    fractions = (0.5, 1.0) if quick else (0.5, 0.75, 0.9, 1.0)
    deadlines = (1e-3, 20e-3) if quick else (1e-3, 5e-3, 20e-3, 80e-3)
    nodes = 16
    # Deterministic straggler spread: node n computes (1 + n%5) ms, so
    # every window has early closers and genuine deadline casualties.
    compute = [1e-3 * (1 + n % 5) for n in range(nodes)]
    sim = ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=4),
        lambda node_id, samples: compute[node_id],
        update_bytes=1_000_000,
    )
    grid = [
        QuorumConfig(fraction=f, deadline_s=d)
        for f in fractions
        for d in deadlines
    ]

    def run_grid():
        return [sim.iteration(16_000, quorum=rule) for rule in grid]

    with schedule.replay_disabled():
        start = time.perf_counter()
        event_rows = run_grid()
        event_s = time.perf_counter() - start
    schedule.TRACES.clear()
    start = time.perf_counter()
    replay_rows = run_grid()
    replay_s = time.perf_counter() - start

    if not schedule.TRACES:
        raise AssertionError(
            "quorum sweep built no schedule trace; the "
            "replayer never engaged"
        )
    for rule, event, replayed in zip(grid, event_rows, replay_rows):
        if event != replayed:
            raise AssertionError(
                f"quorum replay diverges from event-driven simulation at "
                f"fraction={rule.fraction} deadline_s={rule.deadline_s}"
            )
    return {
        "points": len(grid),
        "fractions": list(fractions),
        "deadlines_s": list(deadlines),
        "event_driven_s": round(event_s, 6),
        "replay_s": round(replay_s, 6),
        "speedup": round(event_s / replay_s, 3),
        "rows_identical": True,
    }


def run_replay_smoke(
    names: Optional[Sequence[str]] = QUICK_BENCHES,
) -> List[str]:
    """CI probe: Figure 7 must be bit-identical with replay off and on.

    Regenerates twice — once with the schedule replayer disabled (pure
    event-driven simulation) and once with it on, from an empty schedule
    table — and also checks that the replay run actually built schedule
    traces (a silently-disabled replayer would vacuously pass).
    Returns a list of problems; empty means the smoke passed.
    """
    from ..bench import figures
    from ..runtime import schedule

    problems: List[str] = []
    with schedule.replay_disabled():
        off = [figures.figure7(names)]
    schedule.TRACES.clear()
    on = [figures.figure7(names)]
    if _result_payload(off) != _result_payload(on):
        problems.append(
            "Figure 7 rows differ between replay-off and replay-on runs"
        )
    if not schedule.TRACES:
        problems.append(
            "replay-on run built no schedule traces; the "
            "replayer never engaged"
        )
    return problems


def run_perf(
    names: Optional[Iterable[str]] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
) -> PerfReport:
    """The full harness: stage matrix + figure-sweep comparison."""
    if names is None and quick:
        names = QUICK_BENCHES
    if repeats is None:
        repeats = 1 if quick else 2
    return PerfReport(
        stages=measure_stages(names, repeats=repeats),
        sweep=measure_figure_sweep(quick=quick),
        quorum=measure_quorum_sweep(quick=quick),
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
    baseline *and* the baseline is above the noise floor; a leg regresses
    when its rows diverged.
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
    if not current.sweep.get("rows_identical", False):
        problems.append(
            "figure-sweep rows are not identical with replay off and on"
        )
    if current.quorum and not current.quorum.get("rows_identical", False):
        problems.append(
            "quorum-sweep rows are not identical between the replay and "
            "event-driven paths"
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
    sweep = report.sweep
    lines.append("")
    lines.append("== perf: Figure 7 + Figure 16 regeneration (warmed up) ==")
    lines.append(f"  replay off       {sweep['replay_off_s']:.3f}s")
    lines.append(
        f"  replay on        {sweep['replay_on_s']:.3f}s"
        f"  ({sweep['replay_speedup']:.2f}x)"
    )
    lines.append(
        "  rows identical   "
        + ("yes" if sweep.get("rows_identical") else "NO")
    )
    quorum = report.quorum
    if quorum:
        lines.append("")
        lines.append("== perf: quorum-window sweep (fraction x deadline) ==")
        lines.append(
            f"  grid             {quorum['points']} points "
            f"({len(quorum['fractions'])} fractions x "
            f"{len(quorum['deadlines_s'])} deadlines)"
        )
        lines.append(
            f"  event-driven     {quorum['event_driven_s']:.3f}s"
        )
        lines.append(
            f"  quorum replay    {quorum['replay_s']:.3f}s"
            f"  ({quorum['speedup']:.2f}x)"
        )
        lines.append(
            "  rows identical   "
            + ("yes" if quorum.get("rows_identical") else "NO")
        )
    return "\n".join(lines)
