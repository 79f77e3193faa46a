"""Perf-regression harness: time the stack, gate against a baseline.

``python -m repro perf`` measures two things and writes them to
``BENCH_perf.json``:

* **Stage timings** — translate / plan / compile / simulate / epoch per
  benchmark, each measured with the artifact cache bypassed so the
  numbers track the *work*, not the cache.
* **Figure-sweep comparison** — a full Figure 7 + Figure 16 regeneration
  three ways: the serial uncached reference path, a cold-cache run (the
  first regeneration in a process), and a warm-cache run (the
  steady-state the cache exists for: every later regeneration in the
  process, and — with ``REPRO_CACHE_DIR`` — fresh processes too). The
  harness asserts all three produce bit-identical
  :class:`ExperimentResult` rows and records the speedups.

Comparing a run against a committed baseline flags any stage that got
more than ``tolerance`` times slower (and a warm-sweep speedup that
collapsed), so CI catches perf regressions the functional suite cannot.

A third leg (:func:`measure_quorum_sweep`) times a graceful-degradation
study — a quorum fraction x deadline grid on a 16-node straggler cluster
— on both the event-driven and the format-2 quorum-replay paths, asserts
every :class:`IterationTiming` is bit-identical between them, and
records the replay speedup.
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

#: The warm-cache sweep must stay at least this much faster than the
#: serial uncached path (the headline acceptance number is recorded in
#: the payload; the gate uses a CI-safe fraction of it).
MIN_WARM_SPEEDUP = 3.0


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
            "format_version": 1,
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
    """Per-benchmark wall time of each toolchain stage, cache bypassed.

    ``translate`` parses + translates the DSL program; ``plan`` runs the
    full design-space exploration; ``compile`` scalarises, maps, and
    schedules; ``simulate`` runs the vectorized MIMD timing model over a
    10k-sample mini-batch; ``epoch`` runs the event-driven cluster
    simulation for a 16-node epoch.
    """
    from ..core.stack import CosmicStack
    from ..core.system import CosmicSystem, platform_for
    from ..hw.accelerator import MimdTimingModel
    from ..hw.spec import XILINX_VU9P
    from ..ml.benchmarks import BENCHMARKS, benchmark
    from ..perf.cache import cache_disabled
    from ..planner import Planner

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
        with cache_disabled():
            timings = {
                "translate": _timeit(bench.translate, repeats),
                "plan": _timeit(
                    lambda: Planner(XILINX_VU9P).plan(
                        translation.dfg, 10_000, bench.density
                    ),
                    repeats,
                ),
                "compile": _timeit(
                    lambda: stack.compile(rows=2, columns=4), repeats
                ),
                "simulate": _timeit(
                    lambda: timing.run_batch(10_000), repeats
                ),
                "epoch": _timeit(lambda: system.epoch_seconds(), repeats),
            }
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
    """Regenerate Figure 7 + Figure 16 on the measured paths and compare.

    Four regenerations, each through the figures' one sweep path (a
    plain loop over the benchmarks): the uncached reference (cache
    bypassed — which also bypasses schedule replay, so the reference is
    pure event-driven simulation), a cold-cache run with schedule replay
    forced off, a cold-cache run with replay on (the shipping default:
    records each cluster schedule once, replays every other point), and
    a warm-cache run. Raises :class:`AssertionError` if any leg's rows
    diverge from the reference — the determinism contract of the cache
    and the replay engine. The payload keeps its ``serial_uncached_s``
    key for the reference leg, so committed baselines stay comparable.
    """
    from ..bench import figures
    from ..perf.cache import cache_disabled, get_cache
    from ..runtime.schedule import replay_disabled

    fig7_names = QUICK_BENCHES if quick else None

    def regenerate():
        return [figures.figure7(fig7_names), figures.figure16()]

    cache = get_cache()
    cache.clear()
    with cache_disabled():
        start = time.perf_counter()
        reference = regenerate()
        serial_uncached_s = time.perf_counter() - start
    cache.clear()
    with replay_disabled():
        start = time.perf_counter()
        cold_noreplay = regenerate()
        cold_noreplay_s = time.perf_counter() - start
    cache.clear()
    start = time.perf_counter()
    cold = regenerate()
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = regenerate()
    warm_s = time.perf_counter() - start

    expected = _result_payload(reference)
    if _result_payload(cold_noreplay) != expected:
        raise AssertionError(
            "cold-cache (replay off) rows diverge from serial uncached"
        )
    if _result_payload(cold) != expected:
        raise AssertionError(
            "cold-cache (replay on) rows diverge from serial uncached"
        )
    if _result_payload(warm) != expected:
        raise AssertionError("warm-cache rows diverge from serial uncached")

    return {
        "serial_uncached_s": round(serial_uncached_s, 6),
        "cold_noreplay_s": round(cold_noreplay_s, 6),
        "cold_cache_s": round(cold_s, 6),
        "warm_cache_s": round(warm_s, 6),
        "cold_speedup": round(serial_uncached_s / cold_s, 3),
        "warm_speedup": round(serial_uncached_s / warm_s, 3),
        "replay_speedup": round(cold_noreplay_s / cold_s, 3),
        "rows_identical": True,
    }


def measure_quorum_sweep(quick: bool = False) -> Dict[str, object]:
    """The quorum-study measurement leg: a fraction x deadline grid on a
    16-node straggler cluster, evaluated twice — full event-driven
    simulation (replay kill switch thrown) and the format-2 quorum
    replay path — and compared for bit-identity on every
    :class:`IterationTiming` field.

    This is the workload the replay engine was extended for: the grid
    shares one recorded schedule, so the replay leg pays one recording
    and re-times every (fraction, deadline) point on the booked arrival
    arrays. Raises :class:`AssertionError` if any point diverges, or if
    the replay leg never recorded a trace (a silently-disabled replayer
    would vacuously pass).
    """
    from ..perf.cache import get_cache
    from ..runtime import ClusterSimulator, ClusterSpec, QuorumConfig
    from ..runtime.schedule import replay_disabled

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

    cache = get_cache()
    cache.clear()
    with replay_disabled():
        start = time.perf_counter()
        event_rows = run_grid()
        event_s = time.perf_counter() - start
    cache.clear()
    start = time.perf_counter()
    replay_rows = run_grid()
    replay_s = time.perf_counter() - start

    traced = [k for (k, _) in cache._memory if k == "cluster-schedule"]
    if cache.enabled and not traced:
        raise AssertionError(
            "quorum sweep recorded no cluster-schedule trace; the "
            "replayer never engaged"
        )
    for rule, event, replayed in zip(grid, event_rows, replay_rows):
        if event != replayed:
            raise AssertionError(
                f"quorum replay diverges from event-driven simulation at "
                f"fraction={rule.fraction} deadline_s={rule.deadline_s}"
            )
    cache.clear()
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

    Regenerates from a cleared cache twice — once with the schedule
    replayer disabled (pure event-driven simulation) and once with it on
    — and also checks that the replay run actually recorded schedule
    traces (a silently-disabled replayer would vacuously pass). Returns
    a list of problems; empty means the smoke passed.
    """
    from ..bench import figures
    from ..perf.cache import get_cache
    from ..runtime.schedule import replay_disabled

    cache = get_cache()
    problems: List[str] = []
    cache.clear()
    with replay_disabled():
        off = [figures.figure7(names)]
    cache.clear()
    on = [figures.figure7(names)]
    if _result_payload(off) != _result_payload(on):
        problems.append(
            "Figure 7 rows differ between replay-off and replay-on runs"
        )
    traced = [k for (k, _) in cache._memory if k == "cluster-schedule"]
    if cache.enabled and not traced:
        problems.append(
            "replay-on run recorded no cluster-schedule traces; the "
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
    baseline *and* the baseline is above the noise floor. The warm-sweep
    speedup regresses when it falls below half the acceptance threshold
    (machines differ; collapsing to ~1x means the cache stopped working).
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
    warm = current.sweep.get("warm_speedup", 0.0)
    if warm and warm < MIN_WARM_SPEEDUP / 2:
        problems.append(
            f"figure-sweep warm-cache speedup collapsed to {warm:.2f}x "
            f"(acceptance {MIN_WARM_SPEEDUP:g}x, gate {MIN_WARM_SPEEDUP / 2:g}x)"
        )
    if not current.sweep.get("rows_identical", False):
        problems.append("figure-sweep rows are not identical across paths")
    if current.quorum and not current.quorum.get("rows_identical", False):
        problems.append(
            "quorum-sweep rows are not identical between the replay and "
            "event-driven paths"
        )
    return problems


def render_report(report: PerfReport) -> str:
    """Human-readable table of the payload."""
    lines = ["== perf: toolchain stage timings (seconds, cache bypassed) =="]
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
    lines.append("== perf: Figure 7 + Figure 16 regeneration ==")
    lines.append(
        f"  serial uncached  {sweep['serial_uncached_s']:.3f}s"
    )
    if "cold_noreplay_s" in sweep:
        lines.append(
            f"  cold, no replay  {sweep['cold_noreplay_s']:.3f}s"
        )
    lines.append(
        f"  cold cache       {sweep['cold_cache_s']:.3f}s"
        f"  ({sweep['cold_speedup']:.2f}x)"
    )
    lines.append(
        f"  warm cache       {sweep['warm_cache_s']:.3f}s"
        f"  ({sweep['warm_speedup']:.2f}x)"
    )
    if "replay_speedup" in sweep:
        lines.append(
            f"  replay speedup   {sweep['replay_speedup']:.2f}x"
            "  (cold regeneration, schedule replay off -> on)"
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
