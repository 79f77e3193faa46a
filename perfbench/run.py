"""The repository benchmark: one workload, end to end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-regen --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics: it starts fresh
interpreters one after another (``worker.py``), times each one's set-up,
runs the workload's ops in a closed loop with one client, and checks every
output. Every time is host time scaled to a reference host speed by
probes taken next to it (``calibrate.py``), because a shared host's speed
drifts by tens of percent within a run; the unscaled figures are printed
in the notes. ``--trace 1`` runs a fixed, seed-determined list of ops
twice, once untraced and once traced, and reports the per-layer metrics
and the tracing overhead; it writes a Chrome trace-event file and the
per-layer table under ``.perfbench/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``error_rate`` is ``failed / attempted``; it is
printed above that line with the other end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import INTERPRETERS, WORKLOADS

HERE = Path(__file__).resolve().parent

#: Blocks per second of --seconds: the rate at which a run, set-up
#: included, completed blocks on the reference machine (2-vCPU x86_64
#: VM, Python 3.11). A run is a fixed number of blocks derived from
#: --seconds, so every commit runs exactly the same ops.
BLOCKS_PER_SECOND = {
    "paper-regen": 0.7,
    "cluster-study": 2.6,
    "train-chaos": 0.6,
    "codesign": 1.0,
}

#: Seconds of the workload's own ops run, unmeasured, before a timed run:
#: the reference VM runs ~30% slower for several seconds after it idles.
WARMUP_SECONDS = 5.0

#: Ops in the fixed list a traced run executes.
TRACE_OPS = {"paper-regen": 14, "cluster-study": 300, "train-chaos": 40,
             "codesign": 40}

#: Seconds an interpreter may take beyond --seconds before it is killed.
CHILD_GRACE_S = 60.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to an op failing)."""


def run_child(root: Path, cfg: dict, timeout_s: float):
    """Start one worker interpreter; return (setup_s, result).

    ``setup_s`` is scaled to the reference host speed by a probe taken
    here just before the start and the worker's first probe, taken just
    after it is ready."""
    cfg = dict(cfg, root=str(root), trace_dir=str(root / ".perfbench"))
    before = calibrate.probe()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=root,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout_s):
                raise subprocess.TimeoutExpired(proc.args, timeout_s)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise BenchmarkError(
                f"{cfg['workload']} interpreter failed during set-up"
            )
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(
            f"{cfg['workload']} interpreter ran past {timeout_s:.0f}s"
        ) from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchmarkError(
            f"{cfg['workload']} interpreter exited with {proc.returncode}"
        )
    result = json.loads(out.strip().splitlines()[-1])
    return setup_s * calibrate.factor(before, result["probes"][0]), result


def timed_run(root: Path, workload: str, seed: int, seconds: float):
    """End-to-end metrics over several fresh interpreters."""
    block = WORKLOADS[workload].block
    blocks = max(2, round(seconds * BLOCKS_PER_SECOND[workload]))
    interpreters = blocks if workload == "paper-regen" else INTERPRETERS
    base = {"workload": workload, "seed": seed, "trace": False}
    warmup = max(1, round(WARMUP_SECONDS * BLOCKS_PER_SECOND[workload]))
    run_child(root, dict(base, stream=interpreters, count=block * warmup),
              CHILD_GRACE_S)
    setups, results = [], []
    for stream in range(interpreters):
        count = block * len(range(stream, blocks, interpreters))
        if not count:
            continue
        setup_s, result = run_child(
            root, dict(base, stream=stream, count=count),
            CHILD_GRACE_S + seconds,
        )
        setups.append(setup_s)
        results.append(result)

    latencies = sorted(x for r in results for x in r["latencies"])
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    attempted = len(latencies)
    failed = sum(r["failed"] for r in results)
    metrics = {
        "throughput_ops_s": (attempted / sum(latencies), "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (
            statistics.median(r["rss_mb"] for r in results), "MiB"
        ),
    }
    raw = sorted(x for r in results for x in r["raw_latencies"])
    raw_p90 = statistics.quantiles(raw, n=10, method="inclusive")[8]
    probes = [p for r in results for p in r["probes"]]
    notes = {
        "throughput_ops_s": (
            f"{blocks} blocks of {block} ops; unscaled "
            f"{attempted / sum(raw):.6g}"
        ),
        "op_p50_ms": f"unscaled {statistics.median(raw) * 1e3:.6g}",
        "op_p90_ms": (
            f"{attempted} ops, {attempted // 10} beyond p90; unscaled "
            f"{raw_p90 * 1e3:.6g}"
        ),
        "setup_s": f"median of {len(setups)} interpreters",
        "peak_rss_mb": f"median of {len(results)} interpreters",
        "probe_ms": (
            f"median {statistics.median(probes) * 1e3:.4g}, range "
            f"{min(probes) * 1e3:.4g}-{max(probes) * 1e3:.4g} over "
            f"{len(probes)} probes; reference "
            f"{calibrate.REFERENCE_S * 1e3:.4g}"
        ),
    }
    return attempted, failed, metrics, notes, results, {}


def traced_run(root: Path, workload: str, seed: int):
    """Per-layer metrics from a traced interpreter, plus its overhead
    against an untraced interpreter running the same ops."""
    cfg = {"workload": workload, "seed": seed, "stream": 0,
           "count": TRACE_OPS[workload]}
    _, plain = run_child(root, dict(cfg, trace=False), CHILD_GRACE_S * 2)
    _, traced = run_child(root, dict(cfg, trace=True), CHILD_GRACE_S * 2)
    results = [plain, traced]
    attempted = sum(len(r["latencies"]) for r in results)
    failed = sum(r["failed"] for r in results)
    units = layer_units()
    layers = dict(traced["layers"])
    layers["trace.overhead"] = (
        sum(traced["latencies"]) / sum(plain["latencies"]) - 1.0
    )
    metrics = {name: (layers[name], unit) for name, unit in units.items()}
    notes = {"trace.overhead": (
        f"traced {sum(traced['latencies']):.3f}s vs untraced "
        f"{sum(plain['latencies']):.3f}s of op time"
    )}
    return attempted, failed, metrics, notes, results, traced


def layer_units():
    """Per-layer metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {root / 'src'}; run from "
            "the root of a checkout",
            file=sys.stderr,
        )
        return 2
    try:
        if args.trace:
            run = traced_run(root, args.workload, args.seed)
        else:
            run = timed_run(root, args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, metrics, notes, results, traced = run

    for result in results:
        for error in result["errors"]:
            print(f"FAILED {error}", file=sys.stderr)
    if traced:
        print(traced["table"])
        print("wrote " + ", ".join(traced["trace_files"]))
    print(f"== {args.workload} seed={args.seed} "
          f"{'traced' if args.trace else 'end to end'} ==")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {value:14.6g} {unit}{note}")
    print(f"{'error_rate':32s} {failed / attempted:14.6g} fraction"
          f"  ({failed} of {attempted} ops)")
    if "probe_ms" in notes:
        print(f"{'host-speed probe':32s} {notes['probe_ms']} ms")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
