"""One benchmark interpreter: set up, signal ready, run ops, report.

Started by ``run.py`` (never in parallel with another) with one JSON
argument::

    {"root": ..., "workload": ..., "seed": ..., "stream": ...,
     "count": <ops to run>, "trace": false, "trace_dir": ...}

Protocol on stdout: a ``READY`` line once set-up is done (``run.py`` times
set-up from process start to that line), then one JSON result line. The
program's own prints go to stderr.

Ops run in segments of about ``SEGMENT_S`` seconds with a host-speed probe
(``calibrate.py``) before and after each; an op's latency is its host time
scaled by the probes around its segment (``raw_latencies`` keeps the
unscaled times).
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
MAX_REPORTED_ERRORS = 5

#: Seconds of op time between host-speed probes (``calibrate.py``).
SEGMENT_S = 0.25


def _import_repro(root: Path):
    """Import ``repro`` from the checkout's sources, nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def main(cfg: dict) -> dict:
    root = Path(cfg["root"])
    protocol = sys.stdout
    sys.path.insert(0, str(HERE))
    with contextlib.redirect_stdout(sys.stderr):
        _import_repro(root)
        import calibrate
        import spans
        import workloads

        tracer = None
        if cfg["trace"]:
            tracer = spans.Tracer()
            spans.install(tracer)
            setup_span = tracer.begin("setup")
        workload = workloads.WORKLOADS[cfg["workload"]]
        state = workload.setup(cfg["seed"])
        if tracer is not None:
            tracer.end(setup_span)
        expected = json.loads((HERE / "digests.json").read_text()).get(
            workload.name, {}
        )
        op_digests = []
        if expected.get("seed") == cfg["seed"]:
            op_digests = expected["streams"].get(str(cfg["stream"]), [])
        ops = workload.ops(cfg["seed"], cfg["stream"])

    print("READY", file=protocol, flush=True)

    latencies, raw, errors = [], [], []
    probes = [calibrate.probe()]
    segment = []  # raw latencies since the last probe
    failed = 0

    def close_segment():
        probes.append(calibrate.probe())
        scale = calibrate.factor(probes[-2], probes[-1])
        latencies.extend(x * scale for x in segment)
        raw.extend(segment)
        segment.clear()

    with contextlib.redirect_stdout(sys.stderr):
        for index, op in zip(range(cfg["count"]), ops):
            span = tracer.begin("op") if tracer is not None else None
            t0 = time.perf_counter_ns()
            try:
                output = workload.run(state, op)
                problem = None
            except Exception:
                output = None
                problem = traceback.format_exc()
            segment.append((time.perf_counter_ns() - t0) / 1e9)
            if span is not None:
                tracer.end(span)
            if sum(segment) >= SEGMENT_S:
                close_segment()
            if problem is None:
                problem = workload.check(state, op, output, expected)
            if problem is None and index < len(op_digests):
                got = workload.digest(output)
                if got != op_digests[index]:
                    problem = (
                        f"op {index} digest {got} != committed "
                        f"{op_digests[index]}"
                    )
            if problem is not None:
                failed += 1
                if len(errors) < MAX_REPORTED_ERRORS:
                    errors.append(f"{json.dumps(op)}: {problem}")
        if segment:
            close_segment()

    result = {
        "latencies": latencies,
        "raw_latencies": raw,
        "probes": probes,
        "failed": failed,
        "errors": errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out_dir = Path(cfg["trace_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{workload.name}-seed{cfg['seed']}"
        tracer.write_chrome_trace(out_dir / f"trace-{stem}.json", stem)
        table = spans.layer_table(tracer)
        (out_dir / f"layers-{stem}.txt").write_text(table + "\n")
        result["layers"] = spans.layer_metrics(tracer)
        result["table"] = table
        result["trace_files"] = [
            str(out_dir / f"trace-{stem}.json"),
            str(out_dir / f"layers-{stem}.txt"),
        ]
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
