"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For each workload it runs one short end-to-end run and one traced run and
checks that the result line is well formed: every metric named in
BENCHMARK.json is present, every name matches ``[A-Za-z0-9_.-]+`` and
carries a unit, and ``error_rate`` (failed / attempted) is 0. It also
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and perfbench/. Exits 1 on any
problem.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_result(label, proc, expected_names):
    problems = []
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(
            f"{label}: error_rate {result['failed']}/{result['attempted']}"
        )
    if set(result["metrics"]) != expected_names:
        problems.append(
            f"{label}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ expected_names)}"
        )
    for name, metric in result["metrics"].items():
        if not NAME.fullmatch(name) or not metric.get("unit"):
            problems.append(f"{label}: bad metric {name!r}: {metric}")
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")
    return problems


def check_bare_directory():
    """Without the program's sources the benchmark must fail cleanly."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "codesign", "--seed", "1", "--seconds",
                    "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: benchmark did not refuse to run"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in (("0", end_to_end), ("1", per_layer)):
            label = f"{workload} --trace {trace}"
            proc = run(["--workload", workload, "--seed", "1",
                        "--seconds", "1", "--trace", trace])
            found = check_result(label, proc, names)
            print(f"{label}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(f"  - {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
