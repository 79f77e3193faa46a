"""Outside-in tracing of the CoSMIC stack: spans and counters in memory.

The tracer wraps public functions and methods of ``repro`` from the
benchmark's side; nothing under ``src/`` is edited. Each wrapped call is a
span (name, start, end, parent). A span's self time is its duration minus
the part of that interval its child spans cover. Worker threads of the
sweep executor start their spans with an empty stack; since the benchmark
has one caller, such a span is parented to the innermost span open in the
main thread, which is blocked waiting on it.

Self times are host time per thread, so on a multi-threaded sweep the
layer totals can exceed the op's wall time.

Probes of ``repro.perf`` are guarded: if the module is gone, its metrics
report as absent (zero, marked ``absent`` in the table).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: Layers of the stack, in pipeline order (the modules of ``repro``).
LAYERS = (
    "dsl", "dfg", "ml", "planner", "compiler", "circuit", "hw",
    "runtime", "core", "baselines", "perf",
)

#: Finished spans kept for the timeline file; counters never stop.
SPAN_CAP = 100_000

#: Which layer does the work behind each artifact-cache kind. The thunk a
#: cache miss runs is charged to that layer, not to the cache.
_CACHE_KIND_OWNER = {
    "translate": "dfg.translate",
    "plan": "planner.plan",
    "sweep": "planner.sweep",
    "compile": "compiler.compile_thread",
    "iteration": "runtime.iteration",
    "cluster-schedule": "runtime.iteration",
}


def _union_ns(intervals) -> int:
    """Total length covered by possibly overlapping (start, end) pairs."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Span stack per thread, per-name counters, a capped span log."""

    def __init__(self):
        self._local = threading.local()
        self._main_stack: List[list] = []
        self._local.stack = self._main_stack
        self._local.stats = {}
        self._thread_stats = [self._local.stats]
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.distinct: Dict[str, set] = {}
        self.cache_hits = 0
        self.iterations: List[tuple] = []
        self.absent: List[str] = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str, counted: bool = True) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.stats = {}
            with self._lock:
                self._thread_stats.append(self._local.stats)
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = [name, next(self._ids), parent, time.perf_counter_ns(), [],
                counted]
        stack.append(span)
        return span

    def end(self, span: list):
        end = time.perf_counter_ns()
        self._local.stack.pop()
        name, sid, parent, start, children, counted = span
        covered = _union_ns(children) if children else 0
        stats = self._local.stats.get(name)
        if stats is None:
            stats = self._local.stats[name] = [0, 0]
        if counted:
            stats[0] += 1
        stats[1] += end - start - covered
        if parent is not None:
            parent[4].append((start, end))
        if len(self.spans) < SPAN_CAP:
            self.spans.append((
                name, sid, parent[1] if parent is not None else 0,
                start, end, threading.get_ident(),
            ))
        else:
            self.spans_dropped += 1

    def wrap(
        self,
        fn: Callable,
        name: str,
        key: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``; ``key(args, kwargs, result)``
        feeds the distinct-input count, ``on_result`` sees every result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if key is not None:
                tracer.distinct.setdefault(name, set()).add(
                    key(args, kwargs, result)
                )
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- results -----------------------------------------------------------
    def totals(self) -> Dict[str, List[int]]:
        """name -> [calls, self_ns], merged over threads."""
        merged: Dict[str, List[int]] = {}
        with self._lock:
            per_thread = list(self._thread_stats)
        for stats in per_thread:
            for name, (calls, self_ns) in stats.items():
                slot = merged.setdefault(name, [0, 0])
                slot[0] += calls
                slot[1] += self_ns
        return merged

    def write_chrome_trace(self, path, label: str):
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        origin = min((s[3] for s in self.spans), default=0)
        tids: Dict[int, int] = {}
        events = []
        for name, sid, parent, start, end, ident in self.spans:
            tid = tids.setdefault(ident, len(tids) + 1)
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": tid,
                "args": {"id": sid, "parent": parent},
            })
        events.append({
            "name": "process_name", "ph": "M", "pid": 1,
            "args": {"name": label},
        })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"spans_dropped": self.spans_dropped}},
                      fh)


# ---------------------------------------------------------------------------
# Probes: which public functions of repro are wrapped, under which names.
# ---------------------------------------------------------------------------


def _module(name: str):
    importlib.import_module(name)
    return sys.modules[name]


def _replace_everywhere(original, replacement):
    """Rebind every ``repro`` module global that names ``original``
    (``from x import f`` copies a reference into each importer)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _patch_function(tracer, module, attr, name, **kw):
    original = getattr(_module(module), attr)
    _replace_everywhere(original, tracer.wrap(original, name, **kw))


def _patch_method(tracer, module, cls, attr, name, **kw):
    owner = getattr(_module(module), cls)
    setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, **kw))


_DFG_SIGNATURES: Dict[int, tuple] = {}


def _dfg_signature(dfg) -> int:
    """Content hash of a DFG's operations and extents, memoised per
    object (the object is kept alive so its id cannot be reused)."""
    entry = _DFG_SIGNATURES.get(id(dfg))
    if entry is None or entry[0] is not dfg:
        nodes = tuple(
            (n.op, tuple(n.inputs), n.output, tuple(n.reduce_axes))
            for n in dfg.nodes.values()
        )
        entry = (dfg, hash((nodes, tuple(sorted(dfg.extents.items())))))
        _DFG_SIGNATURES[id(dfg)] = entry
    return entry[1]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _plan_key(args, kwargs, result):
    planner = args[0]
    density = _arg(args, kwargs, 3, "density") or {}
    return (
        getattr(planner, "_chip", None),
        getattr(planner, "_params", None),
        _dfg_signature(_arg(args, kwargs, 1, "dfg")),
        _arg(args, kwargs, 2, "minibatch", 10_000),
        tuple(sorted(density.items())),
        _arg(args, kwargs, 4, "stream_words"),
    )


def _iteration_key(args, kwargs, timing):
    """Distinct simulated inputs; the per-node compute times enter through
    their mean and maximum, which the timing reports."""
    sim = args[0]
    return (
        sim.spec,
        tuple(sim.topology.roles),
        sim.update_bytes,
        _arg(args, kwargs, 2, "quorum"),
        _arg(args, kwargs, 1, "batch_samples"),
        timing.compute_s,
        timing.compute_max_s,
        bool(sim.faults),
    )


def install(tracer: Tracer):
    """Wrap every probed function. Call once, after ``import repro`` and
    before the workload prepares anything."""

    def record_timing(timing):
        tracer.iterations.append((
            timing.total_s, timing.compute_s, timing.network_s,
            timing.aggregation_busy_s, timing.wire_bytes,
            len(timing.dropped),
        ))

    _patch_function(tracer, "repro.dsl.parser", "parse", "dsl.parse")
    _patch_function(tracer, "repro.dfg.translate", "translate",
                    "dfg.translate")
    _patch_function(tracer, "repro.dfg.optimize", "optimize",
                    "dfg.optimize")
    _patch_method(tracer, "repro.dfg.interpreter", "Interpreter",
                  "gradients", "dfg.gradients")
    _patch_method(tracer, "repro.ml.benchmarks", "Benchmark", "translate",
                  "ml.benchmark_translate")
    _patch_method(tracer, "repro.ml.benchmarks", "Benchmark",
                  "make_dataset", "ml.make_dataset")
    _patch_method(tracer, "repro.planner.plan", "Planner", "plan",
                  "planner.plan", key=_plan_key)
    _patch_method(tracer, "repro.planner.plan", "Planner", "sweep",
                  "planner.sweep")
    _patch_method(tracer, "repro.planner.plan", "Planner", "evaluate",
                  "planner.estimate")
    _patch_function(tracer, "repro.compiler.program", "compile_thread",
                    "compiler.compile_thread")
    _patch_function(tracer, "repro.circuit.constructor", "construct",
                    "circuit.construct")
    _patch_function(tracer, "repro.circuit.testbench", "generate_testbench",
                    "circuit.testbench")
    _patch_method(tracer, "repro.hw.accelerator", "ThreadSimulator", "run",
                  "hw.thread_sim")
    _patch_method(tracer, "repro.hw.accelerator", "MimdTimingModel",
                  "run_batch", "hw.run_batch")
    _patch_method(tracer, "repro.runtime.cluster", "ClusterSimulator",
                  "iteration", "runtime.iteration", key=_iteration_key,
                  on_result=record_timing)
    _patch_method(tracer, "repro.runtime.events", "EventLoop", "run",
                  "runtime.event_loop.run")
    _patch_method(tracer, "repro.runtime.network", "Network", "send",
                  "runtime.network.send")
    _patch_method(tracer, "repro.runtime.trainer", "DistributedTrainer",
                  "step", "runtime.trainer.step")
    _patch_method(tracer, "repro.runtime.trainer", "DistributedTrainer",
                  "train", "runtime.trainer.train")
    _patch_function(tracer, "repro.runtime.recovery", "chaos_train",
                    "runtime.chaos_train")
    _patch_method(tracer, "repro.core.system", "CosmicSystem",
                  "epoch_seconds", "core.epoch_seconds")
    _patch_function(tracer, "repro.core.system", "platform_for",
                    "core.platform_for")
    _patch_method(tracer, "repro.core.stack", "CosmicStack", "compile",
                  "core.compile")
    _patch_method(tracer, "repro.baselines.spark", "SparkModel",
                  "epoch_seconds", "baselines.spark")
    _patch_method(tracer, "repro.baselines.spark", "SparkModel",
                  "iteration", "baselines.spark")
    _patch_function(tracer, "repro.baselines.tabla",
                    "cosmic_vs_tabla_speedup", "baselines.tabla")
    _install_cache_probes(tracer)


def _install_cache_probes(tracer: Tracer):
    """Guarded probes of the artifact cache: counts and times its gets and
    fingerprints, charges each miss's thunk to the layer that owns the
    artifact, and changes nothing the cache does."""
    try:
        cache_mod = _module("repro.perf.cache")
        cache_cls = cache_mod.ArtifactCache
        get = cache_cls.get_or_compute
    except (ImportError, AttributeError):
        tracer.absent.append("perf")
        return

    def get_or_compute(self, kind, key, compute, *args, **kwargs):
        missed = []

        def owned_compute():
            missed.append(True)
            span = tracer.begin(
                _CACHE_KIND_OWNER.get(kind, "perf.cache.compute"),
                counted=False,
            )
            try:
                return compute()
            finally:
                tracer.end(span)

        span = tracer.begin("perf.cache.get")
        try:
            return get(self, kind, key, owned_compute, *args, **kwargs)
        finally:
            tracer.end(span)
            if not missed:
                with tracer._lock:
                    tracer.cache_hits += 1

    cache_cls.get_or_compute = functools.wraps(get)(get_or_compute)
    for attr in ("fingerprint", "dfg_fingerprint"):
        original = getattr(cache_mod, attr, None)
        if original is not None:
            _replace_everywhere(
                original, tracer.wrap(original, "perf.fingerprint")
            )


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric the benchmark reports, by name."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0))[0]

    def self_s(name):
        return totals.get(name, (0, 0))[1] / 1e9

    out: Dict[str, float] = {}
    for name in ("dsl.parse", "dfg.translate", "dfg.gradients",
                 "planner.plan", "planner.sweep", "compiler.compile_thread",
                 "circuit.construct", "hw.thread_sim", "hw.run_batch",
                 "runtime.iteration", "runtime.network.send",
                 "runtime.trainer.step", "perf.cache.get"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("ml.benchmark_translate", "planner.estimate",
                 "runtime.event_loop.run", "core.epoch_seconds"):
        out[f"{name}.calls"] = calls(name)
    for name in ("dfg.optimize", "circuit.testbench",
                 "runtime.chaos_train", "perf.fingerprint"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("planner.plan", "runtime.iteration"):
        out[f"{name}.distinct"] = len(tracer.distinct.get(name, ()))
    gets = calls("perf.cache.get")
    out["perf.cache.hit_ratio"] = tracer.cache_hits / gets if gets else 0.0

    cols = list(zip(*tracer.iterations)) or [()] * 6
    out["sim.total_s"] = math.fsum(cols[0])
    out["sim.compute_s"] = math.fsum(cols[1])
    out["sim.network_s"] = math.fsum(cols[2])
    out["sim.aggregation_busy_s"] = math.fsum(cols[3])
    out["sim.wire_bytes"] = sum(cols[4])
    out["sim.dropped_partials"] = sum(cols[5])

    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            self_ns for name, (_, self_ns) in totals.items()
            if name.split(".", 1)[0] == layer
        ) / 1e9
    return out


def layer_table(tracer: Tracer) -> str:
    """Human-readable per-span table, largest self time first."""
    totals = tracer.totals()
    lines = [f"{'span':34s} {'calls':>9s} {'self_s':>10s}"]
    for name, (calls, self_ns) in sorted(
        totals.items(), key=lambda kv: -kv[1][1]
    ):
        lines.append(f"{name:34s} {calls:9d} {self_ns / 1e9:10.4f}")
    for layer in tracer.absent:
        lines.append(f"{layer + '.*':34s} {'absent':>9s}")
    return "\n".join(lines)
