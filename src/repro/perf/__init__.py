"""Cross-layer performance subsystem: artifact cache + sweep parallelism.

Two tools that make the stack fast *about itself*:

* :mod:`repro.perf.cache` — a content-addressed artifact cache memoizing
  Translations, AcceleratorPlans, and CompiledPrograms across stack and
  system instances, with optional on-disk persistence.
* :mod:`repro.perf.parallel` — a ``concurrent.futures``-based sweep
  executor (with a deterministic serial fallback) that fans out
  independent sweep points in the experiment harness.
* :mod:`repro.perf.tasks` — a module-scope sweep task registry so
  figure sweeps pickle cleanly into ``SweepExecutor("process")``
  workers.
* :mod:`repro.perf.distributed` — the queue-backed executor mode:
  a coordinator serves ``TaskCall`` sweeps to ``python -m repro
  worker`` processes on any host, with leases, automatic re-enqueue
  from dead/straggling workers, and per-worker health stats.
* :mod:`repro.perf.env` — centralized, validated parsing of every
  ``REPRO_*`` environment flag.

The perf-regression harness that times the stack against a committed
baseline lives in :mod:`repro.bench.perf` (``python -m repro perf``).
"""

from .cache import (
    ArtifactCache,
    CacheStats,
    DiskEntry,
    cache_disabled,
    cached_translate,
    configure_cache,
    dfg_fingerprint,
    fingerprint,
    get_cache,
    plan_from_dict,
    plan_to_dict,
)
from .distributed import (
    QueueCoordinator,
    SweepSummary,
    SweepTaskError,
    SweepTimeout,
    WorkerStats,
    default_coordinator,
    run_worker,
    set_default_coordinator,
    spawn_local_workers,
)
from .env import EnvError
from .parallel import (
    SweepExecutor,
    default_executor,
    set_default_executor,
)
from .tasks import (
    TaskCall,
    registered_tasks,
    resolve,
    sweep_task,
    task_call,
)

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "DiskEntry",
    "EnvError",
    "QueueCoordinator",
    "SweepExecutor",
    "SweepSummary",
    "SweepTaskError",
    "SweepTimeout",
    "TaskCall",
    "WorkerStats",
    "cache_disabled",
    "cached_translate",
    "configure_cache",
    "default_coordinator",
    "default_executor",
    "dfg_fingerprint",
    "fingerprint",
    "get_cache",
    "plan_from_dict",
    "plan_to_dict",
    "registered_tasks",
    "resolve",
    "run_worker",
    "set_default_coordinator",
    "set_default_executor",
    "spawn_local_workers",
    "sweep_task",
    "task_call",
]
