"""Cross-layer performance subsystem: the artifact cache and its knobs.

* :mod:`repro.perf.cache` — a content-addressed artifact cache memoizing
  Translations, AcceleratorPlans, and CompiledPrograms across stack and
  system instances, with optional on-disk persistence.
* :mod:`repro.perf.env` — centralized, validated parsing of every
  ``REPRO_*`` environment flag.

Figure sweeps need no scheduler: the whole reproduction runs in about a
second on one core, and :func:`repro.bench.figures._per_bench` walks the
benchmarks in a plain loop (``docs/performance.md`` has the measurement
behind that choice).

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
from .env import EnvError

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "DiskEntry",
    "EnvError",
    "cache_disabled",
    "cached_translate",
    "configure_cache",
    "dfg_fingerprint",
    "fingerprint",
    "get_cache",
    "plan_from_dict",
    "plan_to_dict",
]
