"""Workloads: the five algorithms, ten benchmarks, and data generators."""

# Re-exported only for perfbench/, which imports these names from the
# package; everything else imports from the defining module.
from .benchmarks import benchmark as benchmark
