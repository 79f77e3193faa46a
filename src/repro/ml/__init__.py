"""Workloads: the five algorithms, ten benchmarks, and data generators."""

from . import datasets, models
from .benchmarks import BENCHMARKS, Benchmark, benchmark, benchmark_names
from .datasets import Dataset
from .programs import ALGORITHM_SOURCES, source_for

__all__ = [
    "ALGORITHM_SOURCES",
    "BENCHMARKS",
    "Benchmark",
    "Dataset",
    "benchmark",
    "benchmark_names",
    "datasets",
    "models",
    "source_for",
]
