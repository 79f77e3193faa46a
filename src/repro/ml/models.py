"""Per-sample arithmetic of the five learning algorithms.

The Spark and GPU baseline rooflines charge each training vector the
forward-plus-backward operation count of its algorithm's update rule.
"""

from __future__ import annotations

from typing import Mapping


def flops_per_sample(algorithm: str, dims: Mapping[str, int]) -> float:
    """Arithmetic operations per training vector (forward + backward).

    Used by the CPU/GPU baseline rooflines; counts multiply and add as
    separate operations, matching how DSP slices are counted.
    """
    if algorithm in ("linear_regression", "logistic_regression", "svm"):
        n = dims["n"]
        return 6.0 * n  # dot (2n) + scale (n) + update traffic (3n)
    if algorithm == "backpropagation":
        n, h, c = dims["n"], dims["h"], dims["c"]
        forward = 2.0 * (n * h + h * c)
        backward = 2.0 * (h * c + n * h) + 2.0 * h * c
        return forward + backward + 4.0 * (h + c)
    if algorithm == "collaborative_filtering":
        e, f = dims["e"], dims["f"]
        # Two one-hot gathers (2ef), the rating error (2f), and the dense
        # outer-product gradient over the entity table (~5ef).
        return 7.0 * e * f + 2.0 * f
    raise ValueError(f"unknown algorithm {algorithm!r}")
