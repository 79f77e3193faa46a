"""Host-speed probe: a fixed kernel timed next to the ops it corrects.

The hosts this benchmark runs on are shared: the same code runs up to
50% slower for seconds to minutes at a time, in step across CPU time and
wall time, and small NumPy calls and object-heavy Python (what ``repro``
mostly does) slow down more than a tight loop. A single run therefore
measures the host state as much as the program.

``probe()`` times a fixed kernel of that same kind: small-array NumPy
calls, a heap of small objects, ``json`` and ``re`` on short strings, and
a sort of a cache-resident array. It uses only NumPy and the standard
library, never ``repro``, so a change to the program never moves it.
``factor(before, after)`` scales host time measured between two probes
to the speed at which the probe takes ``REFERENCE_S``: a reported time is
``measured x REFERENCE_S / probe``, in seconds of the reference speed.
"""

from __future__ import annotations

import heapq
import json
import re
import statistics
import time

import numpy as np

#: Probe time, in seconds, that defines the reference speed: about the
#: median probe on a 2-vCPU x86_64 VM (Xeon, Python 3.11, NumPy 2.4).
REFERENCE_S = 0.005

#: Kernel passes per probe; the probe is their median.
PASSES = 3

_SMALL = np.linspace(0.0, 1.0, 16)
_MATRIX = np.linspace(0.0, 1.0, 64).reshape(8, 8)
_VECTOR = np.linspace(1.0, 0.0, 64)
_MEDIUM = np.sin(np.arange(4096.0))
_PAIRS = re.compile(r"(\w+)=(\d+)")


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _kernel() -> None:
    for _ in range(400):
        np.maximum(_SMALL, 0.5).sum()
    heap = []
    for i in range(80):
        x = _MATRIX @ _MATRIX[:, i % 8]
        y = np.concatenate((_VECTOR[:8], x)).clip(0.1, 0.9)
        heapq.heappush(heap, (float(y.sum()), i, _Item(i, y)))
        json.dumps({"k": i, "v": [i, i + 1], "s": f"n{i}"}, sort_keys=True)
        _PAIRS.findall(f"a=1 b=22 c={i}")
    while heap:
        heapq.heappop(heap)
    for _ in range(50):
        np.sort(_MEDIUM * 1.5 + 0.25)[::7].cumsum()


def probe() -> float:
    """Seconds one kernel pass takes now (median of ``PASSES``)."""
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale for host time measured between probes ``before`` and
    ``after``."""
    return REFERENCE_S / ((before + after) / 2)
