"""Parallel sweep execution with a deterministic serial fallback.

The experiment harness (Figures 7/8/9/12/15/16) is embarrassingly
parallel: every sweep point is an independent pure computation.
:class:`SweepExecutor` fans those points out over a
``concurrent.futures`` pool while keeping the *results* in input order,
so parallel and serial runs produce bit-identical output — the property
the perf harness asserts. The Planner's design-space exploration is not
fanned out: each of its points is a few microseconds of arithmetic over
one per-DFG cost profile, so the Planner costs them serially.

Modes:

* ``"serial"`` — a plain list comprehension; the reference path.
* ``"thread"`` — ``ThreadPoolExecutor``. The sweep workloads release the
  GIL inside NumPy and, more importantly, share the process-wide
  :mod:`repro.perf.cache`, so one worker's translation/plan is every
  worker's hit.
* ``"process"`` — ``ProcessPoolExecutor`` for callables that are
  picklable at module scope (the figure closures are not; the perf CLI
  uses threads by default).
* ``"queue"`` — the distributed mode: tasks are served from a
  :class:`repro.perf.distributed.QueueCoordinator` to workers started
  with ``python -m repro worker --connect HOST:PORT`` on any host.
* ``"auto"`` — threads when the machine has more than one CPU, else
  serial.

The default mode comes from ``REPRO_SWEEP_MODE`` (and worker count from
``REPRO_SWEEP_JOBS``) so CI and the perf harness can steer sweeps without
threading arguments through every figure function. Both are parsed —
with validation — by :mod:`repro.perf.env`, lazily on first use.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from . import env

T = TypeVar("T")
R = TypeVar("R")

MODES = env.SWEEP_MODES


class SweepExecutor:
    """Order-preserving map over independent sweep points."""

    def __init__(
        self,
        mode: str = "auto",
        max_workers: Optional[int] = None,
        coordinator=None,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
        self.mode = mode
        self.max_workers = max_workers
        #: Queue mode only: the coordinator serving this executor's
        #: sweeps; ``None`` uses the process-wide default
        #: (:func:`repro.perf.distributed.default_coordinator`).
        self.coordinator = coordinator

    def resolved_mode(self) -> str:
        """The concrete mode ``"auto"`` selects on this machine."""
        if self.mode != "auto":
            return self.mode
        return "thread" if (os.cpu_count() or 1) > 1 else "serial"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item; results follow the input order.

        An exception in any worker propagates to the caller (after the
        pool drains), exactly as the serial path would raise it.
        """
        points: Sequence[T] = list(items)
        mode = self.resolved_mode()
        if mode == "serial" or len(points) <= 1:
            return [fn(p) for p in points]
        if mode == "queue":
            from .distributed import default_coordinator

            coordinator = self.coordinator or default_coordinator()
            return coordinator.map(fn, points)
        workers = self.max_workers or min(len(points), os.cpu_count() or 1)
        pool_cls = (
            ThreadPoolExecutor if mode == "thread" else ProcessPoolExecutor
        )
        with pool_cls(max_workers=workers) as pool:
            return list(pool.map(fn, points))

    def starmap(
        self, fn: Callable[..., R], items: Iterable[tuple]
    ) -> List[R]:
        """:meth:`map` for argument tuples."""
        return self.map(lambda args: fn(*args), items)


_DEFAULT: Optional[SweepExecutor] = None


def default_executor() -> SweepExecutor:
    """The executor the figure harness uses by default.

    Built lazily on first call from ``REPRO_SWEEP_MODE`` /
    ``REPRO_SWEEP_JOBS`` (validated — a bad value raises
    :class:`repro.perf.env.EnvError` here rather than crashing inside a
    sweep), then cached until :func:`set_default_executor` replaces it.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SweepExecutor(
            mode=env.sweep_mode(), max_workers=env.sweep_jobs()
        )
    return _DEFAULT


def set_default_executor(executor: SweepExecutor) -> SweepExecutor:
    """Replace the default executor (the perf harness pins serial/thread
    modes around its measurements); returns the previous one."""
    global _DEFAULT
    previous = default_executor()
    _DEFAULT = executor
    return previous
