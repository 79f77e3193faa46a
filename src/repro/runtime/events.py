"""A minimal discrete-event simulation engine for the runtime layer.

Cluster iterations are timed by schedule replay
(:mod:`repro.runtime.schedule`). This loop drives the event-driven
reference that replay is checked against
(``tests/runtime/event_reference.py``), in which NIC serialisation and
chunk delivery emerge from events interleaving.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class EventLoop:
    """A time-ordered callback queue with deterministic tie-breaking."""

    def __init__(self):
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def at(self, time: float, callback: Callable[[], None]):
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self._now - 1e-12:
            raise ValueError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        heapq.heappush(self._queue, (time, next(self._counter), callback))

    def after(self, delay: float, callback: Callable[[], None]):
        """Schedule ``callback`` ``delay`` seconds from now."""
        self.at(self._now + delay, callback)

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains (or past ``until``).

        Returns the simulation time of the last executed event.
        """
        if self._running:
            raise RuntimeError("event loop is not reentrant")
        self._running = True
        try:
            while self._queue:
                time, _, callback = self._queue[0]
                if until is not None and time > until:
                    break
                heapq.heappop(self._queue)
                self._now = time
                callback()
        finally:
            self._running = False
        return self._now

    def pending(self) -> int:
        return len(self._queue)


class Resource:
    """A serially-reusable resource (a NIC direction, a bus, a core).

    ``acquire`` returns the earliest start time at or after ``earliest``
    and books the resource for ``duration`` seconds. FCFS in call order —
    callers are responsible for calling in event-time order, which the
    event loop guarantees.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._free_at = 0.0
        self.busy_seconds = 0.0

    @property
    def free_at(self) -> float:
        return self._free_at

    def acquire(self, earliest: float, duration: float) -> float:
        start = max(earliest, self._free_at)
        self._free_at = start + duration
        self.busy_seconds += duration
        return start

    def utilization(self, horizon: float) -> float:
        """Busy fraction over ``[0, horizon]``."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / horizon)
