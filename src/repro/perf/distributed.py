"""Queue-backed distributed sweep execution (`SweepExecutor("queue")`).

The figure harness is embarrassingly parallel, but the thread/process
executors top out at one machine's cores. This module turns the same
picklable :class:`repro.perf.tasks.TaskCall` sweeps into a small-cluster
workload, mirroring the paper's runtime shape: a coordinator (the Sigma
of the sweep) fans work out to any number of worker processes on any
number of hosts and aggregates their results in input order.

Transport is a :class:`multiprocessing.managers.BaseManager` server run
*in-process* by the coordinator: two proxied queues — ``work`` carrying
:class:`WorkItem` envelopes and ``events`` carrying worker join / claim
/ result messages — over one authenticated TCP socket. Workers are
plain processes started with ``python -m repro worker --connect
HOST:PORT [--authkey-file F]``; they loop forever serving sweeps until
the coordinator sends a shutdown sentinel or disappears.

Worker health reuses the shape of the runtime's heartbeat/retry
machinery (:mod:`repro.runtime.recovery`):

* every claim starts a **lease** with a deadline; a task whose lease
  expires — a dead or straggling worker — is re-enqueued for another
  worker. Tasks are pure functions backed by the content-addressed
  cache, so duplicate execution is idempotent: the first result for a
  task id wins and later duplicates are counted and dropped.
* a worker that *reports* a task failure gets the task retried
  elsewhere up to ``max_task_retries`` times before the sweep raises.
* a quiescence rescue re-enqueues unfinished tasks when the queue has
  drained and no leases are outstanding (covers a worker dying in the
  narrow window between dequeuing a task and claiming it).
* per-worker statistics (tasks completed/failed, busy seconds, last
  heartbeat) accumulate into a :class:`SweepSummary` at the end of
  every sweep.

Results assemble by task index, so a queue sweep is bit-identical to
``SweepExecutor("serial")`` — the property the queue-smoke CI gate and
the chaos tests assert.
"""

from __future__ import annotations

import os
import pickle
import queue
import socket
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import AuthenticationError
from multiprocessing.managers import BaseManager
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from . import env

#: Bumped when the envelope/event wire format changes; workers refuse to
#: serve a coordinator speaking a different protocol.
PROTOCOL_VERSION = 1


class SweepTimeout(RuntimeError):
    """A queue sweep exceeded its overall deadline."""


class SweepTaskError(RuntimeError):
    """A task failed on every allowed attempt; carries the last worker
    traceback."""


@dataclass(frozen=True)
class WorkItem:
    """One unit of sweep work on the wire.

    ``fn`` must be picklable — in practice a
    :class:`~repro.perf.tasks.TaskCall`, which resolves its function
    from the task registry inside the worker (importing the defining
    module there first if needed).
    """

    sweep: int
    task: int
    attempt: int
    fn: Callable[[Any], Any]
    item: Any


@dataclass
class WorkerStats:
    """Coordinator-side health record for one worker."""

    worker_id: str
    joined_s: float
    last_seen_s: float
    completed: int = 0
    failed: int = 0
    busy_s: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass
class SweepSummary:
    """End-of-sweep accounting: totals plus per-worker stats."""

    tasks: int
    attempts: int
    requeued: int
    duplicates: int
    elapsed_s: float
    workers: List[WorkerStats]

    def render(self) -> str:
        lines = [
            f"== queue sweep: {self.tasks} tasks, {self.attempts} attempts"
            f" ({self.requeued} requeued, {self.duplicates} duplicate"
            f" results), {self.elapsed_s:.2f}s =="
        ]
        for w in sorted(self.workers, key=lambda w: w.worker_id):
            lines.append(
                f"  {w.worker_id:30s} done={w.completed:4d} "
                f"failed={w.failed:2d} busy={w.busy_s:8.2f}s"
            )
        if not self.workers:
            lines.append("  (no workers ever joined)")
        return "\n".join(lines)


def _manager_class(
    work_queue: Optional[queue.Queue] = None,
    event_queue: Optional[queue.Queue] = None,
):
    """A fresh ``BaseManager`` subclass with the sweep queue registry.

    The class is created per call because ``register`` mutates class
    state: two coordinators in one process must not share a registry.
    With queues given (coordinator side) the typeids serve those local
    objects; without (worker side) they are proxies only.
    """

    manager = type("_SweepManager", (BaseManager,), {})
    if work_queue is not None:
        manager.register("get_work", callable=lambda: work_queue)
        manager.register("get_events", callable=lambda: event_queue)
    else:
        manager.register("get_work")
        manager.register("get_events")
    return manager


def worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class QueueCoordinator:
    """Serves sweep tasks to remote workers and assembles their results.

    The manager server runs in a daemon thread of the calling process,
    so the coordinator owns the real ``queue.Queue`` objects and the
    sweep loop touches them without proxy round-trips; only workers go
    through the authenticated socket.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        authkey: Optional[bytes] = None,
        lease_s: Optional[float] = None,
        max_task_retries: int = 3,
        poll_s: float = 0.05,
        rescue_idle_s: float = 1.0,
    ):
        self.authkey = authkey if authkey is not None else env.sweep_authkey()
        self.lease_s = lease_s if lease_s is not None else env.sweep_lease_s()
        self.max_task_retries = max_task_retries
        self.poll_s = poll_s
        self.rescue_idle_s = rescue_idle_s
        self._work: queue.Queue = queue.Queue()
        self._events: queue.Queue = queue.Queue()
        self._manager = _manager_class(self._work, self._events)(
            address=(host, port), authkey=self.authkey
        )
        self._server = None
        self._thread: Optional[threading.Thread] = None
        self._workers: Dict[str, WorkerStats] = {}
        self._claims: Dict[int, str] = {}
        self._sweep_counter = 0
        self._active = False
        self._lock = threading.Lock()
        self._local_procs: List[subprocess.Popen] = []
        self.last_summary: Optional[SweepSummary] = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind the server socket and serve it from a daemon thread."""
        if self._server is not None:
            return self.address
        self._server = self._manager.get_server()
        server = self._server

        def serve():
            # serve_forever exits via sys.exit(0) when stop_event is
            # set; swallow it so shutdown is not an "unhandled thread
            # exception".
            try:
                server.serve_forever()
            except SystemExit:
                pass

        self._thread = threading.Thread(
            target=serve,
            daemon=True,
            name="sweep-coordinator",
        )
        self._thread.start()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("coordinator not started")
        host, port = self._server.address
        return host, port

    def spawn_local_workers(self, count: int) -> List[subprocess.Popen]:
        """Start ``count`` worker processes against this coordinator."""
        procs = spawn_local_workers(self.address, self.authkey, count)
        self._local_procs.extend(procs)
        return procs

    def shutdown(self):
        """Send shutdown sentinels, stop the server, reap local workers."""
        if self._server is None:
            return
        # Stale work from an aborted sweep must not shadow the sentinels.
        while True:
            try:
                self._work.get_nowait()
            except queue.Empty:
                break
        for _ in range(max(4, 2 * len(self._workers))):
            self._work.put(None)
        deadline = time.monotonic() + 5.0
        for proc in self._local_procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
        self._local_procs.clear()
        self._server.stop_event.set()
        try:
            self._server.listener.close()
        except OSError:
            pass
        self._server = None

    # -- the sweep loop --------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        timeout_s: Optional[float] = None,
    ) -> List[Any]:
        """Order-preserving distributed map; blocks until every task has
        a result (workers may join at any point, including after the
        sweep starts)."""
        points = list(items)
        if not points:
            return []
        try:
            pickle.dumps((fn, points))
        except Exception as exc:
            raise TypeError(
                "queue-mode sweeps need picklable callables and items; "
                "use a registered @sweep_task via task_call "
                f"(pickling failed: {exc})"
            ) from None
        if self._server is None:
            self.start()
        with self._lock:
            if self._active:
                # Re-entrant map from coordinator-side code (e.g. a
                # nested DSE): fall back to the serial reference path
                # rather than deadlocking on our own queue.
                return [fn(p) for p in points]
            self._active = True
            self._sweep_counter += 1
            sweep = self._sweep_counter
        try:
            return self._run_sweep(sweep, fn, points, timeout_s)
        finally:
            with self._lock:
                self._active = False

    def _run_sweep(
        self,
        sweep: int,
        fn: Callable[[Any], Any],
        points: Sequence[Any],
        timeout_s: Optional[float],
    ) -> List[Any]:
        n = len(points)
        results: Dict[int, Any] = {}
        leases: Dict[int, float] = {}
        attempt_no: Dict[int, int] = {i: 0 for i in range(n)}
        failures: Dict[int, int] = {}
        requeued = 0
        duplicates = 0
        attempts = n
        started = time.monotonic()
        last_event = started
        if timeout_s is None:
            timeout_s = env.sweep_timeout_s()
        for i, item in enumerate(points):
            self._work.put(WorkItem(sweep, i, 0, fn, item))

        def requeue(task: int) -> None:
            nonlocal attempts
            attempt_no[task] += 1
            attempts += 1
            self._claims.pop(task, None)
            self._work.put(
                WorkItem(sweep, task, attempt_no[task], fn, points[task])
            )

        while len(results) < n:
            now = time.monotonic()
            if timeout_s is not None and now - started > timeout_s:
                raise SweepTimeout(
                    f"queue sweep incomplete after {timeout_s:.1f}s: "
                    f"{len(results)}/{n} tasks done, "
                    f"{len(self._workers)} workers ever joined"
                )
            try:
                event = self._events.get(timeout=self.poll_s)
            except queue.Empty:
                event = None
            now = time.monotonic()
            if event is not None:
                last_event = now
                kind = event[0]
                if kind == "join":
                    _, wid, meta = event
                    stats = self._workers.get(wid)
                    if stats is None:
                        self._workers[wid] = WorkerStats(
                            wid, joined_s=now, last_seen_s=now, meta=meta
                        )
                    else:
                        stats.last_seen_s = now
                elif kind == "claim":
                    _, wid, esweep, task, attempt = event
                    self._touch(wid, now)
                    if esweep == sweep and task not in results:
                        leases[task] = now + self.lease_s
                        self._claims[task] = wid
                elif kind in ("result", "error"):
                    _, wid, esweep, task, attempt, elapsed, payload = event
                    stats = self._touch(wid, now)
                    stats.busy_s += elapsed
                    if esweep != sweep:
                        continue  # stale straggler from an earlier sweep
                    if task in results:
                        duplicates += 1
                        continue
                    leases.pop(task, None)
                    self._claims.pop(task, None)
                    if kind == "result":
                        results[task] = payload
                        stats.completed += 1
                    else:
                        stats.failed += 1
                        failures[task] = failures.get(task, 0) + 1
                        if failures[task] > self.max_task_retries:
                            raise SweepTaskError(
                                f"task {task} failed "
                                f"{failures[task]} times; last worker "
                                f"({wid}) traceback:\n{payload}"
                            )
                        requeue(task)
                elif kind == "leave":
                    _, wid, reason = event
                    self._touch(wid, now)
            # Dead or straggling workers: an expired lease re-enqueues
            # the task for someone else. The first result wins either
            # way, so a straggler that eventually finishes is harmless.
            for task, deadline in list(leases.items()):
                if now > deadline and task not in results:
                    leases.pop(task)
                    requeued += 1
                    requeue(task)
            # Quiescence rescue: queue drained, nothing leased, tasks
            # missing — a worker died between dequeue and claim.
            if (
                event is None
                and not leases
                and len(results) < n
                and self._work.qsize() == 0
                and now - last_event > self.rescue_idle_s
            ):
                last_event = now
                for task in range(n):
                    if task not in results:
                        requeued += 1
                        requeue(task)

        elapsed = time.monotonic() - started
        summary = SweepSummary(
            tasks=n,
            attempts=attempts,
            requeued=requeued,
            duplicates=duplicates,
            elapsed_s=elapsed,
            workers=list(self._workers.values()),
        )
        self.last_summary = summary
        if env.sweep_summary():
            print(summary.render(), file=sys.stderr)
        return [results[i] for i in range(n)]

    def _touch(self, wid: str, now: float) -> WorkerStats:
        stats = self._workers.get(wid)
        if stats is None:
            stats = self._workers[wid] = WorkerStats(
                wid, joined_s=now, last_seen_s=now
            )
        stats.last_seen_s = now
        return stats

    def current_claims(self) -> Dict[int, str]:
        """Live task -> worker assignments (chaos tests use this to pick
        a victim)."""
        return dict(self._claims)


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------


def run_worker(
    host: str,
    port: int,
    authkey: bytes,
    max_tasks: Optional[int] = None,
    log: Callable[[str], None] = lambda msg: print(msg, file=sys.stderr),
) -> int:
    """Serve sweep tasks from the coordinator at ``(host, port)``.

    Blocks until the coordinator sends a shutdown sentinel, the
    connection drops (coordinator exited), or ``max_tasks`` tasks have
    been executed. Returns a process exit code: 0 on a clean exit, 2
    when the coordinator is unreachable, 3 on an authkey mismatch.
    """
    wid = worker_id()
    manager = _manager_class()(address=(host, port), authkey=authkey)
    try:
        manager.connect()
    except AuthenticationError:
        log(f"worker {wid}: authentication failed for {host}:{port} "
            "(authkey mismatch)")
        return 3
    except (ConnectionError, OSError) as exc:
        log(f"worker {wid}: cannot reach coordinator {host}:{port}: {exc}")
        return 2
    work = manager.get_work()
    events = manager.get_events()
    events.put(
        (
            "join",
            wid,
            {
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "protocol": PROTOCOL_VERSION,
            },
        )
    )
    log(f"worker {wid}: serving sweeps from {host}:{port}")
    done = 0
    while True:
        try:
            item = work.get()
        except (EOFError, ConnectionError, OSError):
            log(f"worker {wid}: coordinator gone, exiting")
            return 0
        if item is None:  # shutdown sentinel
            log(f"worker {wid}: shutdown after {done} tasks")
            return 0
        try:
            events.put(("claim", wid, item.sweep, item.task, item.attempt))
            start = time.perf_counter()
            try:
                value = item.fn(item.item)
            except Exception:
                events.put(
                    (
                        "error",
                        wid,
                        item.sweep,
                        item.task,
                        item.attempt,
                        time.perf_counter() - start,
                        traceback.format_exc(),
                    )
                )
            else:
                try:
                    events.put(
                        (
                            "result",
                            wid,
                            item.sweep,
                            item.task,
                            item.attempt,
                            time.perf_counter() - start,
                            value,
                        )
                    )
                except Exception:
                    # e.g. an unpicklable return value: report instead
                    # of crashing the worker.
                    events.put(
                        (
                            "error",
                            wid,
                            item.sweep,
                            item.task,
                            item.attempt,
                            time.perf_counter() - start,
                            traceback.format_exc(),
                        )
                    )
        except (EOFError, ConnectionError, OSError):
            log(f"worker {wid}: coordinator gone mid-task, exiting")
            return 0
        done += 1
        if max_tasks is not None and done >= max_tasks:
            try:
                events.put(("leave", wid, "max-tasks"))
            except (EOFError, ConnectionError, OSError):
                pass
            log(f"worker {wid}: max-tasks={max_tasks} reached, exiting")
            return 0


def spawn_local_workers(
    address: Tuple[str, int], authkey: bytes, count: int
) -> List[subprocess.Popen]:
    """Start ``count`` local ``python -m repro worker`` subprocesses.

    The authkey travels via the child environment (never argv, which is
    world-readable in ``ps``). Children force ``REPRO_SWEEP_MODE=auto``
    so a worker never tries to become a queue coordinator itself, and
    get ``src/`` prepended to ``PYTHONPATH`` so a source checkout works
    without installation.
    """
    host, port = address
    src_dir = str(Path(__file__).resolve().parents[2])
    child_env = dict(os.environ)
    child_env["REPRO_SWEEP_AUTHKEY"] = authkey.decode(
        "utf-8", errors="surrogateescape"
    )
    child_env.pop("REPRO_SWEEP_AUTHKEY_FILE", None)
    child_env["REPRO_SWEEP_MODE"] = "auto"
    child_env.pop("REPRO_SWEEP_LOCAL_WORKERS", None)
    existing = child_env.get("PYTHONPATH", "")
    child_env["PYTHONPATH"] = (
        f"{src_dir}{os.pathsep}{existing}" if existing else src_dir
    )
    return [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--connect",
                f"{host}:{port}",
            ],
            env=child_env,
        )
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# Default (env-configured) coordinator
# ---------------------------------------------------------------------------

_DEFAULT_COORDINATOR: Optional[QueueCoordinator] = None
_DEFAULT_LOCK = threading.Lock()


def default_coordinator() -> QueueCoordinator:
    """The process-wide coordinator ``SweepExecutor("queue")`` uses.

    Created lazily from the ``REPRO_SWEEP_*`` environment on first use:
    binds ``REPRO_SWEEP_ADDR`` (loopback + ephemeral port by default),
    announces the bound address on stderr so operators know where to
    point ``python -m repro worker --connect``, and spawns
    ``REPRO_SWEEP_LOCAL_WORKERS`` local workers if requested.
    """
    global _DEFAULT_COORDINATOR
    with _DEFAULT_LOCK:
        if _DEFAULT_COORDINATOR is None:
            host, port = env.sweep_address()
            coordinator = QueueCoordinator(host=host, port=port)
            bound_host, bound_port = coordinator.start()
            print(
                f"sweep coordinator serving on {bound_host}:{bound_port} — "
                "attach workers with: python -m repro worker "
                f"--connect {bound_host}:{bound_port}",
                file=sys.stderr,
            )
            local = env.sweep_local_workers()
            if local:
                coordinator.spawn_local_workers(local)
            _DEFAULT_COORDINATOR = coordinator
    return _DEFAULT_COORDINATOR


def set_default_coordinator(
    coordinator: Optional[QueueCoordinator],
) -> Optional[QueueCoordinator]:
    """Swap the process-wide coordinator (tests and the perf harness
    pin their own); returns the previous one without shutting it down."""
    global _DEFAULT_COORDINATOR
    with _DEFAULT_LOCK:
        previous = _DEFAULT_COORDINATOR
        _DEFAULT_COORDINATOR = coordinator
    return previous
