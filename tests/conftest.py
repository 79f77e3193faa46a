"""Suite-wide guard: every test must be hermetic.

A test that leaves a thread or a child process running slows or breaks
every test after it (a spinning thread starves the rest of the suite of
the GIL). The autouse fixture below fails such a test at teardown,
naming what it left behind.
"""

import multiprocessing
import threading
import time

import pytest

#: How long a thread or child may take to finish after its test returns
#: (an executor shutting down, a child being reaped) before it counts as
#: leaked.
GRACE_S = 2.0


def _leftovers(threads_before, children_before):
    threads = [
        t
        for t in threading.enumerate()
        if t not in threads_before and t.is_alive()
    ]
    children = [
        p
        for p in multiprocessing.active_children()
        if p not in children_before
    ]
    return threads, children


@pytest.fixture(autouse=True)
def no_leaked_threads_or_processes():
    threads_before = set(threading.enumerate())
    children_before = set(multiprocessing.active_children())
    yield
    deadline = time.monotonic() + GRACE_S
    threads, children = _leftovers(threads_before, children_before)
    while (threads or children) and time.monotonic() < deadline:
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        for p in children:
            p.join(timeout=max(0.0, deadline - time.monotonic()))
        threads, children = _leftovers(threads_before, children_before)
    leaked = [f"thread {t.name!r}" for t in threads] + [
        f"child process {p.name!r} (pid {p.pid})" for p in children
    ]
    if leaked:
        pytest.fail("test leaked " + ", ".join(leaked), pytrace=False)
