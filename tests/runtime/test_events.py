"""Tests for the discrete-event engine."""

import pytest

from repro.runtime.events import EventLoop, Resource


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.at(2.0, lambda: seen.append("b"))
        loop.at(1.0, lambda: seen.append("a"))
        loop.at(3.0, lambda: seen.append("c"))
        loop.run()
        assert seen == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        loop = EventLoop()
        seen = []
        loop.at(1.0, lambda: seen.append(1))
        loop.at(1.0, lambda: seen.append(2))
        loop.run()
        assert seen == [1, 2]

    def test_now_advances(self):
        loop = EventLoop()
        times = []
        loop.at(0.5, lambda: times.append(loop.now))
        loop.at(1.5, lambda: times.append(loop.now))
        end = loop.run()
        assert times == [0.5, 1.5]
        assert end == 1.5

    def test_events_can_schedule_events(self):
        loop = EventLoop()
        seen = []

        def first():
            seen.append("first")
            loop.after(1.0, lambda: seen.append("second"))

        loop.at(1.0, first)
        loop.run()
        assert seen == ["first", "second"]
        assert loop.now == 2.0

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.at(5.0, lambda: loop.at(1.0, lambda: None))
        with pytest.raises(ValueError):
            loop.run()

    def test_run_until(self):
        loop = EventLoop()
        seen = []
        loop.at(1.0, lambda: seen.append(1))
        loop.at(10.0, lambda: seen.append(2))
        loop.run(until=5.0)
        assert seen == [1]
        assert loop.pending() == 1

    def test_not_reentrant(self):
        loop = EventLoop()
        loop.at(1.0, lambda: loop.run())
        with pytest.raises(RuntimeError):
            loop.run()


class TestResource:
    def test_serialises_overlapping_requests(self):
        r = Resource("nic")
        assert r.acquire(0.0, 1.0) == 0.0
        assert r.acquire(0.5, 1.0) == 1.0
        assert r.acquire(3.0, 1.0) == 3.0

    def test_busy_accounting(self):
        r = Resource()
        r.acquire(0.0, 2.0)
        r.acquire(0.0, 3.0)
        assert r.busy_seconds == 5.0
        assert r.utilization(10.0) == 0.5

    def test_utilization_clamped(self):
        r = Resource()
        r.acquire(0.0, 5.0)
        assert r.utilization(1.0) == 1.0
        assert r.utilization(0.0) == 0.0
