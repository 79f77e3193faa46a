"""Faulted clusters replay: a clone with a straggler and a slower link,
or a chaos run, goes through the same timing table and replayer as a
healthy cluster, and its faults still cost time."""

import numpy as np
import pytest

from repro.dfg.translate import translate
from repro.dsl.parser import parse
from repro.runtime import schedule
from repro.runtime.cluster import ClusterSimulator, ClusterSpec
from repro.runtime.director import HeartbeatConfig
from repro.runtime.faults import FaultTimeline, NodeCrash
from repro.runtime.network import NetworkConfig, RetryPolicy
from repro.runtime.recovery import FaultToleranceConfig, chaos_train


@pytest.fixture(autouse=True)
def fresh_table():
    schedule.TIMINGS.clear()
    yield
    schedule.TIMINGS.clear()


def make_sim(nodes=8, groups=2):
    return ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups),
        lambda node_id, samples: 1e-3,
        update_bytes=100_000,
    )


def count_replays(monkeypatch):
    """Spy on ``replay_iteration``; returns the list its calls append to."""
    calls = []
    real = schedule.replay_iteration
    monkeypatch.setattr(
        schedule,
        "replay_iteration",
        lambda *a, **k: calls.append(1) or real(*a, **k),
    )
    return calls


class TestFaultedReplay:
    def test_faulted_clone_replays_slower(self, monkeypatch):
        """A healthy run fills the timing table first; a faulted clone
        of the same topology then replays under its own spec and compute
        times into the same table, and pays for its faults."""
        healthy = make_sim()
        fast = healthy.iteration(8_000)
        assert len(schedule.TIMINGS) == 1
        calls = count_replays(monkeypatch)
        faulted = ClusterSimulator(
            ClusterSpec(
                nodes=8, groups=2, network=NetworkConfig(bandwidth_bps=5e8)
            ),
            lambda node_id, samples: 3e-3 if node_id == 1 else 1e-3,
            update_bytes=100_000,
            topology=healthy.topology,
        )
        slow = faulted.iteration(8_000)
        assert calls == [1]
        assert len(schedule.TIMINGS) == 1  # one topology, one table
        assert slow.total_s > fast.total_s


LINREG = """
mu = 0.05;
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
"""


class TestChaosTrainInterplay:
    def _run(self, timeline, monkeypatch=None):
        nodes, n, N = 4, 4, 64
        rng = np.random.default_rng(3)
        w = rng.normal(size=n)
        X = rng.normal(size=(N, n))
        spec = ClusterSpec(nodes=nodes, groups=2)
        def compute(nid, s):
            return 2e-3
        # Fixed fault-tolerance clocks (roughly one iteration ~ 5 ms);
        # deriving them from a healthy simulation here would itself go
        # through the replayer and count as a replay.
        it_s = 5e-3
        config = FaultToleranceConfig(
            heartbeat=HeartbeatConfig(period_s=it_s / 2, timeout_s=2 * it_s),
            retry=RetryPolicy(timeout_s=it_s / 2, max_retries=1),
            checkpoint_every=3,
        )
        return chaos_train(
            translate(parse(LINREG), {"n": n}),
            {"x": X, "y": X @ w},
            spec,
            compute,
            10_000,
            timeline=timeline,
            config=config,
            epochs=1,
            minibatch_per_worker=4,
            seed=7,
        )

    def test_faulted_chaos_run_replays(self, monkeypatch):
        """A crash re-forms the hierarchy; the chaos run replays the full
        and the re-formed topology once each, and serves every other
        iteration from the timing table."""
        calls = count_replays(monkeypatch)
        timeline = FaultTimeline(crashes=(NodeCrash(node_id=3, at_s=0.01),))
        result = self._run(timeline)
        assert result.iterations > 0
        assert len(calls) == len(schedule.TIMINGS) >= 2

    def test_healthy_chaos_run_may_replay(self):
        """A healthy chaos run goes through the memoised/replayed path."""
        result = self._run(FaultTimeline())
        assert result.iterations > 0
        assert len(schedule.TIMINGS) >= 1
