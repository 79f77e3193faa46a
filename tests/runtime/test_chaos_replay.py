"""Fault-context gating: a faulted cluster must never read or write the
schedule table — neither a trace nor a memoised timing — and must never
go through the schedule replayer, whose traces describe only healthy
schedules."""

import numpy as np
import pytest

from repro.dfg import translate
from repro.dsl import parse
from repro.runtime import (
    ClusterSimulator,
    ClusterSpec,
    FaultSpec,
    FaultTimeline,
    FaultToleranceConfig,
    HeartbeatConfig,
    NodeCrash,
    RetryPolicy,
    apply_faults,
    chaos_train,
)
from repro.runtime import schedule


@pytest.fixture(autouse=True)
def fresh_table():
    schedule.TRACES.clear()
    yield
    schedule.TRACES.clear()


def make_sim(faults=None, nodes=8, groups=2):
    return ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups),
        lambda node_id, samples: 1e-3,
        update_bytes=100_000,
        faults=faults,
    )


def schedule_keys():
    return list(schedule.TRACES)


class TestFaultContextGating:
    def test_faulted_sim_bypasses_memo_and_schedule_cache(self):
        sim = make_sim(faults=FaultSpec(straggler={1: 2.0}))
        first = sim.iteration(8_000)
        second = sim.iteration(8_000)
        assert first == second  # still deterministic, just not memoised
        assert schedule_keys() == []

    def test_faulted_sim_never_reads_the_table(self, monkeypatch):
        """Even with a healthy entry for the same cluster in the table,
        a faulted simulator neither reads nor writes it."""
        make_sim().iteration(8_000)

        class Untouchable(dict):
            def _touch(self, *args):
                pytest.fail("faulted simulator touched the schedule table")

            __getitem__ = __setitem__ = __contains__ = get = _touch

        monkeypatch.setattr(
            schedule, "TRACES", Untouchable(schedule.TRACES)
        )
        make_sim(faults=FaultSpec(straggler={1: 2.0})).iteration(8_000)

    def test_faulted_sim_never_replays(self, monkeypatch):
        import repro.runtime.schedule as schedule_mod

        monkeypatch.setattr(
            schedule_mod,
            "replay_iteration",
            lambda *a, **k: pytest.fail("replay fired for a faulted cluster"),
        )
        make_sim(faults=FaultSpec(straggler={1: 2.0})).iteration(8_000)

    def test_cached_healthy_trace_not_replayed_for_faulted_cluster(
        self, monkeypatch
    ):
        """The dangerous ordering: a healthy run populates the schedule
        table first, then a faulted clone of the *same* topology runs.
        The faulted run must re-simulate, not re-time the healthy trace."""
        import repro.runtime.schedule as schedule_mod

        healthy = make_sim()
        healthy.iteration(8_000)
        assert len(schedule_keys()) == 1  # trace is sitting right there

        monkeypatch.setattr(
            schedule_mod,
            "replay_iteration",
            lambda *a, **k: pytest.fail("healthy trace replayed for faults"),
        )
        faulted = apply_faults(
            healthy, FaultSpec(straggler={1: 3.0}, link_quality={2: 0.5})
        )
        slow = faulted.iteration(8_000)
        fast = healthy._iteration_uncached(None, [1e-3] * 8)
        assert slow.total_s > fast.total_s

    def test_faulted_quorum_iteration_never_replays(self, monkeypatch):
        """Quorum iterations replay since format 2 — but only on healthy
        clusters. A fault context still trumps the quorum replay path."""
        import repro.runtime.schedule as schedule_mod

        from repro.runtime import QuorumConfig

        monkeypatch.setattr(
            schedule_mod,
            "replay_iteration",
            lambda *a, **k: pytest.fail(
                "replay fired for a faulted quorum iteration"
            ),
        )
        sim = make_sim(faults=FaultSpec(straggler={1: 5.0}))
        timing = sim.iteration(
            8_000, quorum=QuorumConfig(fraction=0.5, deadline_s=1e-3)
        )
        assert timing.total_s > 0
        assert schedule_keys() == []

    def test_apply_faults_sets_fault_context(self):
        spec = FaultSpec(straggler={1: 2.0})
        faulted = apply_faults(make_sim(), spec)
        assert faulted.faults is spec
        assert make_sim().faults is None

    def test_with_topology_preserves_fault_context(self):
        spec = FaultSpec(straggler={1: 2.0})
        sim = make_sim(faults=spec)
        clone = sim.with_topology(sim.topology)
        assert clone.faults is spec


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
        # through the replayer and trip the monkeypatched probes.
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

    def test_faulted_chaos_run_never_replays(self, monkeypatch):
        import repro.runtime.schedule as schedule_mod

        monkeypatch.setattr(
            schedule_mod,
            "replay_iteration",
            lambda *a, **k: pytest.fail("replay fired inside chaos_train"),
        )
        timeline = FaultTimeline(crashes=(NodeCrash(node_id=3, at_s=0.01),))
        result = self._run(timeline)
        assert result.iterations > 0
        assert schedule_keys() == []

    def test_healthy_chaos_run_may_replay(self):
        """An empty timeline is no fault context; the healthy chaos run
        goes through the normal memoised/replayed path."""
        result = self._run(FaultTimeline())
        assert result.iterations > 0
        assert len(schedule_keys()) >= 1
