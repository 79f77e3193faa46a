"""Slow nodes and slow links: stragglers dominate synchronous
aggregation; crash and partition timelines answer liveness queries."""

import dataclasses

import numpy as np
import pytest

from repro.runtime.cluster import ClusterSimulator, ClusterSpec, QuorumConfig
from repro.runtime.director import HeartbeatConfig
from repro.runtime.faults import FaultTimeline, NodeCrash, Partition
from repro.runtime.network import RetryPolicy

NAN = float("nan")


def healthy(nodes=8, compute_s=10e-3, update_bytes=100_000):
    return ClusterSimulator(
        ClusterSpec(nodes=nodes), lambda nid, s: compute_s, update_bytes
    )


def straggled(sim, factors):
    """``sim`` with node ``n``'s compute time multiplied by
    ``factors[n]`` (1 where absent)."""
    return ClusterSimulator(
        sim.spec,
        lambda nid, s: sim._compute_seconds(nid, s) * factors.get(nid, 1.0),
        sim.update_bytes,
    )


def with_network(sim, **changes):
    """``sim`` with its ``NetworkConfig`` fields replaced by ``changes``."""
    network = dataclasses.replace(sim.spec.network, **changes)
    return ClusterSimulator(
        dataclasses.replace(sim.spec, network=network),
        sim._compute_seconds,
        sim.update_bytes,
    )


class TestInjection:
    def test_straggler_dominates_iteration(self):
        """Synchronous aggregation is a barrier: one 4x node costs ~4x
        compute time regardless of the other seven healthy nodes."""
        base = healthy().iteration(8 * 1000)
        slowed = straggled(healthy(), {5: 4.0}).iteration(8 * 1000)
        assert slowed.compute_max_s == pytest.approx(4 * base.compute_max_s)
        assert slowed.total_s / base.total_s > 1.5

    def test_straggler_on_sigma_same_as_delta(self):
        """The barrier makes the straggler's role irrelevant."""
        on_sigma = straggled(healthy(), {0: 3.0}).iteration(8000)
        on_delta = straggled(healthy(), {7: 3.0}).iteration(8000)
        assert on_sigma.total_s == pytest.approx(on_delta.total_s, rel=0.25)

    def test_degraded_link_slows_aggregation(self):
        sim = healthy(update_bytes=2_000_000)
        base = sim.iteration(8000)
        bad = with_network(sim, bandwidth_bps=0.25e9).iteration(8000)
        assert bad.total_s > 1.5 * base.total_s

    def test_drop_rate_adds_latency(self):
        """A lossy link's retransmits show up as extra per-message
        latency."""
        sim = healthy()
        base = sim.iteration(8000)
        flaky = with_network(sim, latency_s=50e-3).iteration(8000)
        assert flaky.total_s > base.total_s


class TestFleetJitter:
    def test_jitter_cost_grows_with_cluster(self):
        """With log-normal node variability, the max over nodes — and so
        the synchronous iteration time — grows with the fleet size.

        Compute-dominated parameters so the barrier effect is measured:
        at wire-dominated scale a straggler's extra compute hides under
        the aggregation/broadcast tail (sends are served in the order
        they reach the wire), which is correct but not what this test is
        about."""

        def slowdown(nodes):
            sim = healthy(nodes=nodes, compute_s=50e-3)
            base = sim.iteration(nodes * 1000).total_s
            rng = np.random.default_rng(7)
            factors = np.exp(np.abs(rng.normal(0.0, 0.3, size=nodes)))
            jittered = straggled(sim, dict(enumerate(factors.tolist())))
            return jittered.iteration(nodes * 1000).total_s / base

        assert slowdown(16) >= slowdown(2) * 0.95


class TestFaultTimeline:
    def test_empty_timeline_is_falsy(self):
        assert not FaultTimeline()
        assert FaultTimeline(crashes=(NodeCrash(1, 1.0),))

    def test_permanent_crash(self):
        tl = FaultTimeline(crashes=(NodeCrash(2, 1.0),))
        assert tl.alive(2, 0.99)
        assert not tl.alive(2, 1.0)
        assert not tl.alive(2, 100.0)
        assert tl.alive(3, 100.0)

    def test_crash_then_recover(self):
        tl = FaultTimeline(crashes=(NodeCrash(2, 1.0, recover_s=3.0),))
        assert not tl.alive(2, 2.0)
        assert tl.alive(2, 3.0)

    def test_partition_isolates_one_side(self):
        tl = FaultTimeline(
            partitions=(Partition(frozenset({4, 5}), 1.0, 2.0),)
        )
        assert tl.isolated(4, 0, 1.5)
        assert not tl.isolated(4, 5, 1.5)  # same island
        assert not tl.isolated(4, 0, 2.0)  # healed (half-open window)
        assert tl.alive(4, 1.5) and tl.alive(0, 1.5)  # up, but cut off
        assert not tl.up(4, 1.5, anchor=0)
        assert tl.up(4, 1.5, anchor=5)

    def test_change_times_and_first_outage(self):
        tl = FaultTimeline(
            crashes=(NodeCrash(1, 2.0, recover_s=5.0),),
            partitions=(Partition(frozenset({3}), 4.0, 6.0),),
        )
        assert tl.change_times() == [2.0, 4.0, 5.0, 6.0]
        assert tl.changes_in(2.0, 5.0) == [4.0, 5.0]  # (t0, t1]
        assert tl.first_outage_in(0.0, 3.0, 1, anchor=0) == 2.0
        assert tl.first_outage_in(0.0, 3.0, 3, anchor=0) is None
        assert tl.first_outage_in(3.0, 6.0, 3, anchor=0) == 4.0

    def test_from_iterations(self):
        tl = FaultTimeline.from_iterations(
            0.5,
            crashes={1: 2.0, 2: 4.0},
            recoveries={2: 6.0},
            partitions=[((3, 4), 1.0, 3.0)],
        )
        assert not tl.alive(1, 1.0)
        assert tl.alive(2, 3.1)  # recovered at 3.0s
        assert not tl.alive(2, 2.5)
        assert tl.isolated(3, 0, 1.0)

    def test_random_is_seeded_and_spares(self):
        a = FaultTimeline.random(16, 10.0, crash_probability=0.5, seed=4)
        b = FaultTimeline.random(16, 10.0, crash_probability=0.5, seed=4)
        assert a == b
        assert a != FaultTimeline.random(
            16, 10.0, crash_probability=0.5, seed=5
        )
        spared = FaultTimeline.random(
            8, 10.0, crash_probability=1.0, seed=4, spare=(0, 3)
        )
        crashed = {c.node_id for c in spared.crashes}
        assert crashed == set(range(8)) - {0, 3}

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: NodeCrash(0, -1.0),
            lambda: NodeCrash(0, 2.0, recover_s=1.0),
            lambda: Partition(frozenset(), 0.0, 1.0),
            lambda: Partition(frozenset({1}), 2.0, 1.0),
            lambda: FaultTimeline(
                crashes=(NodeCrash(0, 1.0), NodeCrash(0, 2.0))
            ),
            lambda: FaultTimeline.from_iterations(0.0, crashes={1: 1.0}),
            lambda: FaultTimeline.from_iterations(1.0, recoveries={1: 2.0}),
        ],
    )
    def test_invalid_timelines_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestRejectsNaN:
    """Each runtime time and factor check is written so that NaN fails
    it, keeping the message a bad finite value gets."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: QuorumConfig(deadline_s=NAN), "straggler deadline"),
            (lambda: HeartbeatConfig(period_s=NAN), "heartbeat period"),
            (lambda: HeartbeatConfig(timeout_s=NAN), "shorter than"),
            (lambda: RetryPolicy(timeout_s=NAN), "per-message timeout"),
            (lambda: RetryPolicy(backoff=NAN), "backoff factor"),
            (lambda: NodeCrash(0, NAN), "crash time"),
            (lambda: NodeCrash(0, 1.0, recover_s=NAN), "recovery at"),
            (lambda: Partition({1}, NAN, 1.0), "partition window"),
            (lambda: Partition({1}, 0.0, NAN), "partition window"),
            (lambda: FaultTimeline.from_iterations(NAN), "iteration_s"),
        ],
        ids=[
            "QuorumConfig.deadline_s",
            "HeartbeatConfig.period_s",
            "HeartbeatConfig.timeout_s",
            "RetryPolicy.timeout_s",
            "RetryPolicy.backoff",
            "NodeCrash.at_s",
            "NodeCrash.recover_s",
            "Partition.start_s",
            "Partition.end_s",
            "FaultTimeline.from_iterations",
        ],
    )
    def test_rejects_nan(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()
