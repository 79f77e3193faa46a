"""Fault-injection tests: stragglers dominate synchronous aggregation."""

import pytest

from repro.runtime.cluster import ClusterSimulator, ClusterSpec
from repro.runtime.faults import (
    FaultTimeline,
    NodeCrash,
    Partition,
    FaultSpec,
    apply_faults,
    faulty_compute,
)


def healthy(nodes=8, compute_s=10e-3, update_bytes=100_000):
    return ClusterSimulator(
        ClusterSpec(nodes=nodes), lambda nid, s: compute_s, update_bytes
    )


class TestFaultSpec:
    def test_defaults_are_healthy(self):
        spec = FaultSpec()
        assert spec.compute_factor(0) == 1.0
        assert spec.network_factor(0) == 1.0
        assert spec.expected_retransmit_s(0) == 0.0

    def test_single_straggler_factory(self):
        spec = FaultSpec.single_straggler(3, 4.0)
        assert spec.compute_factor(3) == 4.0
        assert spec.compute_factor(0) == 1.0

    def test_uniform_jitter_seeded(self):
        a = FaultSpec.uniform_jitter(8, sigma=0.2, seed=1)
        b = FaultSpec.uniform_jitter(8, sigma=0.2, seed=1)
        assert a.straggler == b.straggler
        assert all(f >= 1.0 for f in a.straggler.values())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"straggler": {0: 0.5}},
            {"link_quality": {0: 0.0}},
            {"link_quality": {0: 1.5}},
            {"drop_rate": {0: 1.0}},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_retransmit_expectation(self):
        spec = FaultSpec(drop_rate={0: 0.5}, retransmit_timeout_s=0.1)
        assert spec.expected_retransmit_s(0) == pytest.approx(0.1)


class TestInjection:
    def test_straggler_dominates_iteration(self):
        """Synchronous aggregation is a barrier: one 4x node costs ~4x
        compute time regardless of the other seven healthy nodes."""
        base = healthy().iteration(8 * 1000)
        slowed = apply_faults(
            healthy(), FaultSpec.single_straggler(5, 4.0)
        ).iteration(8 * 1000)
        assert slowed.compute_max_s == pytest.approx(4 * base.compute_max_s)
        assert slowed.total_s / base.total_s > 1.5

    def test_straggler_on_sigma_same_as_delta(self):
        """The barrier makes the straggler's role irrelevant."""
        on_sigma = apply_faults(
            healthy(), FaultSpec.single_straggler(0, 3.0)
        ).iteration(8000)
        on_delta = apply_faults(
            healthy(), FaultSpec.single_straggler(7, 3.0)
        ).iteration(8000)
        assert on_sigma.total_s == pytest.approx(on_delta.total_s, rel=0.25)

    def test_degraded_link_slows_aggregation(self):
        base = healthy(update_bytes=2_000_000).iteration(8000)
        bad = apply_faults(
            healthy(update_bytes=2_000_000), FaultSpec(link_quality={2: 0.25})
        ).iteration(8000)
        assert bad.total_s > 1.5 * base.total_s

    def test_drop_rate_adds_latency(self):
        base = healthy().iteration(8000)
        flaky = apply_faults(
            healthy(), FaultSpec(drop_rate={1: 0.2})
        ).iteration(8000)
        assert flaky.total_s > base.total_s

    def test_no_faults_identity(self):
        sim = healthy()
        assert apply_faults(sim, None) is sim

    def test_faulty_compute_wrapper(self):
        fn = faulty_compute(lambda nid, s: 1.0, FaultSpec.single_straggler(2, 5.0))
        assert fn(2, 10) == 5.0
        assert fn(0, 10) == 1.0


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
            jit = apply_faults(
                healthy(nodes=nodes, compute_s=50e-3),
                FaultSpec.uniform_jitter(nodes, sigma=0.3, seed=7),
            ).iteration(nodes * 1000).total_s
            return jit / base

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
        assert tl.reachable(4, 5, 1.5)
        assert not tl.reachable(4, 0, 1.5)
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

    def test_nonpositive_retransmit_timeout_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(retransmit_timeout_s=0.0)
        with pytest.raises(ValueError):
            FaultSpec(retransmit_timeout_s=-0.5)
