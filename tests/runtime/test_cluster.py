"""Tests for role assignment and whole-cluster iteration timing."""

import pytest

from repro.runtime.cluster import ClusterSimulator, ClusterSpec
from repro.runtime.director import (
    ROLE_MASTER_SIGMA,
    ROLE_SIGMA,
    assign_roles,
    default_groups,
)


class TestDirector:
    def test_single_node(self):
        topo = assign_roles(1)
        assert topo.roles[0].role == ROLE_MASTER_SIGMA
        assert topo.groups == 1

    def test_sixteen_nodes_two_groups(self):
        topo = assign_roles(16)
        assert topo.groups == 2
        sigmas = topo.sigmas()
        assert len(sigmas) == 2
        assert sigmas[0].role == ROLE_MASTER_SIGMA
        assert sigmas[1].role == ROLE_SIGMA

    def test_deltas_report_to_group_sigma(self):
        topo = assign_roles(8, groups=2)
        for delta in topo.deltas_of(0):
            assert delta.group == 0
        for delta in topo.deltas_of(4):
            assert delta.group == 1

    def test_every_node_has_exactly_one_role(self):
        topo = assign_roles(13, groups=3)
        assert sorted(r.node_id for r in topo.roles) == list(range(13))

    def test_uneven_split(self):
        topo = assign_roles(5, groups=2)
        sizes = [len(topo.group_members(g)) for g in range(2)]
        assert sorted(sizes) == [2, 3]

    def test_default_groups_scale(self):
        assert default_groups(4) == 1
        assert default_groups(8) == 1
        assert default_groups(16) == 2

    @pytest.mark.parametrize("nodes,groups", [(0, None), (4, 0), (4, 5)])
    def test_invalid_configs(self, nodes, groups):
        with pytest.raises(ValueError):
            assign_roles(nodes, groups)


def simulator(nodes, compute_s=1e-3, update_bytes=40_000, **spec_kw):
    spec = ClusterSpec(nodes=nodes, **spec_kw)
    return ClusterSimulator(spec, lambda nid, s: compute_s, update_bytes)


class TestIterationTiming:
    def test_total_exceeds_compute(self):
        timing = simulator(4).iteration(4000)
        assert timing.total_s > timing.compute_s
        assert timing.compute_fraction < 1.0

    def test_more_nodes_more_aggregation_time(self):
        small = simulator(2).iteration(4000)
        big = simulator(16).iteration(4000)
        assert big.network_s > small.network_s

    def test_single_node_has_no_network(self):
        timing = simulator(1).iteration(1000)
        assert timing.network_s < 1e-3  # only the local fold

    def test_communication_grows_with_model_size(self):
        small = simulator(4, update_bytes=10_000).iteration(4000)
        big = simulator(4, update_bytes=10_000_000).iteration(4000)
        assert big.communication_s > 10 * small.communication_s

    def test_compute_fraction_rises_with_batch(self):
        """Figure 13: larger mini-batches shift runtime into compute."""
        sim = ClusterSimulator(
            ClusterSpec(nodes=3),
            lambda nid, samples: samples * 2e-6,
            update_bytes=500_000,
        )
        low = sim.iteration(3 * 500)
        high = sim.iteration(3 * 100_000)
        assert high.compute_fraction > low.compute_fraction
        assert low.compute_fraction < 0.5
        assert high.compute_fraction > 0.85

    def test_hierarchy_beats_flat_at_scale(self):
        """Grouped aggregation keeps the master NIC from serialising all
        fifteen peers' updates."""
        flat = ClusterSimulator(
            ClusterSpec(nodes=16, groups=1),
            lambda nid, s: 1e-3,
            update_bytes=2_000_000,
        ).iteration(16_000)
        grouped = ClusterSimulator(
            ClusterSpec(nodes=16, groups=4),
            lambda nid, s: 1e-3,
            update_bytes=2_000_000,
        ).iteration(16_000)
        assert grouped.total_s < flat.total_s

    def test_aggregation_busy_scales_with_senders(self):
        a = simulator(4).iteration(4000)
        b = simulator(8).iteration(8000)
        assert b.aggregation_busy_s > a.aggregation_busy_s

    def test_rejects_empty_update(self):
        with pytest.raises(ValueError):
            ClusterSimulator(ClusterSpec(nodes=2), lambda n, s: 0.0, 0)


class TestEpoch:
    def test_epoch_is_iterations_times_iteration(self):
        sim = simulator(4)
        timing = sim.iteration(4 * 1000)
        epoch = sim.epoch_seconds(40_000, minibatch_per_node=1000)
        assert epoch == pytest.approx(10 * timing.total_s, rel=1e-6)

    def test_larger_minibatch_fewer_iterations(self):
        sim = simulator(4, update_bytes=4_000_000)
        fast = sim.epoch_seconds(400_000, minibatch_per_node=100_000)
        slow = sim.epoch_seconds(400_000, minibatch_per_node=500)
        assert fast < slow
