"""Observability tests: wire accounting and Sigma receive pressure."""


from repro.runtime.cluster import ClusterSimulator, ClusterSpec


def simulator(nodes, groups=None, update_bytes=500_000):
    return ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups),
        lambda nid, s: 1e-3,
        update_bytes,
    )


class TestWireAccounting:
    def test_bytes_counted(self):
        timing = simulator(4).iteration(4000)
        # 3 deltas up + 3 broadcasts down, one group.
        assert timing.wire_bytes == 6 * 500_000
        assert timing.wire_messages == 6

    def test_hierarchy_adds_inter_sigma_traffic(self):
        flat = simulator(8, groups=1).iteration(8000)
        grouped = simulator(8, groups=2).iteration(8000)
        # Grouped: 6 delta->sigma + 1 sigma->master + broadcast legs.
        assert grouped.wire_messages >= flat.wire_messages

    def test_single_node_no_wire(self):
        timing = simulator(1).iteration(1000)
        assert timing.wire_bytes == 0
        assert timing.wire_messages == 0


class TestSigmaPressure:
    def test_rx_utilization_bounded(self):
        timing = simulator(8).iteration(8000)
        assert 0.0 <= timing.sigma_rx_utilization() <= 1.0

    def test_flat_aggregation_hotter_sigma(self):
        """One master receiving 15 peers saturates its NIC more than the
        grouped hierarchy's sigmas do."""
        flat = simulator(16, groups=1, update_bytes=2_000_000)
        grouped = simulator(16, groups=4, update_bytes=2_000_000)
        assert (
            flat.iteration(16_000).sigma_rx_utilization()
            > grouped.iteration(16_000).sigma_rx_utilization()
        )

    def test_rx_busy_scales_with_model(self):
        small = simulator(8, update_bytes=10_000).iteration(8000)
        big = simulator(8, update_bytes=5_000_000).iteration(8000)
        assert big.sigma_rx_busy_s > 10 * small.sigma_rx_busy_s
