"""Barrier-free batch timing against its synchronous counterpart."""

import pytest

from repro.runtime.async_sgd import async_batch_seconds, sync_batch_seconds


class TestTiming:
    def test_equal_nodes_same_time(self):
        compute = {i: 0.01 for i in range(8)}
        sync = sync_batch_seconds(compute, 100_000)
        asyn = async_batch_seconds(compute, 100_000)
        assert asyn <= sync * 1.01

    def test_straggler_hurts_sync_more(self):
        """The async fleet absorbs a 8x straggler; the barrier cannot."""
        compute = {i: 0.01 for i in range(8)}
        compute[7] = 0.08
        sync = sync_batch_seconds(compute, 100_000)
        asyn = async_batch_seconds(compute, 100_000)
        assert sync > 3 * asyn

    def test_async_never_faster_than_fastest_node(self):
        compute = {0: 0.01, 1: 0.02}
        assert async_batch_seconds(compute, 1000) >= 0.01

    def test_wire_bound_when_model_large(self):
        compute = {i: 1e-5 for i in range(4)}
        t = async_batch_seconds(compute, update_bytes=10_000_000)
        assert t >= 10_000_000 * 8 / 1e9 * 0.9

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            async_batch_seconds({}, 1000)
        with pytest.raises(ValueError):
            sync_batch_seconds({}, 1000)
