"""Tests for the NIC/switch network model."""

import pytest

from repro.runtime.events import EventLoop
from repro.runtime.network import Network, NetworkConfig, RetryPolicy


def make(bandwidth=1e9, chunk=64 * 1024):
    loop = EventLoop()
    net = Network(loop, NetworkConfig(bandwidth_bps=bandwidth, chunk_bytes=chunk))
    return loop, net


class TestTransferTime:
    def test_large_message_dominated_by_wire_time(self):
        loop, net = make()
        nbytes = 10 * 1024 * 1024  # 10 MB at 1 Gbps ~= 80 ms
        done = net.send(0, 1, nbytes, start=0.0)
        loop.run()
        assert done == pytest.approx(nbytes * 8 / 1e9, rel=0.1)

    def test_higher_bandwidth_faster(self):
        _, slow = make(bandwidth=1e9)
        _, fast = make(bandwidth=10e9)
        nbytes = 4 * 1024 * 1024
        assert fast.send(0, 1, nbytes, 0.0) < slow.send(0, 1, nbytes, 0.0)

    def test_latency_floor_for_tiny_messages(self):
        loop, net = make()
        done = net.send(0, 1, 64, start=0.0)
        cfg = net.config
        assert done >= cfg.latency_s + cfg.per_message_overhead_s


class TestContention:
    def test_receiver_nic_serialises_two_senders(self):
        """Two nodes sending to one sigma take ~2x one sender's time."""
        loop, net = make()
        nbytes = 8 * 1024 * 1024
        one = net.send(1, 0, nbytes, 0.0)
        loop2, net2 = make()
        net2.send(1, 0, nbytes, 0.0)
        two = net2.send(2, 0, nbytes, 0.0)
        assert two > 1.8 * one

    def test_distinct_receivers_parallel(self):
        """The switch backplane is non-blocking: different destinations
        do not contend."""
        loop, net = make()
        nbytes = 8 * 1024 * 1024
        a = net.send(0, 1, nbytes, 0.0)
        loop2, net2 = make()
        net2.send(0, 1, nbytes, 0.0)
        # different source, different destination: fully parallel
        b = net2.send(2, 3, nbytes, 0.0)
        assert b == pytest.approx(a, rel=0.01)

    def test_full_duplex(self):
        """TX and RX of one NIC are independent directions."""
        loop, net = make()
        nbytes = 8 * 1024 * 1024
        out_done = net.send(0, 1, nbytes, 0.0)
        in_done = net.send(1, 0, nbytes, 0.0)
        solo = make()[1].send(0, 1, nbytes, 0.0)
        assert out_done == pytest.approx(solo, rel=0.05)
        assert in_done == pytest.approx(solo, rel=0.05)


class TestChunking:
    def test_chunks_delivered_incrementally(self):
        loop, net = make(chunk=1024)
        arrivals = []
        net.send(0, 1, 10 * 1024, 0.0, on_chunk=lambda t, n: arrivals.append((t, n)))
        loop.run()
        assert len(arrivals) == 10
        times = [t for t, _ in arrivals]
        assert times == sorted(times)
        assert sum(n for _, n in arrivals) == 10 * 1024

    def test_first_chunk_before_message_done(self):
        loop, net = make(chunk=64 * 1024)
        first = []
        done = net.send(
            0, 1, 4 * 1024 * 1024, 0.0, on_chunk=lambda t, n: first.append(t)
        )
        loop.run()
        assert first[0] < done / 4


class TestAccounting:
    def test_bytes_and_messages_counted(self):
        loop, net = make()
        net.send(0, 1, 1000, 0.0)
        net.send(1, 2, 2000, 0.0)
        assert net.bytes_sent == 3000
        assert net.messages_sent == 2

    def test_rejects_loopback(self):
        _, net = make()
        with pytest.raises(ValueError):
            net.send(0, 0, 100, 0.0)

    def test_rejects_empty(self):
        _, net = make()
        with pytest.raises(ValueError):
            net.send(0, 1, 0, 0.0)


class TestRetryPolicy:
    def test_attempt_schedule(self):
        policy = RetryPolicy(timeout_s=0.1, max_retries=2, backoff=2.0)
        assert policy.attempt_timeouts() == pytest.approx([0.1, 0.2, 0.4])
        assert policy.give_up_after_s() == pytest.approx(0.7)

    def test_no_retries_is_one_attempt(self):
        policy = RetryPolicy(timeout_s=0.3, max_retries=0)
        assert policy.attempt_timeouts() == [0.3]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
            {"max_retries": -1},
            {"backoff": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestNetworkConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("bandwidth_bps", 0.0),
            ("bandwidth_bps", -1e9),
            ("bandwidth_bps", float("nan")),
            ("chunk_bytes", 0),
            ("latency_s", -1e-6),
            ("per_message_overhead_s", -1e-6),
            ("per_chunk_overhead_s", -1e-6),
        ],
    )
    def test_rejects_invalid_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            NetworkConfig(**{field: value})

    def test_boundary_values_are_valid(self):
        NetworkConfig(
            latency_s=0.0,
            per_message_overhead_s=0.0,
            per_chunk_overhead_s=0.0,
            chunk_bytes=1,
        )
