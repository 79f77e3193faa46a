"""Tests for the Sigma pipeline: its two worker pools and the overlap
they give together."""

import pytest

from repro.runtime.threads import PoolConfig, SigmaPipeline


def _stream(pipe, chunks):
    """Feed ``(arrival, nbytes)`` chunks; returns their finish times."""
    return pipe.on_chunks([t for t, _ in chunks], [n for _, n in chunks])


class TestPoolConfig:
    # Thread counts: TestWorkerPool.test_rejects_empty_pool.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("copy_bytes_per_s", 0.0),
            ("aggregate_bytes_per_s", -4e9),
            ("aggregate_bytes_per_s", float("nan")),
            ("wakeup_overhead_s", -1e-6),
        ],
    )
    def test_rejects_invalid_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            PoolConfig(**{field: value})


class TestWorkerPool:
    """Dispatch on the pools: a work item goes to the first worker with
    the earliest start. ``fold_local`` books one aggregation of
    ``nbytes / aggregate_bytes_per_s`` seconds, so a rate of 1 byte/s
    makes each byte one second of work."""

    def _pipe(self, **pools):
        return SigmaPipeline(PoolConfig(aggregate_bytes_per_s=1.0, **pools))

    def test_parallel_up_to_size(self):
        pipe = self._pipe()
        a = pipe.fold_local(0.0, 1)
        b = pipe.fold_local(0.0, 1)
        c = pipe.fold_local(0.0, 1)
        assert a == 1.0 and b == 1.0
        assert c == 2.0  # third item waits for a worker
        # The networking pool follows the same rule: one-second copies.
        net = self._pipe(copy_bytes_per_s=1.0, wakeup_overhead_s=0.0)
        _stream(net, [(0.0, 1), (0.0, 1), (0.0, 1)])
        assert net.net_free == [2.0, 1.0]

    def test_reuses_earliest_free_worker(self):
        pipe = self._pipe()
        pipe.fold_local(0.0, 5)
        pipe.fold_local(0.0, 1)
        assert pipe.fold_local(0.0, 1) == 2.0

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError, match="networking_threads"):
            SigmaPipeline(PoolConfig(networking_threads=0))
        with pytest.raises(ValueError, match="aggregation_threads"):
            SigmaPipeline(PoolConfig(aggregation_threads=0))

    def test_busy_seconds(self):
        pipe = self._pipe()
        pipe.fold_local(0.0, 1)
        pipe.fold_local(0.0, 2)
        assert sum(pipe.agg_busy) == 3.0
        assert sum(pipe.net_busy) == 0.0  # a local partial skips the copy


class TestSigmaPipeline:
    def test_chunks_overlap_copy_and_aggregate(self):
        """Aggregation of chunk k overlaps the copy of chunk k+1 — the
        producer-consumer design of Figure 2."""
        cfg = PoolConfig(copy_bytes_per_s=1e6, aggregate_bytes_per_s=1e6)
        pipe = SigmaPipeline(cfg)
        chunk = 64 * 1024
        sequential = 2 * chunk / 1e6  # copy then aggregate, no overlap
        arrivals = [i * chunk / 1e6 for i in range(8)]
        finish = max(_stream(pipe, [(t, chunk) for t in arrivals]))
        # 8 chunks, overlapped: far less than 8x the sequential time.
        assert finish < 8 * sequential * 0.75

    def test_aggregation_tracks_bytes(self):
        pipe = SigmaPipeline(PoolConfig())
        _stream(pipe, [(0.0, 1000), (0.0, 2000)])
        assert pipe.bytes_aggregated == 3000

    def test_drained_at_monotonic(self):
        pipe = SigmaPipeline(PoolConfig())
        (t1,) = _stream(pipe, [(0.0, 64 * 1024)])
        (t2,) = _stream(pipe, [(t1, 64 * 1024)])
        assert pipe.drained_at == max(t1, t2)

    def test_limited_pool_becomes_bottleneck(self):
        slow = PoolConfig(
            networking_threads=1,
            aggregation_threads=1,
            copy_bytes_per_s=1e6,
            aggregate_bytes_per_s=1e5,
        )
        fast = PoolConfig(
            networking_threads=1,
            aggregation_threads=4,
            copy_bytes_per_s=1e6,
            aggregate_bytes_per_s=1e5,
        )

        def run(cfg):
            chunks = [(i * 0.01, 32 * 1024) for i in range(8)]
            return max(_stream(SigmaPipeline(cfg), chunks))

        assert run(fast) < run(slow)
