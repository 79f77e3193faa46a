"""Tests for thread pools, the circular buffer, and the Sigma pipeline."""

import pytest

from repro.runtime.threads import (
    CircularBuffer,
    PoolConfig,
    SigmaPipeline,
    WorkerPool,
)


class TestWorkerPool:
    def test_parallel_up_to_size(self):
        pool = WorkerPool("p", 2)
        a = pool.dispatch(0.0, 1.0)
        b = pool.dispatch(0.0, 1.0)
        c = pool.dispatch(0.0, 1.0)
        assert a == 1.0 and b == 1.0
        assert c == 2.0  # third item waits for a worker

    def test_reuses_earliest_free_worker(self):
        pool = WorkerPool("p", 2)
        pool.dispatch(0.0, 5.0)
        pool.dispatch(0.0, 1.0)
        assert pool.dispatch(0.0, 1.0) == 2.0

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            WorkerPool("p", 0)

    def test_busy_seconds(self):
        pool = WorkerPool("p", 2)
        pool.dispatch(0.0, 1.0)
        pool.dispatch(0.0, 2.0)
        assert pool.busy_seconds() == 3.0


class TestCircularBuffer:
    def test_reserve_when_space(self):
        buf = CircularBuffer(100)
        assert buf.reserve(0.0, 60, free_time=5.0) == 0.0
        assert buf.used_bytes == 60

    def test_backpressure_stalls_producer(self):
        buf = CircularBuffer(100)
        buf.reserve(0.0, 80, free_time=10.0)
        start = buf.reserve(1.0, 80, free_time=20.0)
        assert start == 10.0  # waited for the first chunk to drain
        assert buf.stall_seconds == pytest.approx(9.0)

    def test_drain_frees_space(self):
        buf = CircularBuffer(100)
        buf.reserve(0.0, 50, free_time=1.0)
        assert buf.reserve(2.0, 80, free_time=3.0) == 2.0
        assert buf.used_bytes == 80

    def test_peak_tracking(self):
        buf = CircularBuffer(100)
        buf.reserve(0.0, 40, free_time=10.0)
        buf.reserve(0.0, 40, free_time=10.0)
        assert buf.peak_used == 80

    def test_oversized_chunk_rejected(self):
        buf = CircularBuffer(100)
        with pytest.raises(ValueError):
            buf.reserve(0.0, 200, free_time=1.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            CircularBuffer(0)


class TestSigmaPipeline:
    def test_chunks_overlap_copy_and_aggregate(self):
        """Aggregation of chunk k overlaps the copy of chunk k+1 — the
        producer-consumer design of Figure 2."""
        cfg = PoolConfig(copy_bytes_per_s=1e6, aggregate_bytes_per_s=1e6)
        pipe = SigmaPipeline(cfg)
        chunk = 64 * 1024
        sequential = 2 * chunk / 1e6  # copy then aggregate, no overlap
        finish = 0.0
        arrivals = [i * chunk / 1e6 for i in range(8)]
        for t in arrivals:
            finish = max(finish, pipe.on_chunk(t, chunk))
        # 8 chunks, overlapped: far less than 8x the sequential time.
        assert finish < 8 * sequential * 0.75

    def test_aggregation_tracks_bytes(self):
        pipe = SigmaPipeline(PoolConfig())
        pipe.on_chunk(0.0, 1000)
        pipe.on_chunk(0.0, 2000)
        assert pipe.bytes_aggregated == 3000

    def test_drained_at_monotonic(self):
        pipe = SigmaPipeline(PoolConfig())
        t1 = pipe.on_chunk(0.0, 64 * 1024)
        t2 = pipe.on_chunk(t1, 64 * 1024)
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
            pipe = SigmaPipeline(cfg)
            finish = 0.0
            for i in range(8):
                finish = max(finish, pipe.on_chunk(i * 0.01, 32 * 1024))
            return finish

        assert run(fast) < run(slow)
