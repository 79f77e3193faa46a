"""Differential property suite for the Sigma pipeline's chunk loop.

:meth:`SigmaPipeline.on_chunks` runs the copy dispatch, the circular-
buffer reservation and the aggregation dispatch as one loop over a chunk
stream. The reference below is the per-chunk method chain it replaced —
``Resource`` workers picked with ``min(key=...)``, and a buffer deque
re-sorted on every reservation — kept only here. Every finish time and
every piece of pipeline state must agree bit for bit (compared through
``repr``), including after an oversized chunk raises mid-stream; the
public ``WorkerPool.dispatch`` and ``CircularBuffer.reserve`` are held to
the same reference.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.events import Resource
from repro.runtime.threads import (
    CircularBuffer,
    PoolConfig,
    SigmaPipeline,
    WorkerPool,
)


class _RefPool:
    def __init__(self, workers):
        self.workers = [Resource(f"w{i}") for i in range(workers)]

    def dispatch(self, earliest, duration):
        worker = min(self.workers, key=lambda w: max(w.free_at, earliest))
        start = worker.acquire(earliest, duration)
        return start + duration


class _RefBuffer:
    def __init__(self, capacity):
        self.capacity = capacity
        self.occupied = deque()
        self.used = 0
        self.peak = 0
        self.stall = 0.0

    def reserve(self, when, nbytes, free_time):
        if nbytes > self.capacity:
            raise ValueError("chunk larger than the whole circular buffer")
        start = when
        self._drain(start)
        while self.used + nbytes > self.capacity:
            next_free = self.occupied[0][0]
            self.stall += max(0.0, next_free - start)
            start = max(start, next_free)
            self._drain(start)
        self.occupied.append((free_time, nbytes))
        self.occupied = deque(sorted(self.occupied))
        self.used += nbytes
        self.peak = max(self.peak, self.used)
        return start

    def _drain(self, now):
        while self.occupied and self.occupied[0][0] <= now:
            _, nbytes = self.occupied.popleft()
            self.used -= nbytes


class _RefPipeline:
    def __init__(self, cfg, capacity):
        self.cfg = cfg
        self.net = _RefPool(cfg.networking_threads)
        self.agg = _RefPool(cfg.aggregation_threads)
        self.buffer = _RefBuffer(capacity)
        self.until = 0.0
        self.total = 0

    def fold_local(self, ready, nbytes):
        agg_done = self.agg.dispatch(
            ready, nbytes / self.cfg.aggregate_bytes_per_s
        )
        self.until = max(self.until, agg_done)
        self.total += nbytes
        return agg_done

    def on_chunk(self, arrival, nbytes):
        cfg = self.cfg
        copy_s = nbytes / cfg.copy_bytes_per_s
        agg_s = nbytes / cfg.aggregate_bytes_per_s
        copy_done = self.net.dispatch(arrival + cfg.wakeup_overhead_s, copy_s)
        free_time_guess = copy_done + agg_s
        reserved = self.buffer.reserve(
            copy_done - copy_s, nbytes, free_time_guess
        )
        copy_done = reserved + copy_s
        agg_done = self.agg.dispatch(copy_done, agg_s)
        self.until = max(self.until, agg_done)
        self.total += nbytes
        return agg_done

    def state(self):
        buf = self.buffer
        return repr(
            (
                [w.free_at for w in self.net.workers],
                [w.busy_seconds for w in self.net.workers],
                [w.free_at for w in self.agg.workers],
                [w.busy_seconds for w in self.agg.workers],
                list(buf.occupied),
                buf.used,
                buf.peak,
                buf.stall,
                self.until,
                self.total,
            )
        )


def _state(pipe):
    buf = pipe.buffer
    return repr(
        (
            pipe.networking.free,
            pipe.networking.busy,
            pipe.aggregation.free,
            pipe.aggregation.busy,
            list(buf._occupied),
            buf.used_bytes,
            buf.peak_used,
            buf.stall_seconds,
            pipe.drained_at,
            pipe.bytes_aggregated,
        )
    )


pool_configs = st.builds(
    PoolConfig,
    networking_threads=st.integers(min_value=1, max_value=4),
    aggregation_threads=st.integers(min_value=1, max_value=4),
    copy_bytes_per_s=st.sampled_from([1e6, 6e9]),
    aggregate_bytes_per_s=st.sampled_from([1e5, 1e6, 4e9]),
    wakeup_overhead_s=st.sampled_from([0.0, 2e-6]),
)

# Gaps of 0 give equal arrival times (chunks landing on the same instant).
gaps = st.sampled_from([0.0, 0.0, 1e-9, 1e-6, 3e-5, 1e-3])
sizes = st.sampled_from([1, 7, 1000, 4096, 30_000, 65_536])


@st.composite
def streams(draw):
    """Arrival-ordered (arrival, nbytes) chunks, split into the batches
    successive ``on_chunks`` calls receive."""
    n = draw(st.integers(min_value=0, max_value=60))
    t = 0.0
    chunks = []
    for _ in range(n):
        t += draw(gaps)
        chunks.append((t, draw(sizes)))
    cuts = sorted(
        draw(st.lists(st.integers(min_value=0, max_value=n), max_size=4))
    )
    bounds = [0] + cuts + [n]
    return [chunks[a:b] for a, b in zip(bounds, bounds[1:])]


def _run_both(cfg, capacity, local, batches):
    """Feed the same batches to the loop and to the reference; returns
    (loop finishes, reference finishes, loop error, reference error)."""
    pipe = SigmaPipeline(cfg, buffer_bytes=capacity)
    ref = _RefPipeline(cfg, capacity)
    if local is not None:
        assert repr(pipe.fold_local(*local)) == repr(ref.fold_local(*local))
    got, want = [], []
    got_err = want_err = None
    try:
        for batch in batches:
            got.extend(
                pipe.on_chunks([t for t, _ in batch], [n for _, n in batch])
            )
    except ValueError as exc:
        got_err = exc
    try:
        for batch in batches:
            for t, n in batch:
                want.append(ref.on_chunk(t, n))
    except ValueError as exc:
        want_err = exc
    assert _state(pipe) == ref.state()
    return got, want, got_err, want_err


class TestOnChunksMatchesPerChunkReference:
    @given(
        pool_configs,
        # Tiny buffers (one or two chunks' worth) force producer stalls.
        st.sampled_from([65_536, 100_000, 200_000, 4 * 1024 * 1024]),
        st.one_of(
            st.none(),
            st.tuples(st.sampled_from([0.0, 1e-4]), sizes),
        ),
        streams(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, cfg, capacity, local, batches):
        got, want, got_err, want_err = _run_both(
            cfg, capacity, local, batches
        )
        assert got_err is None and want_err is None
        assert repr(got) == repr(want)

    @given(pool_configs, streams())
    @settings(max_examples=50, deadline=None)
    def test_oversized_chunk_raises_with_identical_state(
        self, cfg, batches
    ):
        """A chunk larger than the buffer raises ``ValueError`` where the
        reference did — after its copy was booked, before any buffer
        state moved — and every earlier chunk's effect is kept."""
        batches = batches + [[(1.0, 70_000), (1.0, 10)]]
        _, _, got_err, want_err = _run_both(cfg, 65_536, None, batches)
        assert isinstance(got_err, ValueError)
        assert isinstance(want_err, ValueError)

    def test_single_chunk_is_the_one_element_stream(self):
        cfg = PoolConfig(networking_threads=1, aggregation_threads=1)
        a = SigmaPipeline(cfg, buffer_bytes=100_000)
        b = SigmaPipeline(cfg, buffer_bytes=100_000)
        chunks = [(0.0, 65_536), (0.0, 65_536), (1e-6, 30_000)]
        singles = [a.on_chunk(t, n) for t, n in chunks]
        stream = b.on_chunks([t for t, _ in chunks], [n for _, n in chunks])
        assert repr(singles) == repr(stream)
        assert _state(a) == _state(b)
        assert a.buffer.stall_seconds > 0.0


class TestComponentsMatchReference:
    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 1e-6, 1e-3]),
                st.sampled_from([1e-9, 1e-6, 1e-3]),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_worker_pool_dispatch(self, workers, items):
        pool, ref = WorkerPool("p", workers), _RefPool(workers)
        got = [pool.dispatch(t, d) for t, d in items]
        want = [ref.dispatch(t, d) for t, d in items]
        assert repr(got) == repr(want)
        assert repr((pool.free, pool.busy_seconds())) == repr(
            (
                [w.free_at for w in ref.workers],
                sum(w.busy_seconds for w in ref.workers),
            )
        )

    @given(
        st.sampled_from([10, 100, 1000]),
        st.lists(
            st.tuples(gaps, st.integers(min_value=1, max_value=1000), gaps),
            max_size=40,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_circular_buffer_reserve(self, capacity, items):
        buf, ref = CircularBuffer(capacity), _RefBuffer(capacity)
        when = 0.0
        for gap, nbytes, hold in items:
            when += gap
            try:
                got = buf.reserve(when, nbytes, when + hold)
            except ValueError:
                with pytest.raises(ValueError):
                    ref.reserve(when, nbytes, when + hold)
                continue
            assert repr(got) == repr(ref.reserve(when, nbytes, when + hold))
        assert repr(
            (buf._occupied, buf.used_bytes, buf.peak_used, buf.stall_seconds)
        ) == repr((list(ref.occupied), ref.used, ref.peak, ref.stall))
