"""Differential property suite for the Sigma pipeline's chunk loop.

:meth:`SigmaPipeline.on_chunks` runs the copy dispatch and the
aggregation dispatch as one loop over a chunk stream. The reference
below is the per-chunk method chain it replaced — ``Resource`` workers
picked with ``min(key=...)`` — kept only here. Every finish time and
every piece of pipeline state must agree bit for bit (compared through
``repr``), including a local partial folded by
:meth:`SigmaPipeline.fold_local` before the stream.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.events import Resource
from repro.runtime.threads import PoolConfig, SigmaPipeline


class _RefPool:
    def __init__(self, workers):
        self.workers = [Resource(f"w{i}") for i in range(workers)]

    def dispatch(self, earliest, duration):
        worker = min(self.workers, key=lambda w: max(w.free_at, earliest))
        start = worker.acquire(earliest, duration)
        return start + duration


class _RefPipeline:
    def __init__(self, cfg):
        self.cfg = cfg
        self.net = _RefPool(cfg.networking_threads)
        self.agg = _RefPool(cfg.aggregation_threads)
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
        agg_done = self.agg.dispatch(copy_done, agg_s)
        self.until = max(self.until, agg_done)
        self.total += nbytes
        return agg_done

    def state(self):
        return repr(
            (
                [w.free_at for w in self.net.workers],
                [w.busy_seconds for w in self.net.workers],
                [w.free_at for w in self.agg.workers],
                [w.busy_seconds for w in self.agg.workers],
                self.until,
                self.total,
            )
        )


def _state(pipe):
    return repr(
        (
            pipe.net_free,
            pipe.net_busy,
            pipe.agg_free,
            pipe.agg_busy,
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


class TestOnChunksMatchesPerChunkReference:
    @given(
        pool_configs,
        st.one_of(
            st.none(),
            st.tuples(st.sampled_from([0.0, 1e-4]), sizes),
        ),
        streams(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, cfg, local, batches):
        pipe = SigmaPipeline(cfg)
        ref = _RefPipeline(cfg)
        if local is not None:
            local_done = pipe.fold_local(*local)
            assert repr(local_done) == repr(ref.fold_local(*local))
        got = []
        for batch in batches:
            got.extend(
                pipe.on_chunks([t for t, _ in batch], [n for _, n in batch])
            )
        want = [ref.on_chunk(t, n) for batch in batches for t, n in batch]
        assert repr(got) == repr(want)
        assert _state(pipe) == ref.state()

    def test_single_chunk_is_the_one_element_stream(self):
        """Calling ``on_chunks`` once per chunk leaves the same finishes
        and state as one call over the whole stream."""
        cfg = PoolConfig(networking_threads=1, aggregation_threads=1)
        a = SigmaPipeline(cfg)
        b = SigmaPipeline(cfg)
        chunks = [(0.0, 65_536), (0.0, 65_536), (1e-6, 30_000)]
        singles = [a.on_chunks((t,), (n,))[0] for t, n in chunks]
        stream = b.on_chunks([t for t, _ in chunks], [n for _, n in chunks])
        assert repr(singles) == repr(stream)
        assert _state(a) == _state(b)
