"""Property-based tests on runtime invariants: event ordering, buffer
semantics, NIC serialisation, and aggregation correctness."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfg.translate import translate
from repro.dsl.parser import parse
from repro.runtime.cluster import ClusterSimulator, ClusterSpec
from repro.runtime.director import assign_roles
from repro.runtime.events import EventLoop, Resource
from repro.runtime.network import Network
from repro.runtime.threads import CircularBuffer
from repro.runtime.trainer import DistributedTrainer

LINREG = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
"""


class TestEventLoopProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_execution_order_sorted(self, times):
        loop = EventLoop()
        seen = []
        for t in times:
            loop.at(t, (lambda tt: (lambda: seen.append(tt)))(t))
        loop.run()
        assert seen == sorted(seen)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=0.001, max_value=10),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_resource_never_overlaps(self, requests):
        resource = Resource()
        intervals = []
        for earliest, duration in sorted(requests):
            start = resource.acquire(earliest, duration)
            intervals.append((start, start + duration))
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-9


class TestCircularBufferProperties:
    @given(
        st.integers(min_value=1, max_value=64),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=16),
                st.floats(min_value=0.01, max_value=1.0),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_occupancy_never_exceeds_capacity(self, capacity, chunks):
        buf = CircularBuffer(capacity)
        clock = 0.0
        for size, hold in chunks:
            if size > capacity:
                continue
            start = buf.reserve(clock, size, free_time=clock + hold)
            clock = max(clock, start) + 0.001
            assert buf.used_bytes <= capacity
            assert buf.peak_used <= capacity

    @given(st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=20))
    def test_fifo_progress(self, sizes):
        """Producers always eventually make progress (no deadlock)."""
        buf = CircularBuffer(10)
        clock = 0.0
        for size in sizes:
            start = buf.reserve(clock, size, free_time=clock + 0.5)
            assert start >= clock - 1e-12
            clock = start + 0.01


class TestNetworkProperties:
    @given(
        st.lists(
            st.integers(min_value=1, max_value=10**6), min_size=1, max_size=10
        )
    )
    @settings(max_examples=30)
    def test_shared_receiver_serialises(self, sizes):
        """Total delivery time to one node is at least the wire time of
        all bytes (the sigma NIC is the bottleneck)."""
        loop = EventLoop()
        net = Network(loop)
        done = 0.0
        for i, nbytes in enumerate(sizes):
            done = max(done, net.send(i + 1, 0, nbytes, 0.0))
        loop.run()
        wire = sum(sizes) * 8 / net.config.bandwidth_bps
        assert done >= wire

    @given(st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=30)
    def test_chunks_conserve_bytes(self, nbytes):
        loop = EventLoop()
        net = Network(loop)
        got = []
        net.send(0, 1, nbytes, 0.0, on_chunk=lambda t, n: got.append(n))
        loop.run()
        assert sum(got) == nbytes


class TestTopologyProperties:
    @given(st.integers(min_value=1, max_value=64), st.data())
    def test_partition_complete_and_disjoint(self, nodes, data):
        groups = data.draw(st.integers(min_value=1, max_value=nodes))
        topo = assign_roles(nodes, groups)
        all_ids = sorted(r.node_id for r in topo.roles)
        assert all_ids == list(range(nodes))
        sigma_count = len(topo.sigmas())
        assert sigma_count == groups
        for role in topo.roles:
            members = topo.group_members(role.group)
            assert role in members

    @given(st.integers(min_value=2, max_value=64))
    def test_exactly_one_master(self, nodes):
        topo = assign_roles(nodes)
        masters = [r for r in topo.roles if r.role == "master_sigma"]
        assert len(masters) == 1
        assert masters[0].node_id == 0


class TestTrainingProperties:
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_loss_decreases_for_any_topology(self, nodes, threads, seed):
        rng = np.random.default_rng(seed)
        n, N = 6, 256
        w = rng.normal(size=n)
        X = rng.normal(size=(N, n))
        Y = X @ w
        trainer = DistributedTrainer(
            translate(parse("mu = 0.05;" + LINREG), {"n": n}),
            nodes=nodes,
            threads_per_node=threads,
            seed=seed,
        )
        def mse(m, f):
            return float(np.mean((f["x"] @ m["w"] - f["y"]) ** 2))
        result = trainer.train(
            {"x": X, "y": Y}, epochs=5, minibatch_per_worker=8, loss_fn=mse
        )
        assert result.final_loss < result.loss_history[0]

    @given(st.integers(min_value=1, max_value=24))
    @settings(max_examples=20, deadline=None)
    def test_iteration_time_positive_and_finite(self, nodes):
        sim = ClusterSimulator(
            ClusterSpec(nodes=nodes), lambda nid, s: 1e-4, update_bytes=4096
        )
        timing = sim.iteration(nodes * 100)
        assert 0 < timing.total_s < 10
        assert timing.compute_s <= timing.total_s


class TestChaosProperties:
    """Any fault timeline that leaves survivors must terminate (no
    barrier deadlock) and must replay bit-identically under a fixed
    seed — the fault machinery is deterministic pure data."""

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.1, max_value=0.8),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_surviving_timelines_terminate_deterministically(
        self, seed, crash_probability, recover_fraction
    ):
        from repro.runtime.director import HeartbeatConfig
        from repro.runtime.faults import FaultTimeline
        from repro.runtime.network import RetryPolicy
        from repro.runtime.recovery import FaultToleranceConfig, chaos_train

        nodes = 6
        spec = ClusterSpec(nodes=nodes, groups=2)
        rng = np.random.default_rng(3)
        n, N = 4, 128
        w = rng.normal(size=n)
        X = rng.normal(size=(N, n))
        translation = translate(parse("mu = 0.05;" + LINREG), {"n": n})
        def compute(nid, s):
            return 2e-3
        it_s = ClusterSimulator(spec, compute, 10_000).iteration(24).total_s
        # The master (node 0) is spared, so survivors always exist.
        timeline = FaultTimeline.random(
            nodes,
            horizon_s=8 * it_s,
            crash_probability=crash_probability,
            recover_fraction=recover_fraction,
            seed=seed,
        )
        config = FaultToleranceConfig(
            heartbeat=HeartbeatConfig(period_s=it_s / 2, timeout_s=2 * it_s),
            retry=RetryPolicy(timeout_s=it_s / 2, max_retries=1),
            checkpoint_every=3,
        )

        def run():
            return chaos_train(
                translation,
                {"x": X, "y": X @ w},
                spec,
                compute,
                10_000,
                timeline=timeline,
                config=config,
                epochs=2,
                minibatch_per_worker=4,
                seed=7,
            )

        a = run()  # terminating at all is the headline property
        b = run()
        assert a.iterations == 2 * (N // (4 * nodes))
        assert np.isfinite(a.simulated_seconds)
        assert a.simulated_seconds == b.simulated_seconds
        assert [(e.kind, e.nodes) for e in a.events] == [
            (e.kind, e.nodes) for e in b.events
        ]
        np.testing.assert_array_equal(a.model["w"], b.model["w"])
