"""Differential property suite for the schedule-replay engine.

The contract under test: for any quorum-less cluster, replaying the
:class:`ScheduleTrace` built from its topology is *bit-identical* to the
event-driven reference simulation
(:func:`~tests.runtime.event_reference.event_driven_iteration`) — every
float of every :class:`IterationTiming` field, compared with ``==``, no
tolerances. Replay with its NumPy NIC booking (``schedule._book_send``)
and replay with :func:`scalar_book_send`, the chunk-by-chunk reference
booking below, must agree with it the same way. The trace itself must
list exactly the sends the event-driven simulation issues, as captured
by :class:`SendLog` around :class:`Network`.
"""

import dataclasses
from collections import defaultdict
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import schedule
from repro.runtime.cluster import (
    ClusterSimulator,
    ClusterSpec,
    IterationTiming,
)
from repro.runtime.network import Network, NetworkConfig
from repro.runtime.schedule import (
    GATHER_PHASE,
    REDUCE_PHASE,
    replay_iteration,
    schedule_trace,
)
from tests.runtime.event_reference import (
    event_driven_iteration,
    reference_engine,
)

# Sampled (not continuous) parameters keep every example on a realistic
# operating point while still crossing the interesting structural
# boundaries: multi-chunk vs single-chunk messages, zero vs non-zero
# latency/overheads, exact chunk-boundary payloads.
network_configs = st.builds(
    NetworkConfig,
    bandwidth_bps=st.sampled_from([1e8, 1e9, 1e10]),
    latency_s=st.sampled_from([0.0, 5e-6, 50e-6]),
    per_message_overhead_s=st.sampled_from([0.0, 37e-6, 200e-6]),
    per_chunk_overhead_s=st.sampled_from([0.0, 5e-6]),
    chunk_bytes=st.sampled_from([4096, 65536, 100_000]),
)

update_sizes = st.sampled_from([7, 4_096, 65_536, 100_000, 333_333])


def scalar_book_send(ledger, cfg, src, dst, start, plan):
    """Reference NIC booking, one float at a time — the exact
    transcription of :meth:`Network.send`'s chunk loop that
    ``schedule._book_send`` must match bit for bit."""
    sizes = plan[0]
    cursor = start + cfg.per_message_overhead_s
    last_arrival = cursor
    arrivals = []
    tx_free = ledger.tx_free.get(src, 0.0)
    rx_free = ledger.rx_free.get(dst, 0.0)
    rx_busy = ledger.rx_busy.get(dst, 0.0)
    for chunk in sizes:
        wire = cfg.wire_seconds(chunk) + cfg.per_chunk_overhead_s
        tx_start = max(cursor, tx_free)
        tx_free = tx_start + wire
        arrival_earliest = tx_start + wire + cfg.latency_s
        rx_start = max(arrival_earliest - wire, rx_free)
        rx_free = rx_start + wire
        rx_busy += wire
        arrival = rx_start + wire
        cursor = tx_start + wire
        last_arrival = max(last_arrival, arrival)
        arrivals.append(arrival)
    ledger.tx_free[src] = tx_free
    ledger.rx_free[dst] = rx_free
    ledger.rx_busy[dst] = rx_busy
    return arrivals, last_arrival


@contextmanager
def scalar_booking():
    """Replay with :func:`scalar_book_send` in place of
    ``schedule._book_send``."""
    book = schedule._book_send
    schedule._book_send = scalar_book_send
    try:
        yield
    finally:
        schedule._book_send = book


@st.composite
def clusters(draw):
    """A ClusterSimulator plus heterogeneous per-node compute times."""
    nodes = draw(st.integers(min_value=1, max_value=12))
    groups = draw(st.integers(min_value=1, max_value=nodes))
    spec = ClusterSpec(
        nodes=nodes, groups=groups, network=draw(network_configs)
    )
    compute = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.05),
            min_size=nodes,
            max_size=nodes,
        )
    )
    sim = ClusterSimulator(
        spec,
        lambda node_id, samples: compute[node_id],
        update_bytes=draw(update_sizes),
    )
    return sim, compute


class SendLog:
    """Reference for :func:`schedule_trace`: the ``(src, dst, nbytes)``
    sends a real event-driven iteration issues, one list per phase.

    The reference binds a fresh event loop at each phase boundary
    (:meth:`Network.use_loop`), which marks the phase; every
    :meth:`Network.send` then lands in the current phase's list.
    """

    def __init__(self):
        self.phases = []

    @contextmanager
    def attached(self):
        real_use_loop, real_send = Network.use_loop, Network.send

        def use_loop(net, loop):
            self.phases.append([])
            return real_use_loop(net, loop)

        def send(net, src, dst, nbytes, *args, **kwargs):
            self.phases[-1].append((src, dst, nbytes))
            return real_send(net, src, dst, nbytes, *args, **kwargs)

        Network.use_loop, Network.send = use_loop, send
        try:
            yield self
        finally:
            Network.use_loop, Network.send = real_use_loop, real_send


@st.composite
def topologies(draw):
    """Any valid (nodes, groups) split up to 64 nodes, with update sizes
    on, and one byte either side of, whole multiples of the chunk."""
    nodes = draw(st.integers(min_value=1, max_value=64))
    groups = draw(st.integers(min_value=1, max_value=nodes))
    network = draw(network_configs)
    chunks = draw(st.integers(min_value=0, max_value=3))
    update = chunks * network.chunk_bytes + draw(st.sampled_from([-1, 0, 1]))
    compute = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.05),
            min_size=nodes,
            max_size=nodes,
        )
    )
    sim = ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups, network=network),
        lambda node_id, samples: compute[node_id],
        update_bytes=max(1, update),
    )
    return sim, compute


def assert_bit_identical(a: IterationTiming, b: IterationTiming, label: str):
    for f in dataclasses.fields(IterationTiming):
        left, right = getattr(a, f.name), getattr(b, f.name)
        assert left == right, (
            f"{label}: IterationTiming.{f.name} diverged: "
            f"{left!r} != {right!r}"
        )


class TestReplayDifferential:
    @given(clusters())
    @settings(max_examples=25, deadline=None)
    def test_replay_bit_identical_to_event_driven(self, cluster):
        sim, compute = cluster
        event = event_driven_iteration(
            sim.topology, sim.spec, sim.update_bytes, list(compute)
        )
        trace = schedule_trace(sim.topology, sim.update_bytes)
        vectorized = replay_iteration(trace, sim.spec, list(compute))
        with scalar_booking():
            scalar = replay_iteration(trace, sim.spec, list(compute))
        assert_bit_identical(event, vectorized, "event vs vectorized")
        assert_bit_identical(event, scalar, "event vs scalar")

    @given(clusters())
    @settings(max_examples=10, deadline=None)
    def test_one_trace_retimes_any_compute_profile(self, cluster):
        """The trace is canonical: built once from the topology, it
        replays bit-identically under compute profiles it never saw."""
        sim, compute = cluster
        trace = schedule_trace(sim.topology, sim.update_bytes)
        for scale in (0.0, 1.0, 3.5):
            times = [t * scale for t in compute]
            event = event_driven_iteration(
                sim.topology, sim.spec, sim.update_bytes, list(times)
            )
            replayed = replay_iteration(trace, sim.spec, list(times))
            assert_bit_identical(event, replayed, f"scale={scale}")

    @given(clusters(), st.integers(min_value=1, max_value=50_000))
    @settings(max_examples=10, deadline=None)
    def test_public_iteration_agrees_with_replay_off(self, cluster, batch):
        """End-to-end: ``iteration()`` on the replay engine returns
        exactly what it returns routed through the event-driven
        reference."""
        sim, _ = cluster
        with reference_engine():
            event = sim.iteration(batch)
        schedule.TRACES.clear()
        replayed = sim.iteration(batch)
        schedule.TRACES.clear()
        assert_bit_identical(event, replayed, "iteration() vs reference")


class TestTraceMatchesSimulation:
    @given(topologies())
    @settings(max_examples=40, deadline=None)
    def test_trace_lists_the_sends_the_simulation_issues(self, cluster):
        """Gather/reduce sends match as multisets (the replayer re-sorts
        them by start instant); broadcast order and every aggregation
        point's contributor set match exactly."""
        sim, compute = cluster
        with SendLog().attached() as log:
            event_driven_iteration(
                sim.topology, sim.spec, sim.update_bytes, list(compute)
            )
        gather, reduce_, broadcast = log.phases
        trace = schedule_trace(sim.topology, sim.update_bytes)
        assert sorted(trace.gather_sends) == sorted(gather)
        assert sorted(trace.reduce_sends) == sorted(reduce_)
        assert list(trace.broadcast_sends) == broadcast
        for phase, sends in ((GATHER_PHASE, gather), (REDUCE_PHASE, reduce_)):
            feeders = defaultdict(set)
            for src, dst, _ in sends:
                feeders[dst].add(src)
            assert {
                p.node_id: set(p.senders) for p in trace.points_for(phase)
            } == feeders
