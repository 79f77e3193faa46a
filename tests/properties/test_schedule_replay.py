"""Differential property suite for the schedule-replay engine.

The contract under test: for any quorum-less cluster, replaying the
sends derived from its topology is *bit-identical* to the event-driven
reference simulation
(:func:`~tests.runtime.event_reference.event_driven_iteration`) — every
float of every :class:`IterationTiming` field, compared with ``==``, no
tolerances. Replay with its own NIC booking (``schedule._book_send``,
one scalar loop per message; each send goes to its Sigma's pipeline as
it is booked) and replay with :func:`scalar_book_send`, the
chunk-by-chunk reference booking below, must agree with it the same
way. :func:`schedule_trace`
must list exactly the sends the event-driven simulation issues, as
captured by :class:`SendLog` around :class:`Network`, and the timing
table must replay whenever any input of an iteration changes.
"""

import dataclasses
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import schedule
from repro.runtime.cluster import (
    ClusterSimulator,
    ClusterSpec,
    IterationTiming,
    QuorumConfig,
)
from repro.runtime.director import ROLE_DELTA, assign_roles, rebuild_topology
from repro.runtime.network import Network, NetworkConfig
from repro.runtime.schedule import replay_iteration, schedule_trace
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
        args = (sim.topology, sim.spec, sim.update_bytes, list(compute))
        replayed = replay_iteration(*args)
        with scalar_booking():
            scalar = replay_iteration(*args)
        assert_bit_identical(event, replayed, "event vs replay")
        assert_bit_identical(event, scalar, "event vs scalar")

    @given(clusters())
    @settings(max_examples=10, deadline=None)
    def test_one_trace_retimes_any_compute_profile(self, cluster):
        """The schedule is canonical: derived from the topology alone, it
        replays bit-identically under any compute profile."""
        sim, compute = cluster
        for scale in (0.0, 1.0, 3.5):
            times = [t * scale for t in compute]
            event = event_driven_iteration(
                sim.topology, sim.spec, sim.update_bytes, list(times)
            )
            replayed = replay_iteration(
                sim.topology, sim.spec, sim.update_bytes, list(times)
            )
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
        schedule.TIMINGS.clear()
        replayed = sim.iteration(batch)
        schedule.TIMINGS.clear()
        assert_bit_identical(event, replayed, "iteration() vs reference")


class TestTraceMatchesSimulation:
    @given(topologies())
    @settings(max_examples=40, deadline=None)
    def test_trace_lists_the_sends_the_simulation_issues(self, cluster):
        """Gather/reduce sends match as multisets (the replayer re-sorts
        them by start instant, and their receivers' contributor sets are
        what quorum windows close over); broadcast order matches
        exactly."""
        sim, compute = cluster
        with SendLog().attached() as log:
            event_driven_iteration(
                sim.topology, sim.spec, sim.update_bytes, list(compute)
            )
        gather, reduce_, broadcast = log.phases
        trace = schedule_trace(sim.topology, sim.update_bytes)
        assert sorted(trace[0]) == sorted(gather)
        assert sorted(trace[1]) == sorted(reduce_)
        assert list(trace[2]) == broadcast



QUORUM_RULES = (None, QuorumConfig(0.5, 1e-3), QuorumConfig(0.75, 5e-3))


@st.composite
def iteration_pairs(draw):
    """Inputs of two iterations that differ in exactly the drawn one, or
    in nothing. Every cluster has a Delta, so its master can move."""
    nodes = draw(st.integers(min_value=2, max_value=10))
    groups = draw(st.integers(min_value=1, max_value=nodes - 1))
    spec = ClusterSpec(nodes, groups, network=draw(network_configs))
    first = {
        "topology": assign_roles(nodes, groups),
        "spec": spec,
        "update_bytes": draw(update_sizes),
        "quorum": draw(st.sampled_from(QUORUM_RULES)),
        "compute": draw(
            st.lists(st.floats(0.0, 0.05), min_size=nodes, max_size=nodes)
        ),
    }
    changed = draw(st.sampled_from(
        ["roles", "groups", "update_bytes", "spec", "quorum", "compute", None]
    ))
    second = dict(first)
    topology = first["topology"]
    if changed == "roles":
        deltas = [r.node_id for r in topology.roles if r.role == ROLE_DELTA]
        second["topology"] = rebuild_topology(
            topology, range(nodes), prefer_master=draw(st.sampled_from(deltas))
        )
    elif changed == "groups":
        other = draw(st.integers(1, nodes).filter(lambda g: g != groups))
        second["topology"] = assign_roles(nodes, other)
    elif changed == "update_bytes":
        second["update_bytes"] += 1
    elif changed == "spec":
        latency = spec.network.latency_s + 1e-6
        network = dataclasses.replace(spec.network, latency_s=latency)
        second["spec"] = dataclasses.replace(spec, network=network)
    elif changed == "quorum":
        second["quorum"] = draw(
            st.sampled_from([q for q in QUORUM_RULES if q != first["quorum"]])
        )
    elif changed == "compute":
        node = draw(st.integers(0, nodes - 1))
        second["compute"] = [
            t + 1e-3 * (n == node) for n, t in enumerate(first["compute"])
        ]
    return changed, first, second


def memoised_iteration(inputs, batch):
    sim = ClusterSimulator(
        inputs["spec"],
        lambda node_id, samples: inputs["compute"][node_id],
        update_bytes=inputs["update_bytes"],
        topology=inputs["topology"],
    )
    return sim.iteration(batch, quorum=inputs["quorum"])


class TestTimingMemoKey:
    @given(iteration_pairs(), st.integers(min_value=1, max_value=50_000))
    @settings(max_examples=40, deadline=None)
    def test_second_iteration_replays_iff_an_input_differs(
        self, pair, batch
    ):
        """The timing table keys on roles (each naming its group), update
        size, spec, quorum rule and per-node compute times, so a second
        simulator with another group count has other roles. One that
        differs in any one input replays, and gets the event-driven
        reference's timing for its own inputs; one that differs in
        nothing is served the first one's timing."""
        changed, first, second = pair
        schedule.TIMINGS.clear()
        with mock.patch.object(
            schedule, "replay_iteration", wraps=schedule.replay_iteration
        ) as replay:
            earlier = memoised_iteration(first, batch)
            later = memoised_iteration(second, batch)
        schedule.TIMINGS.clear()
        event = event_driven_iteration(
            second["topology"],
            second["spec"],
            second["update_bytes"],
            second["compute"],
            second["quorum"],
        )
        assert_bit_identical(event, later, f"{changed} changed")
        if changed is None:
            assert replay.call_count == 1
            assert_bit_identical(earlier, later, "memo hit")
        else:
            assert replay.call_count == 2, f"{changed} changed, memo hit"
