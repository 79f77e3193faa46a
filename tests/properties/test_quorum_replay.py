"""Differential property suite for quorum-window replay (format 2).

The contract: for any cluster and any :class:`QuorumConfig`, replaying
the :class:`ScheduleTrace` with the quorum rule evaluated on the booked
arrival arrays is *bit-identical* to the event-driven probe/withhold
reference simulation — every field of :class:`IterationTiming`,
including ``contributors`` and ``dropped``, compared with ``==``, no
tolerances. The same holds for faulted clusters (stragglers, degraded
links, re-formed hierarchies), with or without a quorum rule. The edge
cases the window rule can hit are pinned deterministically: drop-none
(``fraction=1.0`` degenerates to the barrier), drop-all-but-K (a tiny
deadline), and a deadline landing exactly on an arrival.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import schedule
from repro.runtime.cluster import (
    ClusterSimulator,
    ClusterSpec,
    IterationTiming,
    QuorumConfig,
)
from repro.runtime.director import assign_roles, rebuild_topology
from repro.runtime.faults import FaultSpec, apply_faults
from repro.runtime.network import NetworkConfig
from repro.runtime.schedule import replay_iteration, schedule_trace
from tests.properties.test_schedule_replay import scalar_booking
from tests.runtime import event_reference
from tests.runtime.event_reference import (
    event_driven_iteration,
    reference_engine,
)

network_configs = st.builds(
    NetworkConfig,
    bandwidth_bps=st.sampled_from([1e8, 1e9, 1e10]),
    latency_s=st.sampled_from([0.0, 5e-6, 50e-6]),
    per_message_overhead_s=st.sampled_from([0.0, 37e-6, 200e-6]),
    per_chunk_overhead_s=st.sampled_from([0.0, 5e-6]),
    chunk_bytes=st.sampled_from([4096, 65536, 100_000]),
)

update_sizes = st.sampled_from([7, 4_096, 65_536, 100_000, 333_333])

# Fractions cross the K=1, intermediate-K, and K=N regimes; deadlines
# range from certainly-dropping (0.1 ms) to certainly-waiting (50 ms,
# above the largest compute spread the cluster strategy can draw).
quorum_rules = st.builds(
    QuorumConfig,
    fraction=st.sampled_from([0.3, 0.5, 0.75, 0.9, 1.0]),
    deadline_s=st.sampled_from([1e-4, 1e-3, 5e-3, 5e-2]),
)


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


@st.composite
def faulted_clusters(draw):
    """A cluster re-formed over a random survivor set, its
    fault-injected clone, and the compute time the clone charges each
    survivor.

    The survivors keep their original, non-contiguous node ids; losing
    the master or a Sigma promotes a survivor, and ``prefer_master`` can
    promote any survivor to master. Stragglers and link qualities are
    drawn per node, as :func:`apply_faults` takes them."""
    nodes = draw(st.integers(min_value=1, max_value=12))
    groups = draw(st.integers(min_value=1, max_value=nodes))
    alive = draw(
        st.sets(
            st.integers(min_value=0, max_value=nodes - 1),
            min_size=1,
            max_size=nodes,
        )
    )
    prefer = draw(st.none() | st.sampled_from(sorted(alive)))
    topology = rebuild_topology(
        assign_roles(nodes, groups), alive, prefer_master=prefer
    )
    compute = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.05),
            min_size=nodes,
            max_size=nodes,
        )
    )
    healthy = ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups, network=draw(network_configs)),
        lambda node_id, samples: compute[node_id],
        update_bytes=draw(update_sizes),
        topology=topology,
    )
    ids = st.sampled_from(range(nodes))
    faults = FaultSpec(
        straggler=draw(
            st.dictionaries(ids, st.sampled_from([1.0, 1.5, 3.0, 20.0]))
        ),
        link_quality=draw(
            st.dictionaries(ids, st.sampled_from([0.1, 0.5, 0.9, 1.0]))
        ),
    )
    times = [
        compute[r.node_id] * faults.compute_factor(r.node_id)
        for r in topology.roles
    ]
    return healthy, apply_faults(healthy, faults), times


def assert_bit_identical(a: IterationTiming, b: IterationTiming, label: str):
    for f in dataclasses.fields(IterationTiming):
        left, right = getattr(a, f.name), getattr(b, f.name)
        assert left == right, (
            f"{label}: IterationTiming.{f.name} diverged: "
            f"{left!r} != {right!r}"
        )


def reference(sim, compute, rule=None):
    """The event-driven reference timing of one of ``sim``'s
    iterations."""
    return event_driven_iteration(
        sim.topology, sim.spec, sim.update_bytes, list(compute), rule
    )


def straggler_sim(nodes=8, groups=2, slow=(3, 6), factor=30.0):
    """Deterministic heterogeneous cluster: ``slow`` nodes compute
    ``factor``x slower than the 1 ms baseline."""
    compute = [1e-3 * (factor if n in slow else 1.0) for n in range(nodes)]
    sim = ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups),
        lambda node_id, samples: compute[node_id],
        update_bytes=100_000,
    )
    return sim, compute


class TestQuorumReplayDifferential:
    @given(clusters(), quorum_rules)
    @settings(max_examples=25, deadline=None)
    def test_replay_bit_identical_to_event_driven(self, cluster, rule):
        sim, compute = cluster
        event = reference(sim, compute, rule)
        trace = schedule_trace(sim.topology, sim.update_bytes)
        vectorized = replay_iteration(
            trace, sim.spec, list(compute), quorum=rule
        )
        with scalar_booking():
            scalar = replay_iteration(
                trace, sim.spec, list(compute), quorum=rule
            )
        assert_bit_identical(event, vectorized, "event vs vectorized")
        assert_bit_identical(event, scalar, "event vs scalar")

    @given(
        clusters(),
        quorum_rules,
        st.integers(min_value=1, max_value=50_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_public_iteration_agrees_with_replay_off(
        self, cluster, rule, batch
    ):
        """End-to-end: ``iteration(quorum=...)`` on the replay engine
        returns exactly what it returns routed through the event-driven
        reference."""
        sim, _ = cluster
        with reference_engine():
            event = sim.iteration(batch, quorum=rule)
        schedule.TRACES.clear()
        replayed = sim.iteration(batch, quorum=rule)
        schedule.TRACES.clear()
        assert_bit_identical(event, replayed, "iteration() vs reference")


class TestFaultedReplayDifferential:
    @given(
        faulted_clusters(),
        st.none() | quorum_rules,
        st.integers(min_value=1, max_value=50_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_faulted_iteration_bit_identical_to_event_driven(
        self, cluster, rule, batch
    ):
        """A faulted iteration's schedule is the schedule of its own
        (topology, spec): stragglers and degraded links change only the
        compute times and the network config, and a crash arrives as a
        re-formed topology. So ``iteration()`` on the replay engine must
        equal the event-driven reference on every field, even after the
        healthy parent has filled the schedule table for the same
        topology."""
        healthy, sim, times = cluster
        schedule.TRACES.clear()
        healthy.iteration(batch, quorum=rule)
        replayed = sim.iteration(batch, quorum=rule)
        schedule.TRACES.clear()
        event = reference(sim, times, rule)
        assert_bit_identical(event, replayed, "faulted iteration()")


class TestQuorumWindowEdges:
    def test_fraction_one_degenerates_to_barrier(self):
        """K=N closes the window at the last arrival regardless of the
        deadline — bit-identical to no quorum at all, nobody dropped."""
        sim, compute = straggler_sim()
        trace = schedule_trace(sim.topology, sim.update_bytes)
        barrier = replay_iteration(trace, sim.spec, list(compute))
        for deadline in (1e-6, 10.0):
            rule = QuorumConfig(fraction=1.0, deadline_s=deadline)
            event = reference(sim, compute, rule)
            replayed = replay_iteration(
                trace, sim.spec, list(compute), quorum=rule
            )
            assert_bit_identical(event, replayed, f"deadline={deadline}")
            assert_bit_identical(barrier, replayed, "vs barrier")
            assert replayed.dropped == []

    def test_tiny_deadline_drops_all_but_quorum(self):
        """drop-all-but-K: with K=1 per window and a deadline far under
        the straggler gap, only the window openers survive."""
        sim, compute = straggler_sim(slow=(1, 2, 3, 5, 6, 7), factor=100.0)
        rule = QuorumConfig(fraction=0.2, deadline_s=1e-4)
        event = reference(sim, compute, rule)
        trace = schedule_trace(sim.topology, sim.update_bytes)
        replayed = replay_iteration(
            trace, sim.spec, list(compute), quorum=rule
        )
        assert_bit_identical(event, replayed, "drop-all-but-K")
        assert len(replayed.dropped) > 0
        # The master opens its own window, so it always survives; a slow
        # delta can only be dropped, never promoted.
        master = sim.topology.master.node_id
        assert master in replayed.contributors
        assert master not in (1, 2, 3, 5, 6, 7)

    def test_deadline_landing_exactly_on_an_arrival(self, monkeypatch):
        """The tie case: a deadline that expires at the very instant a
        partial finishes. The window rule includes ties (``<= close``),
        and replay must resolve the tie the same way event-driven does.

        The exact arrival times are recovered from a capture run through
        ``_close_window`` (shared by both engines), spied on where the
        event-driven reference calls it, then each observed
        gap is fed back as ``deadline_s`` so the close lands exactly on
        a later contributor's arrival."""
        sim, compute = straggler_sim(slow=(3,), factor=20.0)
        captured = []
        real = event_reference._close_window

        def spy(contributions, quorum):
            captured.append(list(contributions))
            return real(contributions, quorum)

        monkeypatch.setattr(event_reference, "_close_window", spy)
        reference(sim, compute, QuorumConfig(fraction=1.0, deadline_s=10.0))
        monkeypatch.setattr(event_reference, "_close_window", real)

        window = max(captured, key=len)
        times = sorted(t for _, t in window)
        gaps = [t - times[0] for t in times[1:] if t > times[0]]
        assert gaps, "degenerate capture: every contribution tied"

        trace = schedule_trace(sim.topology, sim.update_bytes)
        for gap in gaps:
            rule = QuorumConfig(fraction=0.01, deadline_s=gap)
            event = reference(sim, compute, rule)
            replayed = replay_iteration(
                trace, sim.spec, list(compute), quorum=rule
            )
            assert_bit_identical(event, replayed, f"deadline={gap!r}")
            # the tied arrival itself must be included, not dropped
            tied = [n for n, t in window if t == times[0] + gap]
            assert set(tied) <= set(replayed.contributors)

    def test_memoized_quorum_iterations_stay_distinct(self):
        """The timing memo key carries the quorum rule: two different
        windows on the same cluster never collide, and a repeat of the
        same window is served from the memo unchanged."""
        schedule.TRACES.clear()
        sim, _ = straggler_sim()
        tight = QuorumConfig(fraction=0.5, deadline_s=1e-4)
        loose = QuorumConfig(fraction=1.0, deadline_s=10.0)
        first = sim.iteration(8_000, quorum=tight)
        again = sim.iteration(8_000, quorum=tight)
        barrier = sim.iteration(8_000, quorum=loose)
        assert_bit_identical(first, again, "memo round-trip")
        assert first.total_s < barrier.total_s
        assert first.dropped and not barrier.dropped
        schedule.TRACES.clear()
