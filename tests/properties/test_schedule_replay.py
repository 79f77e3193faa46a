"""Differential property suite for the schedule-replay engine.

The contract under test: for any healthy, quorum-less cluster, replaying
a recorded :class:`ScheduleTrace` is *bit-identical* to re-running the
full event-driven simulation — every float of every
:class:`IterationTiming` field, compared with ``==``, no tolerances. The
vectorized (NumPy) replayer and the pure-scalar reference replayer must
agree with each other the same way.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    ClusterSimulator,
    ClusterSpec,
    IterationTiming,
    NetworkConfig,
    record_schedule,
    replay_disabled,
    replay_iteration,
)
from repro.runtime import schedule

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
        event = sim._iteration_uncached(None, list(compute))
        trace = record_schedule(sim)
        vectorized = replay_iteration(
            trace, sim.spec, list(compute), vectorized=True
        )
        scalar = replay_iteration(
            trace, sim.spec, list(compute), vectorized=False
        )
        assert_bit_identical(event, vectorized, "event vs vectorized")
        assert_bit_identical(event, scalar, "event vs scalar")

    @given(clusters())
    @settings(max_examples=10, deadline=None)
    def test_one_trace_retimes_any_compute_profile(self, cluster):
        """The trace is canonical: recorded once (with zero compute), it
        replays bit-identically under compute profiles it never saw."""
        sim, compute = cluster
        trace = record_schedule(sim)
        for scale in (0.0, 1.0, 3.5):
            times = [t * scale for t in compute]
            event = sim._iteration_uncached(None, list(times))
            replayed = replay_iteration(trace, sim.spec, list(times))
            assert_bit_identical(event, replayed, f"scale={scale}")

    @given(clusters(), st.integers(min_value=1, max_value=50_000))
    @settings(max_examples=10, deadline=None)
    def test_public_iteration_agrees_with_replay_off(self, cluster, batch):
        """End-to-end: ``iteration()`` with the replay engine active
        returns exactly what the full simulation returns with the
        ``REPRO_SCHEDULE_REPLAY=0`` kill switch thrown."""
        sim, _ = cluster
        with replay_disabled():
            event = sim.iteration(batch)
        schedule.TRACES.clear()
        replayed = sim.iteration(batch)
        schedule.TRACES.clear()
        assert_bit_identical(event, replayed, "iteration() vs kill switch")
