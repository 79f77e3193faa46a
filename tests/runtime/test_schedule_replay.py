"""Sends derived from the topology, the timing table, and the replay
engine's routing."""

import pytest

from repro.runtime import schedule
from repro.runtime.cluster import ClusterSimulator, ClusterSpec, QuorumConfig
from repro.runtime.director import assign_roles
from repro.runtime.schedule import replay_iteration, schedule_trace
from repro.runtime.threads import PoolConfig, SigmaPipeline
from tests.runtime.event_reference import (
    event_driven_iteration,
    reference_engine,
)


@pytest.fixture(autouse=True)
def fresh_table():
    schedule.TIMINGS.clear()
    yield
    schedule.TIMINGS.clear()


def table_key(sim):
    return (tuple(sim.topology.roles), sim.update_bytes)


def spy_replays(monkeypatch):
    """Spy on ``replay_iteration``; returns the list of quorum rules its
    calls received."""
    calls = []
    real = schedule.replay_iteration
    monkeypatch.setattr(
        schedule,
        "replay_iteration",
        lambda *a, **k: calls.append(k.get("quorum")) or real(*a, **k),
    )
    return calls


def make_sim(nodes=8, groups=2, update_bytes=100_000, compute=1e-3):
    return ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups),
        lambda node_id, samples: compute,
        update_bytes=update_bytes,
    )


class TestRecording:
    def test_trace_structure_matches_topology(self):
        sim = make_sim(nodes=9, groups=3, update_bytes=12_345)
        gather, reduce_, broadcast = schedule_trace(
            sim.topology, sim.update_bytes
        )
        topo = sim.topology
        deltas = topo.nodes - len(topo.sigmas())
        # gather: every delta to its sigma; reduce: every non-master
        # sigma to the master; broadcast: master->sigmas + sigma->deltas.
        assert len(gather) == deltas
        assert len(reduce_) == len(topo.sigmas()) - 1
        assert len(broadcast) == (len(topo.sigmas()) - 1) + deltas
        assert all(
            nb == 12_345 for _, _, nb in gather + reduce_ + broadcast
        )

    def test_single_node_trace_is_empty(self):
        sim = make_sim(nodes=1, groups=1)
        assert schedule_trace(sim.topology, sim.update_bytes) == ((), (), ())

    def test_cache_key_tracks_schedule_inputs(self):
        """Groups and update size each get their own table."""
        make_sim(nodes=8, groups=2).iteration(8_000)
        make_sim(nodes=8, groups=4).iteration(8_000)
        make_sim(nodes=8, groups=2, update_bytes=200_000).iteration(8_000)
        assert len(schedule.TIMINGS) == 3


class TestTraceCaching:
    def test_trace_recorded_once_across_minibatches(self, monkeypatch):
        """The compute model ignores the sample count here, so every
        minibatch hits the first replay's timing, and only that replay
        derives the sends."""
        recordings = []
        real = schedule.schedule_trace
        monkeypatch.setattr(
            schedule,
            "schedule_trace",
            lambda *a: recordings.append(1) or real(*a),
        )
        sim = make_sim()
        sim.iteration(8_000)
        sim.iteration(16_000)
        sim.iteration(24_000)
        assert len(recordings) == 1
        assert list(schedule.TIMINGS) == [table_key(sim)]

    def test_iteration_memoised_and_transparent(self):
        sim = make_sim(nodes=8, groups=2)
        memoised = sim.iteration(8_000)
        again = sim.iteration(8_000)
        (timings,) = schedule.TIMINGS.values()
        assert len(timings) == 1
        with reference_engine():
            event = sim.iteration(8_000)
        assert memoised == again == event
        # Hits hand out private list fields, not the memoised instance's.
        again.contributors.append(-1)
        again.dropped.append(-1)
        assert sim.iteration(8_000).contributors == memoised.contributors
        assert sim.iteration(8_000).dropped == memoised.dropped

    def test_stateful_compute_fn_defeats_memo(self):
        import itertools

        ticks = itertools.count(1)
        sim = ClusterSimulator(
            ClusterSpec(nodes=4),
            lambda node_id, samples: 1e-3 * next(ticks),
            update_bytes=100_000,
        )
        first = sim.iteration(4_000)
        second = sim.iteration(4_000)
        # Different injected compute times -> different keys -> a fresh
        # replay, not a stale hit.
        assert first.total_s != second.total_s


class TestReplayGating:
    def test_quorum_iterations_replay(self, monkeypatch):
        """A quorum iteration goes through the replayer, which receives
        the quorum rule."""
        calls = spy_replays(monkeypatch)
        rule = QuorumConfig(fraction=0.5)
        timing = make_sim().iteration(8_000, quorum=rule)
        assert timing.total_s > 0
        assert calls == [rule]


class TestReplayValidation:
    def test_compute_times_length_checked(self):
        sim = make_sim(nodes=4, groups=2)
        with pytest.raises(ValueError, match="compute times"):
            replay_iteration(
                sim.topology, sim.spec, sim.update_bytes, [1e-3] * 3
            )


class TestEndToEnd:
    def test_epoch_seconds_identical_with_and_without_replay(self):
        sim = make_sim(nodes=6, groups=2)
        with reference_engine():
            reference = sim.epoch_seconds(10_000, 128)
        assert sim.epoch_seconds(10_000, 128) == reference

    def test_replay_used_on_the_cached_path(self, monkeypatch):
        """Positive control: on the memoised path the replayer genuinely
        is the engine that runs."""
        calls = spy_replays(monkeypatch)
        make_sim().iteration(8_000)
        assert len(calls) == 1


class TestSenderDoneTime:
    def test_done_time_is_latest_fold_not_last_chunk(self, monkeypatch):
        """A delta's partial is complete when the last of its chunks is
        folded, which need not be its last chunk. Here the aggregation
        pool is slow: the full chunk folds on one worker while the
        one-byte trailing chunk lands and folds on the other worker
        first. Replay must still match the event-driven reference, so
        the sender's done time has to be the max over its chunks."""
        spec = ClusterSpec(
            nodes=2, groups=1, pools=PoolConfig(aggregate_bytes_per_s=1e8)
        )
        args = (assign_roles(2, 1), spec, spec.network.chunk_bytes + 1)
        folds = []
        on_chunks = SigmaPipeline.on_chunks

        def spy(pipe, arrivals, sizes):
            folds.append(on_chunks(pipe, arrivals, sizes))
            return folds[-1]

        with monkeypatch.context() as patch:
            patch.setattr(SigmaPipeline, "on_chunks", spy)
            replayed = replay_iteration(*args, [1e-3, 1e-3])
        (finishes,) = folds
        assert len(finishes) == 2 and finishes[-1] < finishes[0]
        assert replayed == event_driven_iteration(*args, [1e-3, 1e-3])
