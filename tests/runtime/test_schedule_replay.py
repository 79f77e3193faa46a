"""Schedule traces, the trace table, and the replay engine's routing."""

import dataclasses

import pytest

from repro.runtime import schedule
from repro.runtime.cluster import ClusterSimulator, ClusterSpec, QuorumConfig
from repro.runtime.schedule import (
    GATHER_PHASE,
    REDUCE_PHASE,
    SCHEDULE_FORMAT,
    replay_iteration,
    schedule_trace,
)
from tests.runtime.event_reference import reference_engine


@pytest.fixture(autouse=True)
def fresh_table():
    schedule.TRACES.clear()
    yield
    schedule.TRACES.clear()


def table_key(sim):
    return (tuple(sim.topology.roles), sim.topology.groups, sim.update_bytes)


def make_sim(nodes=8, groups=2, update_bytes=100_000, compute=1e-3):
    return ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups),
        lambda node_id, samples: compute,
        update_bytes=update_bytes,
    )


class TestRecording:
    def test_trace_structure_matches_topology(self):
        sim = make_sim(nodes=9, groups=3, update_bytes=12_345)
        trace = schedule_trace(sim.topology, sim.update_bytes)
        topo = sim.topology
        deltas = topo.nodes - len(topo.sigmas())
        assert trace.format_version == SCHEDULE_FORMAT
        assert trace.nodes == 9
        assert trace.groups == 3
        assert trace.update_bytes == 12_345
        # gather: every delta to its sigma; reduce: every non-master
        # sigma to the master; broadcast: master->sigmas + sigma->deltas.
        assert len(trace.gather_sends) == deltas
        assert len(trace.reduce_sends) == len(topo.sigmas()) - 1
        assert len(trace.broadcast_sends) == (
            len(topo.sigmas()) - 1
        ) + deltas
        assert trace.wire_messages == (
            len(trace.gather_sends)
            + len(trace.reduce_sends)
            + len(trace.broadcast_sends)
        )
        assert all(nb == 12_345 for _, _, nb in trace.gather_sends)
        assert trace.topology().roles == list(topo.roles)

    def test_single_node_trace_is_empty(self):
        sim = make_sim(nodes=1, groups=1)
        trace = schedule_trace(sim.topology, sim.update_bytes)
        assert trace.wire_messages == 0
        assert trace.arrival_points == ()

    def test_arrival_points_cover_every_aggregation_point(self):
        sim = make_sim(nodes=9, groups=3, update_bytes=200_000)
        trace = schedule_trace(sim.topology, sim.update_bytes)
        topo = sim.topology
        gather = trace.points_for(GATHER_PHASE)
        reduce_ = trace.points_for(REDUCE_PHASE)
        # One gather point per sigma with deltas, one reduce point at the
        # master, and nothing else.
        assert len(trace.arrival_points) == len(gather) + len(reduce_)
        assert {p.node_id for p in gather} == {
            s.node_id for s in topo.sigmas()
        }
        (master_point,) = reduce_
        assert master_point.node_id == topo.master.node_id
        master_id = topo.master.node_id
        assert sorted(master_point.senders) == sorted(
            s.node_id for s in topo.sigmas() if s.node_id != master_id
        )
        for point in gather:
            sigma = next(
                s for s in topo.sigmas() if s.node_id == point.node_id
            )
            expected = {
                r.node_id
                for r in topo.roles
                if r.group == sigma.group and r.node_id != sigma.node_id
            }
            assert set(point.senders) == expected

    def test_cache_key_tracks_schedule_inputs(self):
        """Groups and update size each get their own table entry."""
        make_sim(nodes=8, groups=2).iteration(8_000)
        make_sim(nodes=8, groups=4).iteration(8_000)
        make_sim(nodes=8, groups=2, update_bytes=200_000).iteration(8_000)
        assert len(schedule.TRACES) == 3

class TestTraceCaching:
    def test_trace_recorded_once_across_minibatches(self, monkeypatch):
        import repro.runtime.schedule as schedule_mod

        recordings = []
        real = schedule_mod.schedule_trace
        monkeypatch.setattr(
            schedule_mod,
            "schedule_trace",
            lambda *a: recordings.append(1) or real(*a),
        )
        sim = make_sim()
        sim.iteration(8_000)
        sim.iteration(16_000)
        sim.iteration(24_000)
        assert len(recordings) == 1
        assert list(schedule.TRACES) == [table_key(sim)]

    def test_mismatched_cached_trace_is_rejected(self):
        sim = make_sim(update_bytes=100_000)
        wrong = schedule_trace(sim.topology, 999)
        schedule.TRACES[table_key(sim)] = (wrong, {})
        with pytest.raises(RuntimeError, match="different cluster"):
            sim.iteration(8_000)

    def test_iteration_memoised_and_transparent(self):
        sim = make_sim(nodes=8, groups=2)
        memoised = sim.iteration(8_000)
        again = sim.iteration(8_000)
        (_, timings), = schedule.TRACES.values()
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
        """Since format 2 the quorum gate is lifted: a quorum iteration
        goes through the replayer (and receives the quorum rule)."""
        import repro.runtime.schedule as schedule_mod

        calls = []
        real = schedule_mod.replay_iteration
        monkeypatch.setattr(
            schedule_mod,
            "replay_iteration",
            lambda *a, **k: calls.append(k.get("quorum")) or real(*a, **k),
        )
        rule = QuorumConfig(fraction=0.5)
        timing = make_sim().iteration(8_000, quorum=rule)
        assert timing.total_s > 0
        assert calls == [rule]


class TestReplayValidation:
    def test_format_version_mismatch_rejected(self):
        sim = make_sim()
        trace = schedule_trace(sim.topology, sim.update_bytes)
        stale = dataclasses.replace(trace, format_version=SCHEDULE_FORMAT + 1)
        with pytest.raises(RuntimeError, match="re-record"):
            replay_iteration(stale, sim.spec, [1e-3] * 8)

    def test_compute_times_length_checked(self):
        sim = make_sim(nodes=4, groups=2)
        trace = schedule_trace(sim.topology, sim.update_bytes)
        with pytest.raises(ValueError, match="compute times"):
            replay_iteration(trace, sim.spec, [1e-3] * 3)


class TestEndToEnd:
    def test_epoch_seconds_identical_with_and_without_replay(self):
        sim = make_sim(nodes=6, groups=2)
        with reference_engine():
            reference = sim.epoch_seconds(10_000, 128)
        assert sim.epoch_seconds(10_000, 128) == reference

    def test_replay_used_on_the_cached_path(self, monkeypatch):
        """Positive control: on the memoised path the replayer genuinely
        is the engine that runs."""
        import repro.runtime.schedule as schedule_mod

        calls = []
        real = schedule_mod.replay_iteration
        monkeypatch.setattr(
            schedule_mod,
            "replay_iteration",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        make_sim().iteration(8_000)
        assert len(calls) == 1
