"""Schedule recording, the trace table, and the replay gating rules."""

import dataclasses

import pytest

from repro.runtime import (
    ClusterSimulator,
    ClusterSpec,
    QuorumConfig,
    record_schedule,
    replay_disabled,
    replay_enabled,
    replay_iteration,
)
from repro.runtime import schedule
from repro.runtime.schedule import (
    GATHER_PHASE,
    REDUCE_PHASE,
    SCHEDULE_FORMAT,
    EnvError,
    ScheduleRecorder,
)


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
        trace = record_schedule(sim)
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
        trace = record_schedule(make_sim(nodes=1, groups=1))
        assert trace.wire_messages == 0
        assert trace.arrival_points == ()

    def test_arrival_points_cover_every_aggregation_point(self):
        sim = make_sim(nodes=9, groups=3, update_bytes=200_000)
        trace = record_schedule(sim)
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

    def test_arrival_point_chunks_match_recorded_bookings(self):
        import math

        sim = make_sim(nodes=6, groups=2, update_bytes=200_000)
        trace = record_schedule(sim)
        chunk_bytes = sim.spec.network.chunk_bytes
        for point in trace.arrival_points:
            for src, count, arrivals, tx_starts in zip(
                point.senders,
                point.chunk_counts,
                point.recorded_arrivals,
                point.recorded_tx_starts,
            ):
                nbytes = next(
                    nb
                    for s, d, nb in (
                        trace.gather_sends + trace.reduce_sends
                    )
                    if s == src and d == point.node_id
                )
                assert count == math.ceil(nbytes / chunk_bytes)
                assert len(arrivals) == count
                assert len(tx_starts) == count
                assert list(arrivals) == sorted(arrivals)
                # every chunk lands after its TX chain started
                assert all(a > t for a, t in zip(arrivals, tx_starts))

    def test_arrival_point_senders_ordered_by_completion(self):
        trace = record_schedule(make_sim(nodes=8, groups=2))
        for point in trace.arrival_points:
            finals = [a[-1] for a in point.recorded_arrivals]
            assert finals == sorted(finals)

    def test_cache_key_tracks_schedule_inputs(self):
        """Groups and update size each get their own table entry."""
        make_sim(nodes=8, groups=2).iteration(8_000)
        make_sim(nodes=8, groups=4).iteration(8_000)
        make_sim(nodes=8, groups=2, update_bytes=200_000).iteration(8_000)
        assert len(schedule.TRACES) == 3

    def test_recorder_rejects_send_before_phase(self):
        recorder = ScheduleRecorder()
        with pytest.raises(RuntimeError, match="before the first phase"):
            recorder.on_send(0, 1, 100, 0.0, 1)

    def test_recorder_rejects_extra_phases(self):
        recorder = ScheduleRecorder()
        for _ in range(3):
            recorder.on_phase()
        with pytest.raises(RuntimeError, match="more than 3"):
            recorder.on_phase()


class TestTraceCaching:
    def test_trace_recorded_once_across_minibatches(self, monkeypatch):
        import repro.runtime.schedule as schedule_mod

        recordings = []
        real = schedule_mod.record_schedule
        monkeypatch.setattr(
            schedule_mod,
            "record_schedule",
            lambda sim: recordings.append(1) or real(sim),
        )
        sim = make_sim()
        sim.iteration(8_000)
        sim.iteration(16_000)
        sim.iteration(24_000)
        assert len(recordings) == 1
        assert list(schedule.TRACES) == [table_key(sim)]

    def test_mismatched_cached_trace_is_rejected(self):
        sim = make_sim(update_bytes=100_000)
        wrong = record_schedule(make_sim(update_bytes=999))
        schedule.TRACES[table_key(sim)] = (wrong, {})
        with pytest.raises(RuntimeError, match="different cluster"):
            sim.iteration(8_000)

    def test_iteration_memoised_and_transparent(self):
        sim = make_sim(nodes=8, groups=2)
        memoised = sim.iteration(8_000)
        again = sim.iteration(8_000)
        (_, timings), = schedule.TRACES.values()
        assert len(timings) == 1
        with replay_disabled():
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
    def test_kill_switch_forces_event_driven(self, monkeypatch):
        import repro.runtime.schedule as schedule_mod

        monkeypatch.setattr(
            schedule_mod,
            "replay_iteration",
            lambda *a, **k: pytest.fail("replay fired with the kill switch"),
        )
        monkeypatch.setenv("REPRO_SCHEDULE_REPLAY", "0")
        timing = make_sim().iteration(8_000)
        assert timing.total_s > 0

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

    def test_kill_switch_covers_quorum_iterations(self, monkeypatch):
        import repro.runtime.schedule as schedule_mod

        monkeypatch.setattr(
            schedule_mod,
            "replay_iteration",
            lambda *a, **k: pytest.fail("replay fired with the kill switch"),
        )
        monkeypatch.setenv("REPRO_SCHEDULE_REPLAY", "0")
        timing = make_sim().iteration(
            8_000, quorum=QuorumConfig(fraction=0.5)
        )
        assert timing.total_s > 0

    def test_replay_enabled_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCHEDULE_REPLAY", raising=False)
        assert replay_enabled()
        for off in ("0", "false", "FALSE"):
            monkeypatch.setenv("REPRO_SCHEDULE_REPLAY", off)
            assert not replay_enabled()
        monkeypatch.setenv("REPRO_SCHEDULE_REPLAY", "1")
        assert replay_enabled()

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("False", False), ("no", False), ("off", False),
        ("", False),
    ])
    def test_flag_accepted_spellings(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_SCHEDULE_REPLAY", raw)
        assert replay_enabled() is expected

    def test_flag_rejects_junk(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE_REPLAY", "maybe")
        with pytest.raises(EnvError, match="REPRO_SCHEDULE_REPLAY"):
            replay_enabled()

    def test_replay_disabled_restores_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE_REPLAY", "1")
        with replay_disabled():
            assert not replay_enabled()
        assert replay_enabled()
        monkeypatch.delenv("REPRO_SCHEDULE_REPLAY")
        with replay_disabled():
            assert not replay_enabled()
        import os

        assert "REPRO_SCHEDULE_REPLAY" not in os.environ


class TestReplayValidation:
    def test_format_version_mismatch_rejected(self):
        sim = make_sim()
        trace = record_schedule(sim)
        stale = dataclasses.replace(trace, format_version=SCHEDULE_FORMAT + 1)
        with pytest.raises(RuntimeError, match="re-record"):
            replay_iteration(stale, sim.spec, [1e-3] * 8)

    def test_compute_times_length_checked(self):
        sim = make_sim(nodes=4, groups=2)
        trace = record_schedule(sim)
        with pytest.raises(ValueError, match="compute times"):
            replay_iteration(trace, sim.spec, [1e-3] * 3)


class TestEndToEnd:
    def test_epoch_seconds_identical_with_and_without_replay(self):
        sim = make_sim(nodes=6, groups=2)
        with replay_disabled():
            reference = sim.epoch_seconds(10_000, 128)
        assert sim.epoch_seconds(10_000, 128) == reference

    def test_replay_used_on_the_cached_path(self, monkeypatch):
        """Positive control for the gating tests: on the healthy memoised
        path the replayer genuinely is the engine that runs."""
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
