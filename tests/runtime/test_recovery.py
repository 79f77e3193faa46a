"""Fault-tolerant runtime: detection, failover, quorum, and recovery."""

import numpy as np
import pytest

from repro.dfg.translate import translate
from repro.dsl.parser import parse
from repro.runtime.cluster import ClusterSimulator, ClusterSpec, QuorumConfig
from repro.runtime.director import (
    HeartbeatConfig,
    assign_roles,
    rebuild_topology,
    rehierarchy_seconds,
)
from repro.runtime.faults import FaultSpec, FaultTimeline, faulty_compute
from repro.runtime.network import RetryPolicy
from repro.runtime.recovery import (
    SCENARIOS,
    FaultToleranceConfig,
    chaos_train,
    scenario_timeline,
)
from repro.runtime.trainer import DistributedTrainer

LINREG = """
mu = 0.05;
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
"""


@pytest.fixture
def problem():
    rng = np.random.default_rng(3)
    n, N = 6, 512
    w = rng.normal(size=n)
    X = rng.normal(size=(N, n))
    return translate(parse(LINREG), {"n": n}), {"x": X, "y": X @ w}


def mse(model, feeds):
    return float(np.mean((feeds["x"] @ model["w"] - feeds["y"]) ** 2))


SPEC = ClusterSpec(nodes=8, groups=2)
UPDATE_BYTES = 100_000


def flat_compute(node_id, samples):
    return 5e-3


def iteration_seconds():
    return (
        ClusterSimulator(SPEC, flat_compute, UPDATE_BYTES)
        .iteration(64)
        .total_s
    )


def ft_config(iteration_s, **kwargs):
    return FaultToleranceConfig(
        heartbeat=HeartbeatConfig(
            period_s=iteration_s / 2, timeout_s=3 * iteration_s
        ),
        retry=RetryPolicy(timeout_s=iteration_s / 2, max_retries=2),
        checkpoint_every=4,
        **kwargs,
    )


def run_chaos(problem, timeline, config, seed=5, **kwargs):
    translation, feeds = problem
    return chaos_train(
        translation,
        feeds,
        SPEC,
        flat_compute,
        UPDATE_BYTES,
        timeline=timeline,
        config=config,
        epochs=2,
        minibatch_per_worker=8,
        loss_fn=mse,
        seed=seed,
        **kwargs,
    )


class TestHeartbeat:
    def test_detection_bounded_by_period_plus_timeout(self):
        hb = HeartbeatConfig(period_s=0.1, timeout_s=0.5)
        for crash in (0.0, 0.05, 0.1, 0.33, 1.27):
            at = hb.detection_at(crash)
            assert at >= crash
            assert at - crash <= hb.period_s + hb.timeout_s
            # Detection happens on a heartbeat tick.
            assert at == pytest.approx(
                round(at / hb.period_s) * hb.period_s
            )

    def test_crash_on_tick(self):
        hb = HeartbeatConfig(period_s=0.1, timeout_s=0.5)
        # Last beat at 0.2, silent past 0.7, declared on the 0.7 tick.
        assert hb.detection_at(0.2) == pytest.approx(0.7)

    def test_timeout_shorter_than_period_rejected(self):
        with pytest.raises(ValueError):
            HeartbeatConfig(period_s=0.2, timeout_s=0.1)
        with pytest.raises(ValueError):
            HeartbeatConfig(period_s=0.0)


class TestRebuildTopology:
    def test_delta_death_keeps_sigmas(self):
        base = assign_roles(8, 2)
        dead_delta = base.deltas_of(base.sigmas()[1].node_id)[0].node_id
        topo = rebuild_topology(base, set(range(8)) - {dead_delta})
        assert topo.nodes == 7
        assert topo.master.node_id == base.master.node_id
        assert {s.node_id for s in topo.sigmas()} == {
            s.node_id for s in base.sigmas()
        }

    def test_sigma_death_promotes_lowest_survivor(self):
        base = assign_roles(8, 2)
        sigma = next(
            s for s in base.sigmas() if s.node_id != base.master.node_id
        )
        orphans = [d.node_id for d in base.deltas_of(sigma.node_id)]
        topo = rebuild_topology(base, set(range(8)) - {sigma.node_id})
        replacement = next(
            s for s in topo.sigmas() if s.group == sigma.group
        )
        assert replacement.node_id == min(orphans)
        assert topo.master.node_id == base.master.node_id

    def test_master_death_promotes_a_new_master(self):
        base = assign_roles(8, 2)
        master = base.master.node_id
        topo = rebuild_topology(base, set(range(8)) - {master})
        assert master not in {r.node_id for r in topo.roles}
        # The role goes to the lowest-id group Sigma of the re-formed
        # hierarchy — here the promoted survivor of the master's group.
        new_master = topo.master
        assert new_master.node_id == min(
            s.node_id for s in topo.sigmas()
        )
        assert new_master.group == base.master.group

    def test_whole_group_death_dissolves_group(self):
        base = assign_roles(8, 2)
        doomed = {r.node_id for r in base.group_members(1)}
        topo = rebuild_topology(base, set(range(8)) - doomed)
        assert topo.nodes == 8 - len(doomed)
        assert {r.group for r in topo.roles} == {0}

    def test_no_survivors_raises(self):
        with pytest.raises(ValueError):
            rebuild_topology(assign_roles(4), set())

    def test_prefer_master_stickiness(self):
        base = assign_roles(8, 2)
        master = base.master.node_id
        promoted = rebuild_topology(base, set(range(8)) - {master})
        new_master = promoted.master.node_id
        # The old master rejoins: the promoted one keeps the role.
        rejoined = rebuild_topology(
            base, set(range(8)), prefer_master=new_master
        )
        assert rejoined.master.node_id == new_master

    def test_rehierarchy_cost_scales_with_survivors(self):
        net = SPEC.network
        small = rehierarchy_seconds(2, net, SPEC.management_overhead_s)
        large = rehierarchy_seconds(16, net, SPEC.management_overhead_s)
        assert 0 < small < large
        with pytest.raises(ValueError):
            rehierarchy_seconds(0, net, SPEC.management_overhead_s)


class TestQuorum:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuorumConfig(fraction=0.0)
        with pytest.raises(ValueError):
            QuorumConfig(fraction=1.5)
        with pytest.raises(ValueError):
            QuorumConfig(deadline_s=0.0)
        assert QuorumConfig(fraction=0.75).quorum(4) == 3
        assert QuorumConfig(fraction=0.5).quorum(1) == 1

    def test_hashable(self):
        """QuorumConfig keys the schedule table's timing memo: hashable
        (frozen dataclass), equal exactly when the configs match, and
        distinct from the barrier's ``None``."""
        a = QuorumConfig(fraction=0.5, deadline_s=1e-3)
        same = QuorumConfig(fraction=0.5, deadline_s=1e-3)
        other = QuorumConfig(fraction=0.5, deadline_s=2e-3)
        assert hash(a) == hash(same)
        assert a == same and a != other
        assert len({a, same, other, None}) == 3

    def test_straggler_dropped_and_iteration_shortened(self):
        healthy = iteration_seconds()
        slow = faulty_compute(
            flat_compute, FaultSpec.single_straggler(7, 20.0)
        )
        sim = ClusterSimulator(SPEC, slow, UPDATE_BYTES)
        quorum = QuorumConfig(fraction=0.5, deadline_s=2 * healthy)
        q = sim.iteration(64, quorum=quorum)
        barrier = sim.iteration(64)
        assert q.dropped == [7]
        assert 7 not in q.contributors
        # The closed window must not wait for (or queue behind) the
        # straggler's partial: the whole iteration beats the barrier.
        assert q.total_s < barrier.total_s / 3
        assert q.total_s < healthy * 1.1

    def test_no_straggler_quorum_matches_barrier(self):
        sim = ClusterSimulator(SPEC, flat_compute, UPDATE_BYTES)
        quorum = QuorumConfig(fraction=0.5, deadline_s=1.0)
        q = sim.iteration(64, quorum=quorum)
        assert q.dropped == []
        assert q.total_s == sim.iteration(64).total_s

    def test_dropped_shards_change_the_mathematics(self, problem):
        it_s = iteration_seconds()
        quorum = QuorumConfig(fraction=0.5, deadline_s=2 * it_s)
        straggler = faulty_compute(
            flat_compute, FaultSpec.single_straggler(7, 20.0)
        )
        translation, feeds = problem
        degraded = chaos_train(
            translation,
            feeds,
            SPEC,
            straggler,
            UPDATE_BYTES,
            config=ft_config(it_s, quorum=quorum),
            epochs=1,
            minibatch_per_worker=8,
            loss_fn=mse,
        )
        full = run_chaos(problem, FaultTimeline(), ft_config(it_s), seed=0)
        assert degraded.dropped_partials > 0
        # Excluded shards mean a genuinely different (but converging) run.
        assert degraded.loss_history != full.loss_history[: len(
            degraded.loss_history
        )]
        assert degraded.final_loss < degraded.loss_history[0]


class TestChaosTrain:
    def test_healthy_run_matches_plain_trainer(self, problem):
        translation, feeds = problem
        config = ft_config(iteration_seconds())
        res = run_chaos(problem, FaultTimeline(), config, seed=5)
        plain = DistributedTrainer(translation, nodes=8, seed=5).train(
            feeds, epochs=2, minibatch_per_worker=8, loss_fn=mse
        )
        assert res.events == []
        assert res.loss_history == plain.loss_history
        np.testing.assert_array_equal(res.model["w"], plain.model["w"])

    def test_master_kill_recovers_within_bounds(self, problem):
        it_s = iteration_seconds()
        config = ft_config(it_s)
        topology = assign_roles(8, 2)
        healthy = run_chaos(problem, FaultTimeline(), config)
        res = run_chaos(
            problem, scenario_timeline("master-crash", topology, it_s), config
        )
        assert res.iterations == healthy.iterations
        (event,) = [e for e in res.events if e.kind != "rejoin"]
        assert event.kind == "crash"
        assert event.nodes == [topology.master.node_id]
        assert event.promoted_master is not None
        assert event.rollback_iterations > 0
        # Finite, accounted time-to-recovery; no hang, no free lunch.
        assert 0 < res.time_to_recovery_s < 1.0
        assert res.simulated_seconds > healthy.simulated_seconds
        assert np.isfinite(res.simulated_seconds)
        # Acceptance: final loss within 5% of the uninterrupted run.
        delta = abs(res.final_loss - healthy.final_loss) / healthy.final_loss
        assert delta < 0.05

    @pytest.mark.parametrize(
        "scenario", [name for name in SCENARIOS if name != "healthy"]
    )
    def test_scenario_recovers_within_bounds(self, problem, scenario):
        """Every canned fault scenario recovers in finite time and ends
        within 5% of the uninterrupted run's loss."""
        it_s = iteration_seconds()
        config = ft_config(it_s)
        timeline = scenario_timeline(scenario, assign_roles(8, 2), it_s)
        healthy = run_chaos(problem, FaultTimeline(), config)
        res = run_chaos(problem, timeline, config)
        assert 0 < res.time_to_recovery_s < 1.0
        delta = abs(res.final_loss - healthy.final_loss) / healthy.final_loss
        assert delta < 0.05

    def test_delta_crash_redistributes_shards(self, problem):
        it_s = iteration_seconds()
        topology = assign_roles(8, 2)
        timeline = scenario_timeline("delta-crash", topology, it_s)
        res = run_chaos(problem, timeline, ft_config(it_s))
        (event,) = res.events
        assert event.kind == "crash"
        assert event.rollback_iterations == 0  # no master state lost
        assert res.topology.nodes == 7
        assert res.iterations == 16  # full run completed on survivors

    def test_crash_recover_rejoins(self, problem):
        it_s = iteration_seconds()
        topology = assign_roles(8, 2)
        timeline = scenario_timeline("crash-recover", topology, it_s)
        res = run_chaos(problem, timeline, ft_config(it_s))
        kinds = [e.kind for e in res.events]
        assert "crash" in kinds and "rejoin" in kinds
        assert res.topology.nodes == 8  # back to full strength
        rejoin = next(e for e in res.events if e.kind == "rejoin")
        assert rejoin.total_s > 0  # state transfer is not free

    def test_partition_heals(self, problem):
        it_s = iteration_seconds()
        topology = assign_roles(8, 2)
        timeline = scenario_timeline("partition", topology, it_s)
        res = run_chaos(problem, timeline, ft_config(it_s))
        assert any(e.kind == "partition" for e in res.events)
        assert any(e.kind == "rejoin" for e in res.events)
        assert res.topology.nodes == 8

    def test_deterministic_replay(self, problem):
        it_s = iteration_seconds()
        topology = assign_roles(8, 2)
        timeline = scenario_timeline("flaky", topology, it_s)
        a = run_chaos(problem, timeline, ft_config(it_s))
        b = run_chaos(problem, timeline, ft_config(it_s))
        assert a.loss_history == b.loss_history
        assert a.simulated_seconds == b.simulated_seconds
        assert [(e.kind, e.nodes, e.time_s) for e in a.events] == [
            (e.kind, e.nodes, e.time_s) for e in b.events
        ]
        np.testing.assert_array_equal(a.model["w"], b.model["w"])

    def test_all_nodes_dead_raises(self, problem):
        it_s = iteration_seconds()
        timeline = FaultTimeline.from_iterations(
            it_s, crashes={n: 1.5 for n in range(8)}
        )
        with pytest.raises(RuntimeError):
            run_chaos(problem, timeline, ft_config(it_s))

    def test_scenario_names_validated(self):
        with pytest.raises(ValueError):
            scenario_timeline("meteor-strike", assign_roles(4), 0.01)
