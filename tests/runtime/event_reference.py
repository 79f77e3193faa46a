"""Event-driven reference simulation of one cluster iteration.

The package times every iteration by schedule replay
(:func:`repro.runtime.schedule.replay_iteration`). This module keeps the
discrete-event simulation replay was derived from, as the reference the
differential suites compare it against: every chunk of every message is
booked on :class:`~repro.runtime.network.Network` NICs and delivered to
the Sigma pipelines through an :class:`~repro.runtime.events.EventLoop`.

:func:`reference_engine` routes :meth:`ClusterSimulator.iteration`
through :func:`event_driven_iteration`, so a whole figure or study can be
regenerated on the reference and compared with the shipping path.
"""

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from repro.runtime import schedule
from repro.runtime.cluster import ClusterSpec, IterationTiming, QuorumConfig
from repro.runtime.director import Topology
from repro.runtime.events import EventLoop
from repro.runtime.network import Network
from repro.runtime.schedule import _close_window
from repro.runtime.threads import SigmaPipeline


class _Feeder:
    """Feeds one sender's chunks into a SigmaPipeline, tracking when the
    last of them was folded — the sender's partial-complete time, which
    the quorum window is judged against."""

    def __init__(self, pipeline: SigmaPipeline):
        self._pipeline = pipeline
        self.done = 0.0

    def __call__(self, time: float, nbytes: int):
        self.done = max(
            self.done, self._pipeline.on_chunks((time,), (nbytes,))[0]
        )


def event_driven_iteration(
    topology: Topology,
    spec: ClusterSpec,
    update_bytes: int,
    compute_times: Sequence[float],
    quorum: Optional[QuorumConfig] = None,
) -> IterationTiming:
    """Simulate one iteration event by event; ``compute_times`` holds each
    node's accelerator seconds, in ``topology.roles`` order."""
    topo = topology
    network = Network(EventLoop(), spec.network)

    compute_done: Dict[int, float] = {}
    for role, seconds in zip(topo.roles, compute_times):
        compute_done[role.node_id] = spec.management_overhead_s + seconds

    first_send = min(compute_done.values())
    master = topo.master

    # Phase 2: deltas stream partial updates to their group sigma.
    # Sends are issued in start-time order: NIC Resources book FCFS in
    # call order, so a straggler issued early must not queue ahead of
    # messages that hit the wire before it.
    def deltas_to_sigmas(net: Network, skip):
        loop = EventLoop()
        net.use_loop(loop)
        pipes: Dict[int, SigmaPipeline] = {
            s.node_id: SigmaPipeline(spec.pools) for s in topo.sigmas()
        }
        own: Dict[int, float] = {}
        feeds: Dict[int, Dict[int, _Feeder]] = {}
        sends = []
        for sigma in topo.sigmas():
            pipeline = pipes[sigma.node_id]
            # The sigma folds its own accelerator's partial locally.
            own[sigma.group] = pipeline.fold_local(
                compute_done[sigma.node_id], update_bytes
            )
            feeds[sigma.node_id] = {}
            for delta in topo.deltas_of(sigma.node_id):
                if delta.node_id in skip:
                    continue
                feeder = _Feeder(pipeline)
                feeds[sigma.node_id][delta.node_id] = feeder
                sends.append(
                    (
                        compute_done[delta.node_id],
                        delta.node_id,
                        sigma.node_id,
                        feeder,
                    )
                )
        for start, delta_id, sigma_id, feeder in sorted(
            sends, key=lambda s: s[:2]
        ):
            net.send(delta_id, sigma_id, update_bytes, start, on_chunk=feeder)
        loop.run()
        return pipes, own, feeds

    def close_groups(own, feeds):
        done: Dict[int, float] = {}
        members: Dict[int, List[int]] = {}
        late = set()
        for sigma in topo.sigmas():
            contributions = [(sigma.node_id, own[sigma.group])] + [
                (delta_id, feeder.done)
                for delta_id, feeder in feeds[sigma.node_id].items()
            ]
            included, out = _close_window(contributions, quorum)
            done[sigma.group] = max(t for _, t in included)
            members[sigma.group] = [node for node, _ in included]
            late.update(node for node, _ in out)
        return done, members, late

    # A dropped partial must not occupy the sigma's NIC — the receiver
    # refuses it, and everything after (the broadcast, the next
    # iteration) would otherwise queue behind bytes nobody wants. NIC
    # Resources cannot book out of order, so quorum mode first probes
    # a scratch network to learn who misses the window, then replays
    # on the real one with those sends withheld.
    skip2 = frozenset()
    if quorum is not None:
        _, own_probe, feeds_probe = deltas_to_sigmas(
            Network(EventLoop(), spec.network), skip2
        )
        _, _, late2 = close_groups(own_probe, feeds_probe)
        skip2 = frozenset(late2)
    pipelines, group_own, feeders = deltas_to_sigmas(network, skip2)
    group_done, group_members, _ = close_groups(group_own, feeders)

    # Phase 3: group aggregates -> master sigma (same quorum rule).
    # Fresh loop per pass: a quorum window may close before another
    # group's straggler chunks landed, so this phase's deliveries can
    # predate the previous loop's final event time.
    def sigmas_to_master(net: Network, skip):
        loop = EventLoop()
        net.use_loop(loop)
        pipe = SigmaPipeline(spec.pools)
        own = pipe.fold_local(group_done[master.group], update_bytes)
        feeds: Dict[int, _Feeder] = {}
        sends = []
        for sigma in topo.sigmas():
            if sigma.node_id == master.node_id or sigma.node_id in skip:
                continue
            feeder = _Feeder(pipe)
            feeds[sigma.node_id] = feeder
            sends.append((group_done[sigma.group], sigma.node_id, feeder))
        for start, sigma_id, feeder in sorted(sends, key=lambda s: s[:2]):
            net.send(
                sigma_id, master.node_id, update_bytes, start, on_chunk=feeder
            )
        loop.run()
        return pipe, own, feeds

    def close_master(own, feeds):
        contributions = [(master.node_id, own)] + [
            (sigma_id, feeder.done) for sigma_id, feeder in feeds.items()
        ]
        return _close_window(contributions, quorum)

    skip3 = frozenset()
    if quorum is not None:
        # The probe replays phase 2 first so the master's RX NIC
        # carries the same bookings as the real network.
        probe = Network(EventLoop(), spec.network)
        deltas_to_sigmas(probe, skip2)
        _, own_probe, feeds_probe = sigmas_to_master(probe, skip3)
        _, out3 = close_master(own_probe, feeds_probe)
        skip3 = frozenset(node for node, _ in out3)
    master_pipe, own_group_done, master_feeders = sigmas_to_master(
        network, skip3
    )
    sigma_group = {s.node_id: s.group for s in topo.sigmas()}
    included_groups, _ = close_master(own_group_done, master_feeders)
    master_done = max(t for _, t in included_groups)
    contributors = sorted(
        node
        for sigma_id, _ in included_groups
        for node in group_members[sigma_group[sigma_id]]
    )
    dropped = sorted(
        r.node_id for r in topo.roles if r.node_id not in contributors
    )

    # Phase 4: hierarchical model broadcast.
    loop = EventLoop()
    network.use_loop(loop)
    broadcast_done = master_done
    for sigma in topo.sigmas():
        sigma_recv = master_done
        if sigma.node_id != master.node_id:
            sigma_recv = network.send(
                master.node_id, sigma.node_id, update_bytes, master_done
            )
        broadcast_done = max(broadcast_done, sigma_recv)
        for delta in topo.deltas_of(sigma.node_id):
            arrival = network.send(
                sigma.node_id, delta.node_id, update_bytes, sigma_recv
            )
            broadcast_done = max(broadcast_done, arrival)
    loop.run()

    total = broadcast_done + spec.management_overhead_s
    agg_busy = sum(sum(p.agg_busy) for p in pipelines.values())
    agg_busy += sum(master_pipe.agg_busy)
    sigma_rx_busy = sum(
        network.nic(s.node_id).rx.busy_seconds for s in topo.sigmas()
    )
    return IterationTiming(
        total_s=total,
        compute_s=sum(compute_times) / len(compute_times),
        compute_max_s=max(compute_times),
        network_s=max(0.0, master_done - first_send),
        aggregation_busy_s=agg_busy,
        broadcast_s=broadcast_done - master_done,
        management_s=2 * spec.management_overhead_s,
        wire_bytes=network.bytes_sent,
        wire_messages=network.messages_sent,
        sigma_rx_busy_s=sigma_rx_busy,
        sigma_count=len(topo.sigmas()),
        contributors=contributors,
        dropped=dropped,
    )


@contextmanager
def reference_engine():
    """Run every :meth:`ClusterSimulator.iteration` in the block on the
    event-driven reference instead of replay.

    Substitutes ``schedule.replay_iteration`` (the two share a signature)
    and empties ``schedule.TIMINGS``, so no replayed timing memoised
    before the block is served inside it; on exit it restores both, so no
    reference timing memoised inside the block is served after it.
    """
    replay, timings = schedule.replay_iteration, dict(schedule.TIMINGS)
    schedule.replay_iteration = event_driven_iteration
    schedule.TIMINGS.clear()
    try:
        yield
    finally:
        schedule.replay_iteration = replay
        schedule.TIMINGS.clear()
        schedule.TIMINGS.update(timings)
