"""Schedule-replay engine: derive one iteration's sends, replay them.

The communication schedule of a CoSMIC iteration is *static per
topology*: which node sends to which, in which phase, with what payload is
fixed by the Sigma/Delta hierarchy and the model size — only the *times*
move when compute speed, mini-batch size, or link parameters change. Like
SwitchML's static in-network aggregation schedule, that makes the
schedule a pure function of the topology, re-timed many times.

This module implements that split:

* :func:`schedule_trace` lists the sends of the gather/reduce/broadcast
  phases straight from the Director's hierarchy; no simulation runs to
  build them.
* :func:`replay_iteration` derives those sends from the topology and
  re-times them under per-node compute times and :class:`NetworkConfig`
  parameters. NIC booking is one scalar loop per message, doing the
  chunk-by-chunk arithmetic of :meth:`Network.send` in the same order,
  so every float is bit-identical to it. Each send goes to its Sigma's
  real :class:`SigmaPipeline` as it is booked, which is the order an
  event loop would dispatch its chunks: a receiver's RX cursor only
  moves forward, so its arrivals never decrease within a phase and
  need no sort.

Replayed timings live in :data:`TIMINGS`, one table per (roles, model
size), so a figure sweep replays each (minibatch, NetworkConfig)
point of a topology once.

The gather and reduce sends name, per Sigma/master aggregation point,
the contributors that feed it. That is what lets :func:`replay_iteration`
evaluate a :class:`~repro.runtime.cluster.QuorumConfig` window closure —
K-th arrival vs. ``deadline_s`` past the first — directly on the booked
arrival arrays, then re-book only the downstream sends whose payload set
changed (the withheld-send pass). The window sorts contributions by
(finish time, node id), so the order of a contributor set never reaches
a result.

Replay is the only iteration engine. Faults reach it as inputs it
already takes: a degraded link is a slower network config, a straggler
a compute model that charges one node more time, and a crash or
re-hierarchy hands the simulator a new topology, which gets its own
timing table. The
event-driven simulation lives in the tests
(``tests/runtime/event_reference.py``) as the reference: the
differential property suites (``tests/properties/test_schedule_replay.py``
and ``tests/properties/test_quorum_replay.py``) assert replay is
bit-identical to it across hypothesis-generated clusters, faults, quorum
rules and straggler profiles, and that :func:`schedule_trace` lists
exactly the sends it issues.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .director import Topology
from .network import NetworkConfig
from .threads import SigmaPipeline

#: Replayed iteration timings, keyed by everything that shapes the
#: schedule: ``(roles, update_bytes) -> {(ClusterSpec, QuorumConfig or
#: None, compute_times): IterationTiming}``; every role carries its
#: group, so the group count needs no place in the key. Only
#: :meth:`ClusterSimulator.iteration` reads or writes it; figure sweeps
#: share entries across the fresh simulators they build. Nested, so a
#: topology's roles tuple is held once, not in every timing's key.
TIMINGS: Dict[tuple, Dict[tuple, object]] = {}


def schedule_trace(
    topology: Topology, update_bytes: int
) -> Tuple[tuple, tuple, tuple]:
    """List one iteration's ``(gather, reduce, broadcast)`` sends, each
    a tuple of ``(src, dst, nbytes)``.

    The Director fixes the Sigma/Delta roles, so the sends follow from
    the topology alone, in the order the event-driven simulation issues
    them:

    * gather: each Delta to its Sigma;
    * reduce: each non-master Sigma to the master;
    * broadcast: for each Sigma in topology order, master to that Sigma,
      then that Sigma to each of its Deltas.

    The replayer re-sorts the gather and reduce phases by their re-timed
    start instants (the simulator's own issue rule) and replays the
    broadcast in listed order, because its order is structural.
    """
    master_id = topology.master.node_id
    sigma_ids = [s.node_id for s in topology.sigmas()]
    deltas = {
        sigma: tuple(d.node_id for d in topology.deltas_of(sigma))
        for sigma in sigma_ids
    }
    gather = tuple(
        (delta, sigma, update_bytes)
        for sigma in sigma_ids
        for delta in deltas[sigma]
    )
    reduce_ = tuple(
        (sigma, master_id, update_bytes)
        for sigma in sigma_ids
        if sigma != master_id
    )
    broadcast = []
    for sigma in sigma_ids:
        if sigma != master_id:
            broadcast.append((master_id, sigma, update_bytes))
        broadcast.extend(
            (sigma, delta, update_bytes) for delta in deltas[sigma]
        )
    return gather, reduce_, tuple(broadcast)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def _chunk_plan(cfg: NetworkConfig, nbytes: int):
    """Chunk sizes and per-chunk wire durations for one message, as lists.

    Mirrors the chunking loop in :meth:`Network.send`: full chunks first,
    a trailing partial chunk last. Each distinct chunk size gets one wire
    time, with the exact operation order of ``wire_seconds(chunk) +
    per_chunk_overhead``.
    """

    def wire(size):
        return size * 8.0 / cfg.bandwidth_bps + cfg.per_chunk_overhead_s

    full, rem = divmod(nbytes, cfg.chunk_bytes)
    sizes = [cfg.chunk_bytes] * full + ([rem] if rem else [])
    wires = [wire(cfg.chunk_bytes)] * full + ([wire(rem)] if rem else [])
    return sizes, wires


class _NicLedger:
    """Per-node TX/RX booking state carried across phases (the replay's
    stand-in for :class:`Resource`, same FCFS arithmetic)."""

    def __init__(self):
        self.tx_free: Dict[int, float] = {}
        self.rx_free: Dict[int, float] = {}
        self.rx_busy: Dict[int, float] = {}

    def clone(self) -> "_NicLedger":
        """Snapshot for the quorum withheld-send pass: phase 3 books on a
        copy so a window closure can roll back to the pre-phase state and
        re-book only the surviving sends."""
        copy = _NicLedger()
        copy.tx_free = dict(self.tx_free)
        copy.rx_free = dict(self.rx_free)
        copy.rx_busy = dict(self.rx_busy)
        return copy


def _book_send(
    ledger: _NicLedger,
    cfg: NetworkConfig,
    src: int,
    dst: int,
    start: float,
    plan,
):
    """Book one message's chunks; returns (arrivals, last_arrival).

    One scalar loop per message. After the first chunk the sender's TX
    cursor always equals its own free time, so each chunk just advances
    it by its wire time; the chunk's earliest arrival is then ``tx +
    latency - wire``, the arithmetic of :meth:`Network.send` in the same
    order. The shared RX cursor takes the later of that and its own free
    time, so it never moves back, and the last arrival is the final
    ``rx_free``.
    """
    cursor0 = start + cfg.per_message_overhead_s
    latency = cfg.latency_s
    tx = ledger.tx_free.get(src, 0.0)
    if cursor0 >= tx:
        tx = cursor0
    rx_free = ledger.rx_free.get(dst, 0.0)
    rx_busy = ledger.rx_busy.get(dst, 0.0)
    arrivals = []
    for w in plan[1]:
        tx += w
        e = tx + latency - w
        rx_free = (e if e >= rx_free else rx_free) + w
        arrivals.append(rx_free)
        rx_busy += w
    ledger.tx_free[src] = tx
    ledger.rx_free[dst] = rx_free
    ledger.rx_busy[dst] = rx_busy
    return arrivals, max(cursor0, rx_free)


def _feed_phase(
    ledger: _NicLedger,
    cfg: NetworkConfig,
    sends: Sequence[Tuple[float, int, int, int]],
    pipes: Dict[int, SigmaPipeline],
):
    """Book every send of one gather/reduce phase, handing each send to
    its Sigma's pipeline as it is booked.

    ``sends`` is ``(start, src, dst, nbytes)`` in issue order, one per
    sender. Each send's arrivals go straight to its receiver's real
    :class:`SigmaPipeline` via :meth:`~SigmaPipeline.on_chunks`. Booking
    order is the event loop's ``(arrival, insertion counter)`` order for
    each receiver, so no sort is needed: a chunk's arrival is its
    receiver's new RX cursor, which never moves back, and a pipeline's
    state depends only on its own chunks, so interleaving the receivers
    moves no float. Returns each sender's partial-complete time: when
    the last of its chunks was folded (a short trailing chunk can finish
    before a full one), which the quorum window judges.
    """
    plans: Dict[int, tuple] = {}
    done: Dict[int, float] = {}
    for start, src, dst, nbytes in sends:
        plan = plans.get(nbytes)
        if plan is None:
            plan = plans[nbytes] = _chunk_plan(cfg, nbytes)
        arrivals, _ = _book_send(ledger, cfg, src, dst, start, plan)
        done[src] = max(pipes[dst].on_chunks(arrivals, plan[0]))
    return done


def replay_iteration(
    topology: Topology,
    spec,
    update_bytes: int,
    compute_times: Sequence[float],
    quorum=None,
):
    """Re-time one iteration of ``topology`` under new compute times and
    network parameters; returns an :class:`IterationTiming` bit-identical
    to the full event-driven simulation of the same inputs.

    ``compute_times`` holds each node's accelerator seconds, in
    ``topology.roles`` order. With a
    :class:`~repro.runtime.cluster.QuorumConfig`, each window closure is
    evaluated directly on the booked arrival arrays — the gather/reduce
    phase is booked once with every listed send (the probe), the window
    rule splits contributors at the later of the K-th arrival and
    ``deadline_s`` past the first, and only when some partial missed the
    window is the phase re-booked with those sends withheld (the dropped
    bytes must never occupy the real NICs). This mirrors the event-driven
    simulator's probe/withhold passes exactly, so every field —
    ``contributors`` and ``dropped`` included — stays bit-identical.
    """
    from .cluster import IterationTiming, _close_window

    if len(compute_times) != topology.nodes:
        raise ValueError(
            f"{len(compute_times)} compute times for a {topology.nodes}-node "
            "schedule"
        )
    gather_sends, reduce_sends, broadcast_sends = schedule_trace(
        topology, update_bytes
    )
    cfg = spec.network
    master = topology.master
    sigmas = topology.sigmas()

    compute_done = {
        role.node_id: spec.management_overhead_s + seconds
        for role, seconds in zip(topology.roles, compute_times)
    }
    first_send = min(compute_done.values())

    # Contributor sets per aggregation point, from the sends.
    feeders_of: Dict[int, List[int]] = {}
    for src, dst, _ in gather_sends:
        feeders_of.setdefault(dst, []).append(src)
    master_senders = [src for src, _, _ in reduce_sends]

    # Phase 2: deltas stream partials to their group sigma. The sigma
    # folds its own partial first (before any chunk lands), then sends
    # are issued in (start, sender) order — the simulator's sort rule.
    gather_all = sorted(
        ((compute_done[src], src, dst, nb)
         for src, dst, nb in gather_sends),
        key=lambda s: s[:2],
    )

    def run_gather(ledger, skip):
        pipes = {s.node_id: SigmaPipeline(spec.pools) for s in sigmas}
        own: Dict[int, float] = {}
        for sigma in sigmas:
            own[sigma.group] = pipes[sigma.node_id].fold_local(
                compute_done[sigma.node_id], update_bytes
            )
        sends = [s for s in gather_all if s[1] not in skip]
        done = _feed_phase(ledger, cfg, sends, pipes)
        return pipes, own, done

    def close_groups(own, done, skip):
        group_done: Dict[int, float] = {}
        members: Dict[int, List[int]] = {}
        late = set()
        for sigma in sigmas:
            contributions = [(sigma.node_id, own[sigma.group])] + [
                (src, done[src])
                for src in feeders_of.get(sigma.node_id, ())
                if src not in skip
            ]
            included, out = _close_window(contributions, quorum)
            group_done[sigma.group] = max(t for _, t in included)
            members[sigma.group] = [node for node, _ in included]
            late.update(node for node, _ in out)
        return group_done, members, late

    ledger = _NicLedger()
    pipes, own, done2 = run_gather(ledger, frozenset())
    skip2 = frozenset()
    if quorum is not None:
        _, _, late2 = close_groups(own, done2, skip2)
        skip2 = frozenset(late2)
        if skip2:
            # Withheld-send pass: a dropped partial's bytes must never
            # occupy the real NICs, so the phase re-books from scratch
            # without those sends (the probe bookings are discarded).
            ledger = _NicLedger()
            pipes, own, done2 = run_gather(ledger, skip2)
    group_done, group_members, _ = close_groups(own, done2, skip2)

    # Phase 3: group aggregates converge on the master sigma (same
    # window rule, judged on the arrivals booked over the post-phase-2
    # ledger — which is exactly the event-driven probe's NIC state).
    group_of = {r.node_id: r.group for r in topology.roles}
    reduce_all = sorted(
        ((group_done[group_of[src]], src, dst, nb)
         for src, dst, nb in reduce_sends),
        key=lambda s: s[:2],
    )

    def run_reduce(ledger, skip):
        pipe = SigmaPipeline(spec.pools)
        own_m = pipe.fold_local(group_done[master.group], update_bytes)
        sends = [s for s in reduce_all if s[1] not in skip]
        done = _feed_phase(ledger, cfg, sends, {master.node_id: pipe})
        return pipe, own_m, done

    def close_master(own_m, done, skip):
        contributions = [(master.node_id, own_m)] + [
            (src, done[src]) for src in master_senders if src not in skip
        ]
        return _close_window(contributions, quorum)

    snapshot = ledger.clone() if quorum is not None else None
    master_pipe, own_master, done3 = run_reduce(ledger, frozenset())
    skip3 = frozenset()
    if quorum is not None:
        _, out3 = close_master(own_master, done3, skip3)
        skip3 = frozenset(node for node, _ in out3)
        if skip3:
            ledger = snapshot
            master_pipe, own_master, done3 = run_reduce(ledger, skip3)
    included_groups, _ = close_master(own_master, done3, skip3)
    master_done = max(t for _, t in included_groups)
    sigma_group = {s.node_id: s.group for s in sigmas}
    contributors = sorted(
        node
        for sigma_id, _ in included_groups
        for node in group_members[sigma_group[sigma_id]]
    )
    dropped = sorted(
        r.node_id for r in topology.roles if r.node_id not in contributors
    )

    # Phase 4: hierarchical broadcast, in the listed (structural) order.
    plans: Dict[int, tuple] = {}
    sigma_ids = {s.node_id for s in sigmas}
    sigma_recv: Dict[int, float] = {master.node_id: master_done}
    broadcast_done = master_done
    for src, dst, nbytes in broadcast_sends:
        start = master_done if src == master.node_id else sigma_recv[src]
        if nbytes not in plans:
            plans[nbytes] = _chunk_plan(cfg, nbytes)
        _, last_arrival = _book_send(
            ledger, cfg, src, dst, start, plans[nbytes]
        )
        if src == master.node_id and dst in sigma_ids:
            sigma_recv[dst] = last_arrival
        broadcast_done = max(broadcast_done, last_arrival)

    total = broadcast_done + spec.management_overhead_s
    agg_busy = sum(sum(p.agg_busy) for p in pipes.values())
    agg_busy += sum(master_pipe.agg_busy)
    sigma_rx_busy = sum(
        ledger.rx_busy.get(s.node_id, 0.0) for s in sigmas
    )
    # Wire accounting covers what the real network carried: withheld
    # sends were refused by the receiver and never hit the wire.
    gather_counted = [
        nb for src, _, nb in gather_sends if src not in skip2
    ]
    reduce_counted = [
        nb for src, _, nb in reduce_sends if src not in skip3
    ]
    broadcast_counted = [nb for _, _, nb in broadcast_sends]
    return IterationTiming(
        total_s=total,
        compute_s=sum(compute_times) / len(compute_times),
        compute_max_s=max(compute_times),
        network_s=max(0.0, master_done - first_send),
        aggregation_busy_s=agg_busy,
        broadcast_s=broadcast_done - master_done,
        management_s=2 * spec.management_overhead_s,
        wire_bytes=sum(gather_counted)
        + sum(reduce_counted)
        + sum(broadcast_counted),
        wire_messages=len(gather_counted)
        + len(reduce_counted)
        + len(broadcast_counted),
        sigma_rx_busy_s=sigma_rx_busy,
        sigma_count=len(sigmas),
        contributors=contributors,
        dropped=dropped,
    )
