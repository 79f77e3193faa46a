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

The gather and the reduce are one aggregation step run twice: Deltas
into their Sigma, then Sigmas into the master (:func:`_aggregate`).
Each receiver closes its :class:`~repro.runtime.cluster.QuorumConfig`
window (:func:`_close_window`: K-th arrival vs. ``deadline_s`` past the
first) on the booked arrivals, and a level with a late partial is
booked again from its pre-level ledger without the late sends. The
window sorts contributions by (finish time, node id), so the order of
a contributor set never reaches a result.

Replay is the only iteration engine. Faults reach it as inputs it
already takes: a degraded link is a slower network config, a straggler
a compute model that charges one node more time, and a crash or
re-hierarchy hands the simulator a new topology, which gets its own
timing table. The event-driven simulation lives in the tests
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
        """Snapshot for the quorum withheld-send pass: an aggregation
        level rolls back to its pre-level copy (an empty ledger's copy
        for the gather) and re-books only the surviving sends."""
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


def _close_window(contributions, quorum):
    """Split ``(node_id, finish_s)`` contributions at the quorum window.

    The window closes at the later of the K-th arrival (the quorum must
    be met even if it means waiting past the deadline) and the straggler
    deadline measured from the first arrival. Returns (included, dropped).
    """
    if quorum is None or len(contributions) <= 1:
        return list(contributions), []
    by_time = sorted(contributions, key=lambda c: (c[1], c[0]))
    k = quorum.quorum(len(by_time))
    close = max(by_time[k - 1][1], by_time[0][1] + quorum.deadline_s)
    included = [c for c in by_time if c[1] <= close + 1e-12]
    dropped = [c for c in by_time if c[1] > close + 1e-12]
    return included, dropped


def _aggregate(
    ledger, cfg, pools, update_bytes, ready, sends, receivers, quorum
):
    """One aggregation level: Deltas into their Sigma, or Sigmas into
    the master.

    ``ready`` maps each node id to the instant its partial is ready;
    ``sends`` lists the level's ``(src, dst, nbytes)``, issued in
    (ready, sender) order, the simulator's sort rule. Each receiver
    folds its own partial first (before any chunk lands), then the
    chunks of its senders as they are booked, and closes its window per
    :func:`_close_window`. With a ``quorum``, when some partial missed
    its window the level is booked again from a snapshot of ``ledger``
    taken before it, with the late sends withheld: a dropped partial's
    bytes must never occupy the real NICs.

    Returns ``(ledger, pipes, included, skipped)``: the ledger after the
    level, each receiver's :class:`SigmaPipeline` and its included
    ``(node_id, finish_s)`` contributions, and the withheld node ids.
    """
    issued = sorted(
        ((ready[src], src, dst, nb) for src, dst, nb in sends),
        key=lambda s: s[:2],
    )
    feeders: Dict[int, List[int]] = {dst: [] for dst in receivers}
    for src, dst, _ in sends:
        feeders[dst].append(src)
    snapshot = ledger.clone() if quorum is not None else None

    def book(ledger, skipped):
        pipes = {dst: SigmaPipeline(pools) for dst in receivers}
        own = {
            dst: pipe.fold_local(ready[dst], update_bytes)
            for dst, pipe in pipes.items()
        }
        done = _feed_phase(
            ledger, cfg, [s for s in issued if s[1] not in skipped], pipes
        )
        included: Dict[int, list] = {}
        late: List[int] = []
        for dst, srcs in feeders.items():
            included[dst], out = _close_window(
                [(dst, own[dst])]
                + [(src, done[src]) for src in srcs if src not in skipped],
                quorum,
            )
            late.extend(node for node, _ in out)
        return pipes, included, late

    skipped = frozenset()
    pipes, included, late = book(ledger, skipped)
    if late:
        ledger, skipped = snapshot, frozenset(late)
        pipes, included, _ = book(ledger, skipped)
    return ledger, pipes, included, skipped


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
    ``topology.roles`` order. The gather and the reduce are the same
    aggregation one level apart, so both run through :func:`_aggregate`:
    Deltas into their Sigma, then Sigmas into the master. With a
    :class:`~repro.runtime.cluster.QuorumConfig`, each level is booked
    once with every listed send (the probe), each window closes at the
    later of the K-th arrival and ``deadline_s`` past the first, and
    only when some partial missed its window is the level re-booked from
    its pre-level ledger with those sends withheld. This mirrors the
    event-driven simulator's probe/withhold passes exactly, so every
    field, ``contributors`` and ``dropped`` included, stays
    bit-identical.
    """
    from .cluster import IterationTiming

    if len(compute_times) != topology.nodes:
        raise ValueError(
            f"{len(compute_times)} compute times for a {topology.nodes}-node "
            "schedule"
        )
    gather_sends, reduce_sends, broadcast_sends = schedule_trace(
        topology, update_bytes
    )
    cfg = spec.network
    master_id = topology.master.node_id
    sigma_ids = [s.node_id for s in topology.sigmas()]

    compute_done = {
        role.node_id: spec.management_overhead_s + seconds
        for role, seconds in zip(topology.roles, compute_times)
    }
    first_send = min(compute_done.values())

    ledger, sigma_pipes, groups, skip2 = _aggregate(
        _NicLedger(), cfg, spec.pools, update_bytes, compute_done,
        gather_sends, sigma_ids, quorum,
    )
    sigma_done = {
        sigma: max(t for _, t in window) for sigma, window in groups.items()
    }
    ledger, master_pipes, at_master, skip3 = _aggregate(
        ledger, cfg, spec.pools, update_bytes, sigma_done,
        reduce_sends, [master_id], quorum,
    )
    master_done = max(t for _, t in at_master[master_id])
    contributors = sorted(
        node for sigma, _ in at_master[master_id] for node, _ in groups[sigma]
    )
    dropped = sorted(
        r.node_id for r in topology.roles if r.node_id not in contributors
    )

    # Hierarchical broadcast, in the listed (structural) order.
    plans: Dict[int, tuple] = {}
    sigma_recv: Dict[int, float] = {master_id: master_done}
    broadcast_done = master_done
    for src, dst, nbytes in broadcast_sends:
        start = master_done if src == master_id else sigma_recv[src]
        if nbytes not in plans:
            plans[nbytes] = _chunk_plan(cfg, nbytes)
        _, last_arrival = _book_send(
            ledger, cfg, src, dst, start, plans[nbytes]
        )
        if src == master_id and dst in sigma_done:
            sigma_recv[dst] = last_arrival
        broadcast_done = max(broadcast_done, last_arrival)

    total = broadcast_done + spec.management_overhead_s
    agg_busy = sum(
        sum(p.agg_busy)
        for pipes in (sigma_pipes, master_pipes)
        for p in pipes.values()
    )
    sigma_rx_busy = sum(ledger.rx_busy.get(s, 0.0) for s in sigma_ids)
    # Wire accounting covers what the real network carried: withheld
    # sends were refused by the receiver and never hit the wire.
    counted = [nb for src, _, nb in gather_sends if src not in skip2]
    counted += [nb for src, _, nb in reduce_sends if src not in skip3]
    counted += [nb for _, _, nb in broadcast_sends]
    return IterationTiming(
        total_s=total,
        compute_s=sum(compute_times) / len(compute_times),
        compute_max_s=max(compute_times),
        network_s=max(0.0, master_done - first_send),
        aggregation_busy_s=agg_busy,
        broadcast_s=broadcast_done - master_done,
        management_s=2 * spec.management_overhead_s,
        wire_bytes=sum(counted),
        wire_messages=len(counted),
        sigma_rx_busy_s=sigma_rx_busy,
        sigma_count=len(sigma_ids),
        contributors=contributors,
        dropped=dropped,
    )
