"""Schedule-replay engine: derive one iteration's schedule, replay it.

The communication schedule of a healthy CoSMIC iteration is *static per
topology*: which node sends to which, in which phase, with what payload is
fixed by the Sigma/Delta hierarchy and the model size — only the *times*
move when compute speed, mini-batch size, or link parameters change. Like
SwitchML's static in-network aggregation schedule, that makes the
schedule a pure function of the topology, re-timed many times.

This module implements that split:

* :func:`schedule_trace` lists the sends of the gather/reduce/broadcast
  phases straight from the Director's hierarchy, producing a canonical
  :class:`ScheduleTrace`; no simulation runs to build it.
* :func:`replay_iteration` re-times a trace under new per-node compute
  times and :class:`NetworkConfig` parameters. NIC bookings are evaluated
  with NumPy over the chunk arrays (``np.add.accumulate`` is a strictly
  sequential left-to-right reduction, so every float lands bit-identical
  to the scalar event-driven arithmetic); chunk callbacks feed the real
  :class:`SigmaPipeline` objects in the exact (arrival, insertion) order
  the event loop would have dispatched them. A pure-scalar mode
  (``vectorized=False``) is kept as a cross-validated reference.

Traces live in :data:`TRACES`, one entry per (roles, groups, model size)
beside the iteration timings replayed from it, so a figure sweep builds
each topology's trace once and replays every (minibatch, NetworkConfig)
point.

Each trace names, per Sigma/master aggregation point, the contributor
set that feeds it (:class:`ArrivalPoint`). That is what lets
:func:`replay_iteration` evaluate a
:class:`~repro.runtime.cluster.QuorumConfig` window closure — K-th
arrival vs. ``deadline_s`` past the first — directly on the booked
arrival arrays, then re-book only the downstream sends whose payload set
changed (the withheld-send pass), instead of re-running the event loop
from scratch. The window sorts contributions by (finish time, node id),
so the order of a contributor set never reaches a result.

Replay is *never* used when the schedule could differ from the healthy
one: a :class:`~repro.runtime.faults.FaultTimeline` (or any fault
context on the simulator) forces the full event-driven simulation, and
``REPRO_SCHEDULE_REPLAY=0`` disables replay globally. The differential
property suites (``tests/properties/test_schedule_replay.py`` and
``tests/properties/test_quorum_replay.py``) assert replay is
bit-identical to re-simulation across hypothesis-generated clusters,
quorum rules, and straggler profiles, and that :func:`schedule_trace`
lists exactly the sends the event-driven simulation issues.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .director import NodeRole, Topology
from .network import NetworkConfig
from .threads import SigmaPipeline

#: Bumped whenever the simulator's send structure or the replay arithmetic
#: changes; :func:`replay_iteration` refuses a trace of another format.
#: Format 3 derives the trace from the topology and keeps only each
#: aggregation point's contributor set.
SCHEDULE_FORMAT = 3


#: Accepted spellings of ``REPRO_SCHEDULE_REPLAY``.
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off", "")


class EnvError(ValueError):
    """A ``REPRO_*`` variable holds a value that cannot be parsed."""


def replay_enabled() -> bool:
    """Replay kill-switch: ``REPRO_SCHEDULE_REPLAY=0`` (or false/no/off)
    forces the full event-driven simulation everywhere. Any spelling
    outside 1/0, true/false, yes/no, on/off raises :class:`EnvError`."""
    raw = os.environ.get("REPRO_SCHEDULE_REPLAY")
    if raw is None:
        return True
    lowered = raw.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise EnvError(
        f"REPRO_SCHEDULE_REPLAY={raw!r} is not a boolean; use one of "
        f"{', '.join(_TRUE)} / {', '.join(f or repr('') for f in _FALSE)}"
    )


@contextmanager
def replay_disabled():
    """Temporarily force full event-driven simulation (perf reference
    paths and the differential harness use this)."""
    previous = os.environ.get("REPRO_SCHEDULE_REPLAY")
    os.environ["REPRO_SCHEDULE_REPLAY"] = "0"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_SCHEDULE_REPLAY", None)
        else:
            os.environ["REPRO_SCHEDULE_REPLAY"] = previous


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


#: ArrivalPoint phase markers.
GATHER_PHASE = 0
REDUCE_PHASE = 1


@dataclass(frozen=True)
class ArrivalPoint:
    """One Sigma (gather phase) or the master (reduce phase), with the
    contributors whose partials it aggregates — the set each quorum
    window closure is evaluated over."""

    node_id: int  # the receiving Sigma (or master Sigma)
    phase: int  # GATHER_PHASE or REDUCE_PHASE
    senders: Tuple[int, ...]


@dataclass(frozen=True)
class ScheduleTrace:
    """The event schedule of one healthy iteration.

    ``gather_sends`` / ``reduce_sends`` / ``broadcast_sends`` hold
    ``(src, dst, nbytes)``. The replayer re-sorts the gather/reduce
    phases by their re-timed start instants (the same ordering rule the
    simulator applies) and replays the broadcast in listed order (its
    ordering is structural). ``arrival_points`` names each Sigma/master
    aggregation point with a contributor set — the structure
    quorum-window replay evaluates.
    """

    format_version: int
    nodes: int
    groups: int
    roles: Tuple[NodeRole, ...]
    update_bytes: int
    gather_sends: Tuple[Tuple[int, int, int], ...]
    reduce_sends: Tuple[Tuple[int, int, int], ...]
    broadcast_sends: Tuple[Tuple[int, int, int], ...]
    arrival_points: Tuple[ArrivalPoint, ...]

    @property
    def wire_messages(self) -> int:
        return (
            len(self.gather_sends)
            + len(self.reduce_sends)
            + len(self.broadcast_sends)
        )

    def topology(self) -> Topology:
        return Topology(roles=list(self.roles), groups=self.groups)

    def points_for(self, phase: int) -> Tuple[ArrivalPoint, ...]:
        """Aggregation points of one phase (gather or reduce)."""
        return tuple(p for p in self.arrival_points if p.phase == phase)


#: Healthy-run schedules, keyed by everything that shapes one:
#: ``(roles, groups, update_bytes) -> (trace, timings)``, where ``timings``
#: memoises each replayed :class:`IterationTiming` by ``(ClusterSpec,
#: QuorumConfig or None, compute_times)``. Only
#: :meth:`ClusterSimulator.iteration` reads or writes it, and only for
#: healthy iterations with replay on; figure sweeps share entries across
#: the fresh simulators they build.
TRACES: Dict[tuple, Tuple[ScheduleTrace, Dict[tuple, object]]] = {}


def schedule_trace(topology: Topology, update_bytes: int) -> ScheduleTrace:
    """List one healthy iteration's sends straight from the hierarchy.

    The Director fixes the Sigma/Delta roles, so the sends follow from
    the topology alone, in the order the event-driven simulation issues
    them:

    * gather: each Delta to its Sigma;
    * reduce: each non-master Sigma to the master;
    * broadcast: for each Sigma in topology order, master to that Sigma,
      then that Sigma to each of its Deltas.

    A Sigma with no Deltas has no gather point, and a single-group
    cluster has no reduce point.
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
    reducers = tuple(s for s in sigma_ids if s != master_id)
    broadcast = []
    for sigma in sigma_ids:
        if sigma != master_id:
            broadcast.append((master_id, sigma, update_bytes))
        broadcast.extend(
            (sigma, delta, update_bytes) for delta in deltas[sigma]
        )
    points = tuple(
        ArrivalPoint(sigma, GATHER_PHASE, deltas[sigma])
        for sigma in sorted(sigma_ids)
        if deltas[sigma]
    )
    if reducers:
        points += (ArrivalPoint(master_id, REDUCE_PHASE, reducers),)
    return ScheduleTrace(
        format_version=SCHEDULE_FORMAT,
        nodes=topology.nodes,
        groups=topology.groups,
        roles=tuple(topology.roles),
        update_bytes=update_bytes,
        gather_sends=gather,
        reduce_sends=tuple((s, master_id, update_bytes) for s in reducers),
        broadcast_sends=tuple(broadcast),
        arrival_points=points,
    )


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def _chunk_plan(cfg: NetworkConfig, nbytes: int):
    """Chunk sizes and per-chunk wire durations for one message.

    Mirrors the chunking loop in :meth:`Network.send`: full chunks first,
    a trailing partial chunk last. The wire array is computed with the
    exact operation order of ``wire_seconds(chunk) + per_chunk_overhead``.
    """
    full, rem = divmod(nbytes, cfg.chunk_bytes)
    sizes = [cfg.chunk_bytes] * full + ([rem] if rem else [])
    sizes_arr = np.array(sizes, dtype=np.int64)
    wires = sizes_arr * 8.0 / cfg.bandwidth_bps + cfg.per_chunk_overhead_s
    # float64 -> Python float round-trips bit-exactly; the scalar RX scan
    # and the busy accounting run over the list to skip per-element NumPy
    # scalar boxing.
    return sizes, wires, wires.tolist()


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


def _book_send_vectorized(
    ledger: _NicLedger,
    cfg: NetworkConfig,
    src: int,
    dst: int,
    start: float,
    plan,
):
    """Book one message's chunks; returns (arrivals, last_arrival).

    The TX chain is a pure left-to-right accumulation (after the first
    chunk the sender's cursor always equals its own free time), evaluated
    with ``np.add.accumulate`` — sequential, hence bit-identical to the
    event-driven scalar chain. The shared RX recurrence interleaves a max
    with an add, so it stays a scalar scan.
    """
    sizes, wires, wires_list = plan
    if len(sizes) == 1:  # nothing to vectorize in a one-chunk message
        return _book_send_scalar(ledger, cfg, src, dst, start, plan)
    cursor0 = start + cfg.per_message_overhead_s
    tx_free = ledger.tx_free.get(src, 0.0)
    t0 = cursor0 if cursor0 >= tx_free else tx_free
    tx_starts = np.add.accumulate(np.concatenate(([t0], wires[:-1])))
    ledger.tx_free[src] = float(tx_starts[-1]) + wires_list[-1]
    earliest = (tx_starts + wires + cfg.latency_s) - wires
    rx_free = ledger.rx_free.get(dst, 0.0)
    rx_busy = ledger.rx_busy.get(dst, 0.0)
    arrivals = []
    for e, w in zip(earliest.tolist(), wires_list):
        s = e if e >= rx_free else rx_free
        rx_free = s + w
        arrivals.append(rx_free)
        rx_busy += w
    ledger.rx_free[dst] = rx_free
    ledger.rx_busy[dst] = rx_busy
    return arrivals, max(cursor0, max(arrivals))


def _book_send_scalar(
    ledger: _NicLedger,
    cfg: NetworkConfig,
    src: int,
    dst: int,
    start: float,
    plan,
):
    """Pure-Python reference booking, one float at a time — the exact
    transcription of :meth:`Network.send`'s chunk loop."""
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


def _feed_phase(
    ledger: _NicLedger,
    cfg: NetworkConfig,
    sends: Sequence[Tuple[float, int, int, int]],
    pipes: Dict[int, SigmaPipeline],
    vectorized: bool,
):
    """Book every send of one gather/reduce phase, then feed each Sigma
    its chunks in event-loop order.

    ``sends`` is ``(start, src, dst, nbytes)`` in issue order. Chunk
    events are globally sorted by ``(arrival, insertion counter)`` —
    exactly the heap order of :class:`EventLoop` — and each Sigma's
    chunks, in that order, go to its real :class:`SigmaPipeline` as one
    :meth:`~SigmaPipeline.on_chunks` stream (a pipeline's state depends
    only on its own chunks). Returns each sender's partial-complete time
    (the :class:`_Feeder` semantics the quorum window judges).
    """
    book = _book_send_vectorized if vectorized else _book_send_scalar
    arrivals: List[float] = []
    sizes: List[int] = []
    senders: List[int] = []
    sigmas: List[int] = []
    plans: Dict[int, tuple] = {}
    done: Dict[int, float] = {}
    for start, src, dst, nbytes in sends:
        if nbytes not in plans:
            plans[nbytes] = _chunk_plan(cfg, nbytes)
        send_arrivals, _ = book(ledger, cfg, src, dst, start, plans[nbytes])
        arrivals.extend(send_arrivals)
        sizes.extend(plans[nbytes][0])
        senders.extend([src] * len(send_arrivals))
        sigmas.extend([dst] * len(send_arrivals))
        done[src] = 0.0
    if not arrivals:
        return done
    # Stable argsort by arrival == the event loop's (time, insertion
    # counter) heap order; chunks were appended in issue order.
    streams: Dict[int, List[int]] = {}
    for idx in np.argsort(np.array(arrivals), kind="stable").tolist():
        streams.setdefault(sigmas[idx], []).append(idx)
    for sigma, stream in streams.items():
        finishes = pipes[sigma].on_chunks(
            [arrivals[i] for i in stream], [sizes[i] for i in stream]
        )
        for idx, agg_done in zip(stream, finishes):
            sender = senders[idx]
            if agg_done > done[sender]:
                done[sender] = agg_done
    return done


def replay_iteration(
    trace: ScheduleTrace,
    spec,
    compute_times: Sequence[float],
    vectorized: bool = True,
    quorum=None,
):
    """Re-time a schedule trace under new compute times and network
    parameters; returns an :class:`IterationTiming` bit-identical to the
    full event-driven simulation of the same inputs.

    With a :class:`~repro.runtime.cluster.QuorumConfig`, each window
    closure is evaluated directly on the booked arrival arrays — the
    gather/reduce phase is booked once with every listed send (the
    probe), the window rule splits contributors at the later of the K-th
    arrival and ``deadline_s`` past the first, and only when some partial
    missed the window is the phase re-booked with those sends withheld
    (the dropped bytes must never occupy the real NICs). This mirrors the
    event-driven simulator's probe/withhold passes exactly, so every
    field — ``contributors`` and ``dropped`` included — stays
    bit-identical.

    Fault timelines still change the schedule itself and must
    re-simulate; the simulator never routes a faulted cluster here.
    """
    from .cluster import IterationTiming, _close_window

    if trace.format_version != SCHEDULE_FORMAT:
        raise RuntimeError(
            f"schedule trace format {trace.format_version} does not match "
            f"this replayer ({SCHEDULE_FORMAT}); re-record the schedule "
            "with schedule_trace()"
        )
    topo = trace.topology()
    if len(compute_times) != topo.nodes:
        raise ValueError(
            f"{len(compute_times)} compute times for a {topo.nodes}-node "
            "schedule"
        )
    cfg = spec.network
    ub = trace.update_bytes
    master = topo.master
    sigmas = topo.sigmas()

    compute_done = {
        role.node_id: spec.management_overhead_s + seconds
        for role, seconds in zip(topo.roles, compute_times)
    }
    first_send = min(compute_done.values())

    # Contributor sets per aggregation point, from the trace.
    feeders_of = {
        p.node_id: p.senders for p in trace.points_for(GATHER_PHASE)
    }
    reduce_points = trace.points_for(REDUCE_PHASE)
    master_senders = reduce_points[0].senders if reduce_points else ()

    # Phase 2: deltas stream partials to their group sigma. The sigma
    # folds its own partial first (before any chunk lands), then sends
    # are issued in (start, sender) order — the simulator's sort rule.
    gather_all = sorted(
        ((compute_done[src], src, dst, nb)
         for src, dst, nb in trace.gather_sends),
        key=lambda s: s[:2],
    )

    def run_gather(ledger, skip):
        pipes = {s.node_id: SigmaPipeline(spec.pools) for s in sigmas}
        own: Dict[int, float] = {}
        for sigma in sigmas:
            own[sigma.group] = pipes[sigma.node_id].fold_local(
                compute_done[sigma.node_id], ub
            )
        sends = [s for s in gather_all if s[1] not in skip]
        done = _feed_phase(ledger, cfg, sends, pipes, vectorized)
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
    group_of = {r.node_id: r.group for r in topo.roles}
    reduce_all = sorted(
        ((group_done[group_of[src]], src, dst, nb)
         for src, dst, nb in trace.reduce_sends),
        key=lambda s: s[:2],
    )

    def run_reduce(ledger, skip):
        pipe = SigmaPipeline(spec.pools)
        own_m = pipe.fold_local(group_done[master.group], ub)
        sends = [s for s in reduce_all if s[1] not in skip]
        done = _feed_phase(
            ledger, cfg, sends, {master.node_id: pipe}, vectorized
        )
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
        r.node_id for r in topo.roles if r.node_id not in contributors
    )

    # Phase 4: hierarchical broadcast, in the listed (structural) order.
    book = _book_send_vectorized if vectorized else _book_send_scalar
    plans: Dict[int, tuple] = {}
    sigma_ids = {s.node_id for s in sigmas}
    sigma_recv: Dict[int, float] = {master.node_id: master_done}
    broadcast_done = master_done
    for src, dst, nbytes in trace.broadcast_sends:
        start = master_done if src == master.node_id else sigma_recv[src]
        if nbytes not in plans:
            plans[nbytes] = _chunk_plan(cfg, nbytes)
        _, last_arrival = book(ledger, cfg, src, dst, start, plans[nbytes])
        if src == master.node_id and dst in sigma_ids:
            sigma_recv[dst] = last_arrival
        broadcast_done = max(broadcast_done, last_arrival)

    total = broadcast_done + spec.management_overhead_s
    agg_busy = sum(
        p.aggregation.busy_seconds() for p in pipes.values()
    ) + master_pipe.aggregation.busy_seconds()
    sigma_rx_busy = sum(
        ledger.rx_busy.get(s.node_id, 0.0) for s in sigmas
    )
    # Wire accounting covers what the real network carried: withheld
    # sends were refused by the receiver and never hit the wire.
    gather_counted = [
        nb for src, _, nb in trace.gather_sends if src not in skip2
    ]
    reduce_counted = [
        nb for src, _, nb in trace.reduce_sends if src not in skip3
    ]
    broadcast_counted = [nb for _, _, nb in trace.broadcast_sends]
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
