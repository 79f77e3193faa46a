"""Cluster network model: gigabit NICs behind a non-blocking switch.

Matches the evaluation cluster (Section 7.1): TP-Link gigabit NICs on a
24-port switch with full-duplex ports and a 48 Gbps backplane — so the
switch itself never saturates and contention happens at the endpoints'
NICs. Messages are chunked (socket-buffer sized) so that a Sigma node's
aggregation pipeline can start on the first chunk: the producer-consumer
overlap of its networking and aggregation pools (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .events import EventLoop, Resource


@dataclass(frozen=True)
class NetworkConfig:
    """Link and protocol parameters.

    ``per_message_overhead_s`` covers connection handling and kernel
    wake-up on each logical message; ``per_chunk_overhead_s`` is the
    TCP/IP per-segment cost that CoSMIC's epoll-driven handler amortises;
    ``chunk_bytes`` is the socket-buffer granularity at which data becomes
    visible to the receiver.
    """

    bandwidth_bps: float = 1e9
    latency_s: float = 50e-6
    per_message_overhead_s: float = 200e-6
    per_chunk_overhead_s: float = 5e-6
    chunk_bytes: int = 64 * 1024

    def __post_init__(self):
        for name, ok, rule in (
            ("bandwidth_bps", self.bandwidth_bps > 0, "> 0"),
            ("latency_s", self.latency_s >= 0, ">= 0"),
            (
                "per_message_overhead_s",
                self.per_message_overhead_s >= 0,
                ">= 0",
            ),
            ("per_chunk_overhead_s", self.per_chunk_overhead_s >= 0, ">= 0"),
            ("chunk_bytes", self.chunk_bytes >= 1, ">= 1"),
        ):
            if not ok:
                raise ValueError(
                    f"{name} must be {rule}, got {getattr(self, name)!r}"
                )

    def wire_seconds(self, nbytes: int) -> float:
        return nbytes * 8.0 / self.bandwidth_bps


@dataclass(frozen=True)
class RetryPolicy:
    """Per-message timeout with exponential backoff.

    A sender whose peer stops acknowledging waits ``timeout_s``, then
    retries with the timeout scaled by ``backoff`` each attempt, up to
    ``max_retries`` retries before declaring the peer unreachable — the
    point at which the Director's failure handling takes over.
    """

    timeout_s: float = 0.25
    max_retries: int = 3
    backoff: float = 2.0

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError(
                f"per-message timeout must be positive, got {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff < 1.0:
            raise ValueError(
                f"backoff factor must be >= 1 (got {self.backoff}); a "
                "shrinking backoff would hammer a struggling peer"
            )

    def attempt_timeouts(self) -> list:
        """Timeout of each attempt: initial send plus every retry."""
        return [
            self.timeout_s * self.backoff**i
            for i in range(self.max_retries + 1)
        ]

    def give_up_after_s(self) -> float:
        """Wall-clock a sender burns before declaring the peer dead."""
        return sum(self.attempt_timeouts())


class Nic:
    """Full-duplex endpoint: independent TX and RX serialisation."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.tx = Resource(f"nic{node_id}.tx")
        self.rx = Resource(f"nic{node_id}.rx")


class Network:
    """Chunked point-to-point transfers over per-node NICs, dispatched on
    an event loop.

    Cluster iterations book their NICs by schedule replay
    (:mod:`repro.runtime.schedule`); this model is what the event-driven
    reference in ``tests/runtime/event_reference.py`` simulates with.
    """

    def __init__(self, loop: EventLoop, config: NetworkConfig = NetworkConfig()):
        self._loop = loop
        self.config = config
        self._nics: Dict[int, Nic] = {}
        self.bytes_sent = 0
        self.messages_sent = 0

    def nic(self, node_id: int) -> Nic:
        if node_id not in self._nics:
            self._nics[node_id] = Nic(node_id)
        return self._nics[node_id]

    def use_loop(self, loop: EventLoop):
        """Rebind callback dispatch to a fresh loop at a phase boundary.

        NIC bookings are absolute-time, so they carry across loops; a new
        loop lets a later phase schedule deliveries earlier than the
        previous phase's stragglers (e.g. a quorum window that closed
        while a dropped partial was still in flight)."""
        self._loop = loop

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        start: float,
        on_chunk: Optional[Callable[[float, int], None]] = None,
    ) -> float:
        """Simulate one logical message; returns the delivery-complete time.

        ``on_chunk(time, bytes)`` fires as each chunk lands in the
        receiver's socket buffer.
        """
        if src == dst:
            raise ValueError("loopback transfers are free; do not model them")
        if nbytes <= 0:
            raise ValueError("message must have a positive size")
        cfg = self.config
        src_nic = self.nic(src)
        dst_nic = self.nic(dst)
        self.bytes_sent += nbytes
        self.messages_sent += 1

        cursor = start + cfg.per_message_overhead_s
        remaining = nbytes
        last_arrival = cursor
        while remaining > 0:
            chunk = min(remaining, cfg.chunk_bytes)
            remaining -= chunk
            wire = cfg.wire_seconds(chunk) + cfg.per_chunk_overhead_s
            tx_start = src_nic.tx.acquire(cursor, wire)
            arrival_earliest = tx_start + wire + cfg.latency_s
            rx_start = dst_nic.rx.acquire(arrival_earliest - wire, wire)
            arrival = rx_start + wire
            cursor = tx_start + wire  # next chunk queues behind this one
            last_arrival = max(last_arrival, arrival)
            if on_chunk is not None:
                self._loop.at(arrival, _bind_chunk(on_chunk, arrival, chunk))
        return last_arrival


def _bind_chunk(fn: Callable[[float, int], None], time: float, size: int):
    return lambda: fn(time, size)

