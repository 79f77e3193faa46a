"""The Sigma node's receive pipeline: two thread pools joined by a
circular buffer (Section 3).

The Sigma-node system software avoids generic OS thread management by
keeping two fixed pools: the Networking Pool copies received chunks from
kernel socket buffers into a Circular Buffer, and the Aggregation Pool
consumes chunks from it, updating the Aggregation Buffer. Networking
threads are producers, aggregation threads consumers; the circular buffer
bounds memory and provides backpressure while letting communication and
computation overlap. :class:`SigmaPipeline` keeps the state of all three
as plain fields and books chunks on them in one loop,
:meth:`~SigmaPipeline.on_chunks`.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class PoolConfig:
    """Service rates of the two pools on the host CPU.

    ``copy_bytes_per_s`` is a kernel-to-user memcpy; ``aggregate_bytes_per_s``
    is a vectorised AXPY over the aggregation buffer. Both derive from the
    Xeon E3's memory system; thread counts default to the paper's setup of
    a small fixed pool per role on the quad-core host.
    """

    networking_threads: int = 2
    aggregation_threads: int = 2
    copy_bytes_per_s: float = 6e9
    aggregate_bytes_per_s: float = 4e9
    wakeup_overhead_s: float = 2e-6  # epoll event dispatch, no thread spawn

    def __post_init__(self):
        for name, ok, rule in (
            ("networking_threads", self.networking_threads >= 1, ">= 1"),
            ("aggregation_threads", self.aggregation_threads >= 1, ">= 1"),
            ("copy_bytes_per_s", self.copy_bytes_per_s > 0, "> 0"),
            ("aggregate_bytes_per_s", self.aggregate_bytes_per_s > 0, "> 0"),
            ("wakeup_overhead_s", self.wakeup_overhead_s >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(
                    f"{name} must be {rule}, got {getattr(self, name)!r}"
                )


class SigmaPipeline:
    """The receive-copy-aggregate pipeline of a Sigma node (Figure 2).

    Each pool is a fixed set of serially reusable workers: ``net_free[i]``
    (``agg_free[i]``) is when networking (aggregation) worker ``i`` next
    becomes free and ``net_busy[i]`` (``agg_busy[i]``) the seconds it has
    worked. A work item goes to the first worker with the smallest
    ``max(free, earliest)`` (the lowest index wins ties) and starts then.

    The circular buffer holds at most ``capacity_bytes``; ``occupied`` is
    its sorted ``(free_time, nbytes)`` chunks and ``used_bytes`` their
    total. A copy must claim its chunk's space when it starts: while the
    buffer is full the producer stalls (``stall_seconds``) until enough
    chunks drain. The buffer is deliberately small — "the Circular Buffer
    reduces the memory required for aggregating partial results from
    multiple sources while enabling overlap between communication and
    computation".
    """

    def __init__(self, config: PoolConfig, buffer_bytes: int = 4 * 1024 * 1024):
        if buffer_bytes <= 0:
            raise ValueError(
                f"buffer_bytes must be positive, got {buffer_bytes}"
            )
        self.config = config
        self.net_free = [0.0] * config.networking_threads
        self.net_busy = [0.0] * config.networking_threads
        self.agg_free = [0.0] * config.aggregation_threads
        self.agg_busy = [0.0] * config.aggregation_threads
        self.capacity_bytes = buffer_bytes
        self.occupied: List[Tuple[float, int]] = []
        self.used_bytes = 0
        self.peak_used = 0
        self.stall_seconds = 0.0
        #: Time the last chunk so far was folded into the aggregate.
        self.drained_at = 0.0
        self.bytes_aggregated = 0

    def on_chunks(
        self, arrivals: Sequence[float], sizes: Sequence[int]
    ) -> List[float]:
        """Process received chunks in arrival order; returns each chunk's
        aggregation finish time.

        For each chunk, the Incoming Network Handler catches the epoll
        event, a networking thread copies the chunk into the circular
        buffer (stalling while it is full), and an aggregation thread
        folds it into the aggregation buffer. A chunk larger than the
        whole buffer raises ``ValueError`` once its copy is booked; the
        chunks before it keep their effect.
        """
        cfg = self.config
        copy_rate = cfg.copy_bytes_per_s
        agg_rate = cfg.aggregate_bytes_per_s
        wakeup = cfg.wakeup_overhead_s
        net_free = self.net_free
        net_busy = self.net_busy
        agg_free = self.agg_free
        agg_busy = self.agg_busy
        net_rest = range(1, len(net_free))
        agg_rest = range(1, len(agg_free))
        capacity = self.capacity_bytes
        occupied = self.occupied
        used = self.used_bytes
        peak = self.peak_used
        stall = self.stall_seconds
        until = self.drained_at
        total = self.bytes_aggregated
        out = []
        try:
            for arrival, nbytes in zip(arrivals, sizes):
                copy_s = nbytes / copy_rate
                agg_s = nbytes / agg_rate
                # Networking pool: first worker with the earliest start.
                earliest = arrival + wakeup
                best, start = 0, net_free[0]
                if earliest > start:
                    start = earliest
                for i in net_rest:
                    t = net_free[i]
                    if earliest > t:
                        t = earliest
                    if t < start:
                        best, start = i, t
                copy_done = start + copy_s
                net_free[best] = copy_done
                net_busy[best] += copy_s
                # Circular buffer: reserve space from the copy's start.
                if nbytes > capacity:
                    raise ValueError(
                        "chunk larger than the whole circular buffer"
                    )
                free_time_guess = copy_done + agg_s
                reserved = copy_done - copy_s
                k = 0  # occupied[:k] has drained by ``reserved``
                while True:
                    while k < len(occupied) and occupied[k][0] <= reserved:
                        used -= occupied[k][1]
                        k += 1
                    if used + nbytes <= capacity:
                        break
                    # Stall until the next chunk frees (strictly later).
                    next_free = occupied[k][0]
                    stall += next_free - reserved
                    reserved = next_free
                del occupied[:k]
                insort(occupied, (free_time_guess, nbytes))
                used += nbytes
                if used > peak:
                    peak = used
                # Aggregation pool: fold once the copy lands.
                copy_done = reserved + copy_s
                best, start = 0, agg_free[0]
                if copy_done > start:
                    start = copy_done
                for i in agg_rest:
                    t = agg_free[i]
                    if copy_done > t:
                        t = copy_done
                    if t < start:
                        best, start = i, t
                agg_done = start + agg_s
                agg_free[best] = agg_done
                agg_busy[best] += agg_s
                if agg_done > until:
                    until = agg_done
                total += nbytes
                out.append(agg_done)
        finally:
            self.used_bytes = used
            self.peak_used = peak
            self.stall_seconds = stall
            self.drained_at = until
            self.bytes_aggregated = total
        return out

    def fold_local(self, ready: float, nbytes: int) -> float:
        """Fold the node's *own* partial update into the aggregate.

        The local partial is already in host memory (DMA'd from the
        accelerator), so it skips the socket copy and the circular buffer
        and goes straight to an aggregation worker.
        """
        agg_s = nbytes / self.config.aggregate_bytes_per_s
        agg_free = self.agg_free
        # First worker with the earliest start, as in ``on_chunks``.
        best = min(range(len(agg_free)), key=lambda i: max(agg_free[i], ready))
        agg_done = max(agg_free[best], ready) + agg_s
        agg_free[best] = agg_done
        self.agg_busy[best] += agg_s
        self.drained_at = max(self.drained_at, agg_done)
        self.bytes_aggregated += nbytes
        return agg_done
