"""Internally-managed thread pools and the circular buffer (Section 3).

The Sigma-node system software avoids generic OS thread management by
keeping two fixed pools: the Networking Pool copies received chunks from
kernel socket buffers into a Circular Buffer, and the Aggregation Pool
consumes chunks from it, updating the Aggregation Buffer. Networking
threads are producers, aggregation threads consumers; the circular buffer
bounds memory and provides backpressure while letting communication and
computation overlap.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import List, Sequence


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


class WorkerPool:
    """A fixed set of workers, each serially reusable.

    ``free[i]`` is when worker ``i`` next becomes free and ``busy[i]`` the
    seconds it has worked. A work item goes to the first worker with the
    smallest ``max(free, earliest)`` and starts then (FCFS in call order).
    """

    def __init__(self, name: str, workers: int):
        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        self.name = name
        self.free: List[float] = [0.0] * workers
        self.busy: List[float] = [0.0] * workers

    def dispatch(self, earliest: float, duration: float) -> float:
        """Run one work item on the first worker free; returns finish time."""
        free = self.free
        best, start = 0, free[0]
        if earliest > start:
            start = earliest
        for i in range(1, len(free)):
            t = free[i]
            if earliest > t:
                t = earliest
            if t < start:
                best, start = i, t
        done = start + duration
        free[best] = done
        self.busy[best] += duration
        return done

    @property
    def size(self) -> int:
        return len(self.free)

    def busy_seconds(self) -> float:
        return sum(self.busy)


class CircularBuffer:
    """Bounded producer-consumer staging between the two pools.

    Tracks occupancy over simulated time: a producer finishing a copy at
    time ``t`` must wait until the consumer has freed enough space. The
    buffer is deliberately small — "the Circular Buffer reduces the memory
    required for aggregating partial results from multiple sources while
    enabling overlap between communication and computation".
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        #: (free_time, nbytes) chunks currently occupying space, sorted
        self._occupied: list = []
        self._used = 0
        self.peak_used = 0
        self.stall_seconds = 0.0

    @property
    def used_bytes(self) -> int:
        return self._used

    def reserve(self, when: float, nbytes: int, free_time: float) -> float:
        """Claim ``nbytes`` at or after ``when``; returns the actual time.

        ``free_time`` is when the consumer will release this chunk. If the
        buffer is full, the producer stalls until enough chunks drain.
        """
        if nbytes > self.capacity_bytes:
            raise ValueError("chunk larger than the whole circular buffer")
        occupied = self._occupied
        used = self._used
        start = when
        k = 0  # occupied[:k] has drained by ``start``
        while True:
            while k < len(occupied) and occupied[k][0] <= start:
                used -= occupied[k][1]
                k += 1
            if used + nbytes <= self.capacity_bytes:
                break
            # Everything due by ``start`` has drained, so the next chunk
            # frees strictly later: the producer stalls until then.
            next_free = occupied[k][0]
            self.stall_seconds += next_free - start
            start = next_free
        del occupied[:k]
        insort(occupied, (free_time, nbytes))
        used += nbytes
        self._used = used
        if used > self.peak_used:
            self.peak_used = used
        return start


class SigmaPipeline:
    """The receive-copy-aggregate pipeline of a Sigma node (Figure 2)."""

    def __init__(self, config: PoolConfig, buffer_bytes: int = 4 * 1024 * 1024):
        self.config = config
        self.networking = WorkerPool("net", config.networking_threads)
        self.aggregation = WorkerPool("agg", config.aggregation_threads)
        self.buffer = CircularBuffer(buffer_bytes)
        self._aggregated_until = 0.0
        self.bytes_aggregated = 0

    def on_chunk(self, arrival: float, nbytes: int) -> float:
        """Process one received chunk; returns its aggregation finish time."""
        return self.on_chunks((arrival,), (nbytes,))[0]

    def on_chunks(
        self, arrivals: Sequence[float], sizes: Sequence[int]
    ) -> List[float]:
        """Process received chunks in arrival order; returns each chunk's
        aggregation finish time.

        For each chunk, the Incoming Network Handler catches the epoll
        event, a networking thread copies the chunk into the circular
        buffer (stalling while it is full), and an aggregation thread
        folds it into the aggregation buffer. This is
        :meth:`WorkerPool.dispatch` and :meth:`CircularBuffer.reserve`
        inlined, with the same float operations in the same order.
        """
        cfg = self.config
        copy_rate = cfg.copy_bytes_per_s
        agg_rate = cfg.aggregate_bytes_per_s
        wakeup = cfg.wakeup_overhead_s
        net_free = self.networking.free
        net_busy = self.networking.busy
        agg_free = self.aggregation.free
        agg_busy = self.aggregation.busy
        net_rest = range(1, len(net_free))
        agg_rest = range(1, len(agg_free))
        buf = self.buffer
        capacity = buf.capacity_bytes
        occupied = buf._occupied
        used = buf._used
        peak = buf.peak_used
        stall = buf.stall_seconds
        until = self._aggregated_until
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
            buf._used = used
            buf.peak_used = peak
            buf.stall_seconds = stall
            self._aggregated_until = until
            self.bytes_aggregated = total
        return out

    def fold_local(self, ready: float, nbytes: int) -> float:
        """Fold the node's *own* partial update into the aggregate.

        The local partial is already in host memory (DMA'd from the
        accelerator), so it skips the socket copy and the circular buffer
        and goes straight to an aggregation worker.
        """
        agg_s = nbytes / self.config.aggregate_bytes_per_s
        agg_done = self.aggregation.dispatch(ready, agg_s)
        self._aggregated_until = max(self._aggregated_until, agg_done)
        self.bytes_aggregated += nbytes
        return agg_done

    @property
    def drained_at(self) -> float:
        """Time the last chunk so far was folded into the aggregate."""
        return self._aggregated_until
