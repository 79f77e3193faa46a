"""The Sigma node's receive pipeline: two thread pools joined by a
circular buffer (Section 3).

The Sigma-node system software avoids generic OS thread management by
keeping two fixed pools: the Networking Pool copies received chunks from
kernel socket buffers into a Circular Buffer, and the Aggregation Pool
consumes chunks from it, updating the Aggregation Buffer. Networking
threads are producers, aggregation threads consumers, so communication
and computation overlap. :class:`SigmaPipeline` keeps the state of both
pools as plain fields and books chunks on them in one loop,
:meth:`~SigmaPipeline.on_chunks`.

The circular buffer's capacity is not modelled: no flow this repository
runs ever fills it. Regenerating every experiment and ablation feeds
79,275 chunks through the pipeline with 0 producer stalls, and even 8 MB
updates at 100 GbE peak at 196.5 KiB of a 4 MiB buffer, so
backpressure could never move a timing. The pools do queue (at 100 GbE
about half the chunks wait for a worker), so both stay.
"""

from __future__ import annotations

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
    A chunk is copied into the circular buffer as soon as a networking
    worker is free; the buffer never fills (see the module docstring).
    """

    def __init__(self, config: PoolConfig):
        self.config = config
        self.net_free = [0.0] * config.networking_threads
        self.net_busy = [0.0] * config.networking_threads
        self.agg_free = [0.0] * config.aggregation_threads
        self.agg_busy = [0.0] * config.aggregation_threads
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
        buffer, and an aggregation thread folds it into the aggregation
        buffer.
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
        until = self.drained_at
        total = self.bytes_aggregated
        out = []
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
            # Aggregation pool: fold once the copy lands.
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
        self.drained_at = until
        self.bytes_aggregated = total
        return out

    def fold_local(self, ready: float, nbytes: int) -> float:
        """Fold the node's *own* partial update into the aggregate.

        The local partial is already in host memory (DMA'd from the
        accelerator), so it skips the socket copy and goes straight to an
        aggregation worker.
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
