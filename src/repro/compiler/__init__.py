"""CoSMIC compilation layer, part 2: mapping, scheduling, memory program."""

from .mapping import (
    Mapping,
    MappingError,
    PeGrid,
    communication_edges,
    map_graph,
)
from .memsched import (
    READ,
    WRITE,
    MemEntry,
    MemorySchedule,
    ThreadIndexEntry,
    build_memory_schedule,
    build_thread_index_table,
)
from .program import CompiledProgram, compile_thread
from .scheduling import (
    Schedule,
    ScheduledOp,
    Transfer,
    schedule_graph,
    tree_bus_latency,
    verify_schedule,
)

__all__ = [
    "CompiledProgram",
    "Mapping",
    "MappingError",
    "MemEntry",
    "MemorySchedule",
    "PeGrid",
    "READ",
    "Schedule",
    "ScheduledOp",
    "ThreadIndexEntry",
    "Transfer",
    "WRITE",
    "build_memory_schedule",
    "build_thread_index_table",
    "communication_edges",
    "compile_thread",
    "map_graph",
    "schedule_graph",
    "tree_bus_latency",
    "verify_schedule",
]
