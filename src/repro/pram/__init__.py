"""The PRAM model: machine, memory, variants, programs, traces (§1)."""

from repro.pram.machine import PRAM, PRAMStepLimitError, Read, Write, run_program
from repro.pram.memory import SharedMemory
from repro.pram.programs import (
    ALL_PROGRAM_BUILDERS,
    OracleMismatchError,
    ProgramSpec,
    boolean_or,
    broadcast,
    find_max,
    histogram,
    list_ranking,
    matrix_multiply,
    odd_even_sort,
    parallel_sum,
    prefix_sum,
)
from repro.pram.trace import (
    MemoryTrace,
    RequestColumns,
    hotspot_step,
    local_step_for_mesh,
    permutation_step,
    random_trace,
)
from repro.pram.variants import (
    AccessMode,
    ConcurrentAccessError,
    WritePolicy,
    resolve_writes,
)

__all__ = [
    "ALL_PROGRAM_BUILDERS",
    "AccessMode",
    "ConcurrentAccessError",
    "MemoryTrace",
    "OracleMismatchError",
    "PRAM",
    "PRAMStepLimitError",
    "ProgramSpec",
    "Read",
    "RequestColumns",
    "SharedMemory",
    "Write",
    "WritePolicy",
    "boolean_or",
    "broadcast",
    "find_max",
    "histogram",
    "hotspot_step",
    "list_ranking",
    "local_step_for_mesh",
    "matrix_multiply",
    "odd_even_sort",
    "parallel_sum",
    "permutation_step",
    "prefix_sum",
    "random_trace",
    "resolve_writes",
    "run_program",
]
