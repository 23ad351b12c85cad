"""Machine-speed calibration for the host-clock metrics.

The sandbox's cores change speed by +-40% for seconds at a time (a busy
sibling hyper-thread, not scheduling: CPU time stretches with wall
time), wider than the widest regression bound (25%).  No statistic
over one run removes a slow spell that lasts the whole run, so every
timed interval is bracketed by a fixed kernel measured in the same
spell, and host times are divided by

    speed factor = kernel time / KERNEL_NOMINAL_S.

The kernel is the benchmark's own code and never changes with the
repository, so a faster program still reads faster; it mixes small-array
numpy calls with interpreter work in the proportion the routing engine's
per-step loop does, so a slow spell stretches both alike (log-log slope
of unit time against kernel time measured at 0.94-1.03).
"""

from __future__ import annotations

import heapq
from time import perf_counter

import numpy as np

#: the kernel's time on this sandbox at its usual speed; a constant, so
#: that rescaled seconds stay comparable between runs and commits
KERNEL_NOMINAL_S = 0.040
_ROUNDS = 600
_N = 512


def kernel() -> int:
    """A fixed ~40 ms mix of small numpy calls and heap/dict/list work."""
    rng = np.random.default_rng(1)
    pos = rng.integers(0, _N, _N)
    dst = rng.integers(0, _N, _N)
    acc = 0
    heap: list[tuple[int, int]] = []
    table: dict[int, tuple[int, int, int]] = {}
    for step in range(_ROUNDS):
        order = np.argsort(pos, kind="stable")
        count = np.bincount(pos, minlength=_N)
        moving = np.flatnonzero(pos != dst)
        pos[moving] += np.sign(dst[moving] - pos[moving])
        np.add.at(count, pos[order[:64]], 1)
        acc += int(np.cumsum(count)[-1]) + int(order[0])
        for i in range(60):
            heapq.heappush(heap, ((acc + i * 7919) % 1013, i))
            table[i] = (step, i, acc)
        while len(heap) > 30:
            acc += heapq.heappop(heap)[1]
        acc += len([v[1] for v in table.values() if v[2] & 1])
    return acc


def speed_factor() -> float:
    """Time the kernel once: > 1 means the machine is slower than nominal."""
    t0 = perf_counter()
    kernel()
    return (perf_counter() - t0) / KERNEL_NOMINAL_S
