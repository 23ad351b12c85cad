"""Memory-access traces: the interface between the PRAM and its emulators.

One PRAM instruction (step) is, from the network's point of view, a set of
read/write requests — "each processor has a packet of information and also
each processor wants to access the information some other processor has"
(§3.3).  The machine records a :class:`StepTrace` per step; emulators
replay them and charge network time.

Synthetic trace generators cover the workloads the experiments need
without running full programs: permutation steps, h-relation steps,
hot-spot (concurrent) steps, and distance-bounded local steps for
Theorem 3.3.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.util.rng import as_generator


@dataclass(frozen=True)
class ReadRequest:
    pid: int
    addr: int


@dataclass(frozen=True)
class WriteRequest:
    pid: int
    addr: int
    value: object = None


@dataclass
class StepTrace:
    """All shared-memory requests issued in one PRAM step."""

    reads: list[ReadRequest] = field(default_factory=list)
    writes: list[WriteRequest] = field(default_factory=list)

    @property
    def num_requests(self) -> int:
        return len(self.reads) + len(self.writes)

    def addresses(self) -> list[int]:
        return [r.addr for r in self.reads] + [w.addr for w in self.writes]

    def max_concurrency(self) -> int:
        """Largest number of requests aimed at one address (1 = exclusive)."""
        # counted over the requests, not the address space: a step's
        # cost must not depend on how large its addresses are
        return max(Counter(self.addresses()).values(), default=0)

    def is_erew(self) -> bool:
        return self.max_concurrency() <= 1

    def columns(self) -> "RequestColumns":
        """The same step as aligned columns (reads first, then writes)."""
        reqs = self.reads + self.writes
        is_read = np.zeros(len(reqs), dtype=bool)
        is_read[: len(self.reads)] = True
        values = [None] * len(self.reads) + [w.value for w in self.writes]
        return RequestColumns(
            np.asarray([r.pid for r in reqs], dtype=np.int64),
            np.asarray([r.addr for r in reqs], dtype=np.int64),
            is_read,
            # fromiter keeps a tuple-valued write one object, not a row
            np.fromiter(values, dtype=object, count=len(values)),
        )

    def trace(self) -> "StepTrace":
        return self


@dataclass
class RequestColumns:
    """One PRAM step's requests as aligned columns, in issue order.

    What a serving front end hands ``Emulator.emulate_step``: row i is
    the i-th request, reads and writes interleaved as issued.  ``values``
    is read on the write rows only (an int64 column on the served path,
    an object column out of :meth:`StepTrace.columns`).  The object form
    — :class:`StepTrace` — stays the PRAM machine's and the object-based
    baselines' interface; :meth:`trace` / :meth:`StepTrace.columns` cross
    over, and both classes answer both, so a consumer converts at entry
    without asking which one it was given.
    """

    pids: np.ndarray
    addrs: np.ndarray
    is_read: np.ndarray
    values: np.ndarray

    @property
    def num_requests(self) -> int:
        return len(self.addrs)

    def take(self, rows: np.ndarray) -> "RequestColumns":
        """The sub-step of *rows*, in the order given."""
        return RequestColumns(
            self.pids[rows], self.addrs[rows], self.is_read[rows], self.values[rows]
        )

    def columns(self) -> "RequestColumns":
        return self

    def trace(self) -> StepTrace:
        """The same step as request objects (reads keep their relative
        order, so do writes)."""
        step = StepTrace()
        for pid, addr, is_read, value in zip(
            self.pids.tolist(),
            self.addrs.tolist(),
            self.is_read.tolist(),
            self.values.tolist(),
        ):
            if is_read:
                step.reads.append(ReadRequest(pid, addr))
            else:
                step.writes.append(WriteRequest(pid, addr, value))
        return step


@dataclass
class MemoryTrace:
    """A full program execution's step-by-step request log."""

    steps: list[StepTrace] = field(default_factory=list)
    num_processors: int = 0
    address_space: int = 0

    def __iter__(self) -> Iterator[StepTrace]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def total_requests(self) -> int:
        return sum(s.num_requests for s in self.steps)

    def nonempty_steps(self) -> list[StepTrace]:
        return [s for s in self.steps if s.num_requests > 0]


# ---- synthetic traces ------------------------------------------------------

def permutation_step(
    n_procs: int, address_space: int, seed=None, *, kind: str = "read"
) -> StepTrace:
    """Every processor touches a distinct random address (EREW-legal)."""
    rng = as_generator(seed)
    if n_procs > address_space:
        raise ValueError("need at least one address per processor")
    addrs = rng.choice(address_space, size=n_procs, replace=False)
    step = StepTrace()
    for pid, addr in enumerate(addrs):
        if kind == "read":
            step.reads.append(ReadRequest(pid, int(addr)))
        else:
            step.writes.append(WriteRequest(pid, int(addr), pid))
    return step


def h_relation_step(
    n_procs: int, address_space: int, h: int, seed=None
) -> StepTrace:
    """Up to h requests per processor-address (stresses Theorem 2.4)."""
    rng = as_generator(seed)
    step = StepTrace()
    for rep in range(h):
        addrs = rng.choice(address_space, size=n_procs, replace=False)
        for pid, addr in enumerate(addrs):
            step.reads.append(ReadRequest(pid, int(addr)))
    return step


def hotspot_step(
    n_procs: int,
    address_space: int,
    *,
    hot_addresses: int = 1,
    hot_fraction: float = 1.0,
    seed=None,
) -> StepTrace:
    """Concurrent-read hot spot: a fraction of processors all read the
    same few addresses (the CRCW pattern combining is for)."""
    if not 0 <= hot_fraction <= 1:
        raise ValueError("hot_fraction must be in [0,1]")
    rng = as_generator(seed)
    hot = rng.choice(address_space, size=hot_addresses, replace=False)
    step = StepTrace()
    for pid in range(n_procs):
        if rng.random() < hot_fraction:
            addr = int(hot[int(rng.integers(hot_addresses))])
        else:
            addr = int(rng.integers(address_space))
        step.reads.append(ReadRequest(pid, addr))
    return step


def local_step_for_mesh(
    n: int, max_distance: int, seed=None
) -> StepTrace:
    """Theorem 3.3 workload on an n x n mesh: processor (r, c) reads the
    *module-address* of a distinct node within Manhattan distance
    ``max_distance`` (an EREW-legal "local permutation").

    Construction: tile the mesh with b x b blocks, b = δ//2 + 1, and
    permute addresses uniformly within each block; any two cells of a
    block are within Manhattan distance 2(b-1) <= δ.  Addresses are
    node-direct (identity placement): address a lives in module a.
    """
    if max_distance < 0:
        raise ValueError("max_distance must be >= 0")
    rng = as_generator(seed)
    b = max(1, max_distance // 2 + 1)
    step = StepTrace()
    requests: dict[int, int] = {}
    for br in range(0, n, b):
        for bc in range(0, n, b):
            cells = [
                (r, c)
                for r in range(br, min(br + b, n))
                for c in range(bc, min(bc + b, n))
            ]
            perm = rng.permutation(len(cells))
            for (r, c), t in zip(cells, perm):
                tr, tc = cells[int(t)]
                requests[r * n + c] = tr * n + tc
    for pid in sorted(requests):
        step.reads.append(ReadRequest(pid, requests[pid]))
    return step


def random_trace(
    n_procs: int,
    address_space: int,
    n_steps: int,
    seed=None,
    *,
    read_fraction: float = 0.5,
    erew: bool = True,
) -> MemoryTrace:
    """A multi-step synthetic trace (EREW-legal if *erew*)."""
    rng = as_generator(seed)
    trace = MemoryTrace(num_processors=n_procs, address_space=address_space)
    for _ in range(n_steps):
        step = StepTrace()
        if erew:
            addrs = rng.choice(address_space, size=n_procs, replace=False)
        else:
            addrs = rng.integers(0, address_space, size=n_procs)
        for pid in range(n_procs):
            if rng.random() < read_fraction:
                step.reads.append(ReadRequest(pid, int(addrs[pid])))
            else:
                step.writes.append(WriteRequest(pid, int(addrs[pid]), pid))
        trace.steps.append(step)
    return trace
