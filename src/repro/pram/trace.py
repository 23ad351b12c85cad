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
