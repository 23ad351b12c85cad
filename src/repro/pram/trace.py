"""Memory-access traces: the interface between the PRAM and its emulators.

One PRAM instruction (step) is, from the network's point of view, a set of
read/write requests — "each processor has a packet of information and also
each processor wants to access the information some other processor has"
(§3.3).  The machine records one :class:`RequestColumns` per step;
emulators replay them and charge network time.

Synthetic trace generators cover the workloads the experiments need
without running full programs: permutation steps, h-relation steps,
hot-spot (concurrent) steps, and distance-bounded local steps for
Theorem 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.util.rng import as_generator


@dataclass
class RequestColumns:
    """One PRAM step's requests as aligned columns.

    Row i is the i-th request.  :meth:`of` — what the PRAM machine and
    the synthetic generators build with — puts reads first, then
    writes, each in the order given; a serving front end slices its
    rows out of its request table in issue order, reads and writes
    interleaved.  ``values`` is read on the write rows only (an int64
    column on the served path, an object column out of :meth:`of`).
    """

    pids: np.ndarray
    addrs: np.ndarray
    is_read: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        # a short column would silently drop the rows it lacks
        lengths = {
            name: len(getattr(self, name))
            for name in ("pids", "addrs", "is_read", "values")
        }
        longest = max(lengths, key=lengths.__getitem__)
        for name, n in lengths.items():
            if n != lengths[longest]:
                raise ValueError(
                    f"RequestColumns.{name} has {n} rows but "
                    f"{longest} has {lengths[longest]}"
                )

    @classmethod
    def of(
        cls,
        reads: Iterable[tuple[int, int]] = (),
        writes: Iterable[tuple[int, int, object]] = (),
    ) -> "RequestColumns":
        """A step from ``(pid, addr)`` reads and ``(pid, addr, value)``
        writes: the reads' rows first, then the writes', each in the
        order given."""
        reads, writes = list(reads), list(writes)
        is_read = np.zeros(len(reads) + len(writes), dtype=bool)
        is_read[: len(reads)] = True
        values = [None] * len(reads) + [value for _pid, _addr, value in writes]
        return cls(
            np.asarray(
                [pid for pid, _addr in reads] + [pid for pid, _addr, _v in writes],
                dtype=np.int64,
            ),
            np.asarray(
                [addr for _pid, addr in reads] + [addr for _pid, addr, _v in writes],
                dtype=np.int64,
            ),
            is_read,
            # fromiter keeps a tuple-valued write one object, not a row
            np.fromiter(values, dtype=object, count=len(values)),
        )

    @property
    def num_requests(self) -> int:
        return len(self.addrs)

    def take(self, rows: np.ndarray) -> "RequestColumns":
        """The sub-step of *rows*, in the order given."""
        return RequestColumns(
            self.pids[rows], self.addrs[rows], self.is_read[rows], self.values[rows]
        )

    def reads_first(self) -> "RequestColumns":
        """The same step with its reads' rows first, then its writes';
        each kind keeps its issue order.  A step of one kind is already
        in that order and comes back as itself, its columns shared: a
        caller that writes into them must copy first (the emulators
        derive new columns and write into those only)."""
        if np.count_nonzero(self.is_read) in (0, len(self.is_read)):
            return self
        return self.take(
            (~np.asarray(self.is_read, dtype=bool)).argsort(kind="stable")
        )

    def from_reads_first(self, column: np.ndarray) -> np.ndarray:
        """*column*, one entry per row of :meth:`reads_first`, put back
        in this step's row order: the reads' entries come first there,
        each kind in issue order, so two mask writes undo the reorder."""
        n_reads = np.count_nonzero(self.is_read)
        if n_reads in (0, len(self.is_read)):
            return column
        is_read = np.asarray(self.is_read, dtype=bool)
        out = np.empty_like(column)
        out[is_read] = column[:n_reads]
        out[~is_read] = column[n_reads:]
        return out

    def max_concurrency(self) -> int:
        """Largest number of requests aimed at one address (1 = exclusive)."""
        # counted over the requests, not the address space: a step's
        # cost must not depend on how large its addresses are
        if not self.num_requests:
            return 0
        return int(np.unique(self.addrs, return_counts=True)[1].max())

    def is_erew(self) -> bool:
        return self.max_concurrency() <= 1


@dataclass
class MemoryTrace:
    """A full program execution's step-by-step request log."""

    steps: list[RequestColumns] = field(default_factory=list)
    num_processors: int = 0
    address_space: int = 0

    def __iter__(self) -> Iterator[RequestColumns]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)


# ---- synthetic traces ------------------------------------------------------

def permutation_step(
    n_procs: int, address_space: int, seed=None, *, kind: str = "read"
) -> RequestColumns:
    """Every processor touches a distinct random address (EREW-legal)."""
    if kind not in ("read", "write"):
        raise ValueError(f"kind must be 'read' or 'write', not {kind!r}")
    rng = as_generator(seed)
    if n_procs > address_space:
        raise ValueError("need at least one address per processor")
    addrs = rng.choice(address_space, size=n_procs, replace=False).tolist()
    if kind == "read":
        return RequestColumns.of(reads=enumerate(addrs))
    return RequestColumns.of(writes=[(pid, addr, pid) for pid, addr in enumerate(addrs)])


def hotspot_step(
    n_procs: int,
    address_space: int,
    *,
    hot_addresses: int = 1,
    hot_fraction: float = 1.0,
    seed=None,
) -> RequestColumns:
    """Concurrent-read hot spot: a fraction of processors all read the
    same few addresses (the CRCW pattern combining is for)."""
    if not 0 <= hot_fraction <= 1:
        raise ValueError("hot_fraction must be in [0,1]")
    rng = as_generator(seed)
    hot = rng.choice(address_space, size=hot_addresses, replace=False)
    reads = []
    # scalar draws, interleaved per processor: the seeded stream of record
    for pid in range(n_procs):
        if rng.random() < hot_fraction:
            addr = int(hot[int(rng.integers(hot_addresses))])
        else:
            addr = int(rng.integers(address_space))
        reads.append((pid, addr))
    return RequestColumns.of(reads=reads)


def local_step_for_mesh(
    n: int, max_distance: int, seed=None
) -> RequestColumns:
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
    return RequestColumns.of(reads=sorted(requests.items()))


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
        if erew:
            addrs = rng.choice(address_space, size=n_procs, replace=False)
        else:
            addrs = rng.integers(0, address_space, size=n_procs)
        is_read = (rng.random(n_procs) < read_fraction).tolist()
        rows = list(enumerate(addrs.tolist()))
        trace.steps.append(
            RequestColumns.of(
                reads=[(pid, addr) for pid, addr in rows if is_read[pid]],
                writes=[(pid, addr, pid) for pid, addr in rows if not is_read[pid]],
            )
        )
    return trace
