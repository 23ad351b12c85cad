"""Open-loop workload generators: seeded arrival processes x key patterns.

The closed-batch experiments inject one synthetic PRAM step and drain
it; the traffic subsystem instead *streams* requests at the emulators:
an :class:`ArrivalProcess` decides how many requests arrive in each
epoch, a :class:`KeyDistribution` decides which shared-memory addresses
they touch, and a :class:`WorkloadGenerator` composes the two with a
read/write mix and per-request processor assignment.  An epoch's
arrivals come out as one :class:`RequestBatch` — the draws, stacked as
the rows of an integer matrix — which is the form the driver queues,
admits and serves them in; a :class:`TrafficRequest` is a *view* of one
of its columns.

Randomness discipline
---------------------
Everything follows the library's pre-drawn randomness rule
(:mod:`repro.util.rng`): a :class:`WorkloadGenerator` snapshots one
integer root seed at construction and :meth:`WorkloadGenerator.stream`
derives the entire request stream from it in a fixed draw order —
arrival counts first, then per-epoch addresses, kinds, and processor
ids.  The stream is therefore a pure function of the seed: calling
``stream`` twice, or feeding it to emulators running different engines,
yields bit-identical requests (the differential tests in
``tests/test_traffic.py`` pin this).

The two scenario axes the related work motivates are both here: skewed
key popularity (:class:`ZipfKeys`, :class:`HotspotKeys`) stresses the
hash-based memory distribution exactly where Hanlon's "large memory
from small ones" analysis predicts contention, and bursty arrivals
(:class:`BurstyArrivals`, an on/off MMPP) exercise sustained
multi-round operation instead of one-shot batches.

No key law holds a table over the address space: the emulated memory
is sparse (a dict), and a generator that allocated O(M) floats would
undo what hashing M cells over small modules is for.
:class:`ZipfKeys` inverts its CDF from the first ``2**15`` ranks plus
two floats per 32-rank tail block (0.73 MB at M = ``2**20``, where the
dense CDF was 8 MB), recomputing a tail block at draw time, and draws
exactly the keys the dense inversion would.  Constructors reject
non-finite and negative rates and exponents by name.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.util.rng import as_generator

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "DeterministicArrivals",
    "HotspotKeys",
    "KeyDistribution",
    "PoissonArrivals",
    "RequestBatch",
    "TrafficRequest",
    "UniformKeys",
    "WorkloadGenerator",
    "ZipfKeys",
]


@dataclass(frozen=True)
class TrafficRequest:
    """One shared-memory request in an open-loop stream.

    ``rid`` is unique and monotone within a stream (the conservation
    tests key on it); ``epoch`` is the arrival epoch.  Write requests
    carry ``value`` (defaults to the rid, so concurrent-write resolution
    stays deterministic and observable).  ``tenant`` names the traffic
    source for multi-tenant accounting (quotas, QoS classes, per-tenant
    conservation — see :mod:`repro.sharding.qos`); single-tenant
    generators leave it at ``"default"``.
    """

    rid: int
    pid: int
    addr: int
    kind: str  # "read" | "write"
    epoch: int
    value: Any = None
    tenant: str = "default"


#: the rows of a :class:`RequestBatch` matrix, one per request field
RID, PID, ADDR, IS_READ, EPOCH, VALUE, TENANT = range(7)
#: the ``VALUE`` of a request that carries none (every generated read)
NO_VALUE = np.iinfo(np.int64).min


class RequestBatch:
    """One epoch's arrivals as a ``(field x request)`` int64 matrix.

    The representation a request keeps from the generator to the
    driver's :class:`~repro.traffic.telemetry.EpochRecord`: column j is
    request j, row ``RID`` / ``PID`` / ``ADDR`` / ``IS_READ`` / ``EPOCH``
    / ``VALUE`` / ``TENANT`` its fields (``TENANT`` indexes
    :attr:`tenants`; ``VALUE`` is :data:`NO_VALUE` for ``None``).  The
    driver stacks these matrices into its pending table and slices the
    served step back out, so no per-request object exists on the served
    path.  The object surface is ``len()``, slicing, ``==`` and
    iteration, which yields :class:`TrafficRequest` *row views* — built
    on demand for tests and ``OnlineEmulator.dead_letters``.
    """

    __slots__ = ("matrix", "tenants")

    def __init__(self, matrix: np.ndarray, tenants: tuple[str, ...] = ("default",)):
        self.matrix = matrix
        self.tenants = tenants

    def __len__(self) -> int:
        return self.matrix.shape[1]

    def __getitem__(self, rows: slice) -> "RequestBatch":
        return RequestBatch(self.matrix[:, rows], self.tenants)

    def __iter__(self):
        names = self.tenants
        for rid, pid, addr, is_read, epoch, value, tenant in self.matrix.T.tolist():
            yield TrafficRequest(
                rid,
                pid,
                addr,
                "read" if is_read else "write",
                epoch,
                None if value == NO_VALUE else value,
                names[tenant],
            )

    def __eq__(self, other) -> bool:
        return list(self) == list(other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RequestBatch({len(self)} requests, tenants={self.tenants})"


# ---- arrival processes -----------------------------------------------------


def _check_rate(name: str, value: float) -> float:
    """*value* as a float, or ``ValueError`` naming *name* (NaN fails ``value < 0`` too)."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


class ArrivalProcess(ABC):
    """How many requests arrive in each epoch (an open-loop source)."""

    @abstractmethod
    def counts(self, epochs: int, rng: np.random.Generator) -> np.ndarray:
        """Pre-draw the arrival count of every epoch in one pass."""


class DeterministicArrivals(ArrivalProcess):
    """A constant offered rate: ``rate`` requests per epoch.

    Fractional rates accumulate (rate=1.5 alternates 1, 2, 1, 2, ...),
    so the long-run average is exact.  Draws no randomness.
    """

    def __init__(self, rate: float) -> None:
        self.rate = _check_rate("rate", rate)

    def counts(self, epochs: int, rng: np.random.Generator) -> np.ndarray:
        marks = np.floor(self.rate * np.arange(epochs + 1, dtype=np.float64))
        return np.diff(marks).astype(np.int64)


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: epoch counts ~ Poisson(rate), independent."""

    def __init__(self, rate: float) -> None:
        self.rate = _check_rate("rate", rate)

    def counts(self, epochs: int, rng: np.random.Generator) -> np.ndarray:
        return rng.poisson(self.rate, size=epochs).astype(np.int64)


class BurstyArrivals(ArrivalProcess):
    """On/off Markov-modulated Poisson process (a 2-state MMPP).

    Each epoch the source sits in an ``on`` or ``off`` state and emits
    Poisson(``on_rate``) or Poisson(``off_rate``) requests; the state
    flips with probability ``p_exit_on`` / ``p_exit_off`` per epoch.
    Mean burst length is ``1 / p_exit_on`` epochs, and the long-run
    offered rate is the stationary mix of the two rates.
    """

    def __init__(
        self,
        on_rate: float,
        off_rate: float = 0.0,
        *,
        p_exit_on: float = 0.2,
        p_exit_off: float = 0.2,
        start_on: bool = True,
    ) -> None:
        self.on_rate = _check_rate("on_rate", on_rate)
        self.off_rate = _check_rate("off_rate", off_rate)
        if not (0 < p_exit_on <= 1 and 0 < p_exit_off <= 1):
            raise ValueError("state-exit probabilities must be in (0, 1]")
        self.p_exit_on = float(p_exit_on)
        self.p_exit_off = float(p_exit_off)
        self.start_on = start_on

    def mean_rate(self) -> float:
        """Long-run offered rate (stationary state mix)."""
        pi_on = self.p_exit_off / (self.p_exit_on + self.p_exit_off)
        return pi_on * self.on_rate + (1 - pi_on) * self.off_rate

    def counts(self, epochs: int, rng: np.random.Generator) -> np.ndarray:
        flips = rng.random(epochs)  # pre-drawn state coins, one per epoch
        states = np.empty(epochs, dtype=bool)
        on = self.start_on
        for e in range(epochs):
            states[e] = on
            on = (flips[e] >= self.p_exit_on) if on else (flips[e] < self.p_exit_off)
        rates = np.where(states, self.on_rate, self.off_rate)
        return rng.poisson(rates).astype(np.int64)


# ---- key / address distributions -------------------------------------------


class KeyDistribution(ABC):
    """Which shared-memory addresses a batch of requests touches."""

    def __init__(self, address_space: int) -> None:
        if address_space < 1:
            raise ValueError("address_space must be >= 1")
        self.address_space = int(address_space)

    @abstractmethod
    def draw(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """*k* addresses in ``[0, address_space)`` as an int64 array."""


class UniformKeys(KeyDistribution):
    """Every address equally likely — the hash family's best case."""

    def draw(self, k: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(self.address_space, size=k, dtype=np.int64)


class ZipfKeys(KeyDistribution):
    """Zipf-popular addresses: P(addr = r) proportional to 1/(r+1)^s.

    Address 0 is the hottest (rank 1), address 1 the next, and so on —
    a deterministic rank layout, so a run's hot set is known a priori
    and two streams with equal seeds agree address for address.
    Truncated to the address space: the bounded analogue of the classic
    Zipf law, the standard skewed-popularity model for cache and
    key-value workloads.

    Drawn by inverting the CDF without holding it.  The address space
    stays sparse (the emulated memory is a dict), so the key law must
    not cost O(M) memory either.  One chunked pass over the ranks, at
    most ``2**16`` at a time, keeps two tables:

    * the normalised CDF of the first ``2**15`` ranks (the *head*,
      87 % of Zipf(1.1) draws at M = ``2**20``);
    * for every 32-rank tail block, its normalised last value and the
      raw partial sum just before it.

    That is O(2^15 + M/16) floats.  A draw runs one ``searchsorted``
    over head ++ block ends; a key past the head recomputes its
    block's 32 weights and running sums from the stored raw start,
    divides by the same total and counts the values <= u.

    The result equals the dense ``searchsorted(cdf, u, side="right")``
    bit for bit, from the same single ``rng.random(k)`` call: numpy's
    float64 ``**`` is elementwise, so a weight does not depend on the
    array it is computed in; ``np.cumsum`` (``np.add.accumulate``) is a
    sequential accumulate,
    so a sum restarted from a stored partial sum (``w[0] += prev`` is
    ``prev + w[0]``) reproduces every later partial sum; and every
    value is divided by the same total.  Weights come from numpy
    arrays only — Python's ``float ** -s`` rounds differently.
    """

    #: ranks whose CDF values are held (the head)
    _HEAD = 1 << 15
    #: ranks per tail block, recomputed at draw time
    _BLOCK = 32
    #: ranks per chunk of the build pass (head and chunk are multiples of the block)
    _CHUNK = 1 << 16

    def __init__(self, address_space: int, exponent: float = 1.1) -> None:
        super().__init__(address_space)
        if not (math.isfinite(exponent) and exponent > 0):
            raise ValueError(f"exponent must be finite and > 0, got {exponent!r}")
        self.exponent = float(exponent)
        m, block = self.address_space, self._BLOCK
        head = min(self._HEAD, m)
        n_blocks = -(-(m - head) // block)
        head_sums = np.empty(head)
        # marks[j] is the raw partial sum just before tail block j; marks[-1] the total
        marks = np.empty(n_blocks + 1)
        total = 0.0
        for lo in range(0, m, self._CHUNK):
            sums = np.arange(lo + 1, min(lo + self._CHUNK, m) + 1, dtype=np.float64)
            sums **= -self.exponent
            sums[0] += total
            np.cumsum(sums, out=sums)
            total = sums[-1]
            if lo < head:
                head_sums[lo:] = sums[: head - lo]
            if n_blocks:
                # a mark sits at each rank p = head - 1 + block*j, i.e. at
                # every block-th rank of an aligned chunk from p = head - 1 on
                # (with a tail, head is _HEAD: a multiple of the block)
                skip = max(0, (head - lo) // block - 1)
                ends = sums[block - 1 :: block][skip:]
                j = (lo - head) // block + skip + 1
                marks[j : j + ends.size] = ends
        marks[-1] = total
        self._head = head
        self._table = np.concatenate((head_sums, marks[1:])) / total
        self._marks = marks
        self._total = total
        # a block's ranks (key + 1) as offsets from its first key
        self._ranks = np.arange(1, block + 1, dtype=np.float64)

    def draw(self, k: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(k)
        keys = np.searchsorted(self._table, u, side="right")
        if self._marks.size > 1:
            past = np.flatnonzero(keys >= self._head)
            if past.size:
                keys[past] = self._block_keys(keys[past], u[past])
        return keys.astype(np.int64, copy=False)

    def _block_keys(self, slots: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The keys of draws *u* whose ``searchsorted`` slots lie past the head."""
        # u >= 1.0 (never drawn, but inverted like the dense CDF) passes every end
        np.minimum(slots, self._table.size - 1, out=slots)
        blocks = slots - self._head
        first = blocks * self._BLOCK + self._head  # each block's first key
        sums = first[:, None] + self._ranks
        sums **= -self.exponent
        sums[:, 0] += self._marks[blocks]
        np.add.accumulate(sums, axis=1, out=sums)
        sums /= self._total
        first += (sums <= u[:, None]).sum(axis=1)
        # a short last block's padding ranks sum past the total: only u >= 1.0 counts them
        return np.minimum(first, self.address_space, out=first)


class HotspotKeys(KeyDistribution):
    """A fixed hot set absorbs a fixed fraction of the traffic.

    ``hot_fraction`` of requests land uniformly on the first
    ``hot_addresses`` addresses; the rest spread uniformly over the
    whole space — the online analogue of
    :func:`repro.pram.trace.hotspot_step`.
    """

    def __init__(
        self,
        address_space: int,
        *,
        hot_addresses: int = 1,
        hot_fraction: float = 0.9,
    ) -> None:
        super().__init__(address_space)
        if not 1 <= hot_addresses <= address_space:
            raise ValueError("hot_addresses must be in [1, address_space]")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        self.hot_addresses = int(hot_addresses)
        self.hot_fraction = float(hot_fraction)

    def draw(self, k: int, rng: np.random.Generator) -> np.ndarray:
        hot = rng.random(k) < self.hot_fraction
        hot_draw = rng.integers(self.hot_addresses, size=k, dtype=np.int64)
        cold_draw = rng.integers(self.address_space, size=k, dtype=np.int64)
        return np.where(hot, hot_draw, cold_draw)


# ---- the composed generator ------------------------------------------------


class WorkloadGenerator:
    """Arrival process x key distribution x read/write mix -> request stream.

    Parameters
    ----------
    n_procs:
        Number of PRAM processors; each request originates at a
        uniformly drawn pid (an open-loop source does not wait for its
        previous request, so one processor may issue several requests
        in one epoch — an h-relation, which the emulators support).
    arrivals / keys:
        The :class:`ArrivalProcess` and :class:`KeyDistribution` to
        compose.
    read_fraction:
        Probability a request is a read (writes carry their rid as the
        value).  1.0 (default) is a pure-read workload.
    seed:
        Anything :func:`repro.util.rng.as_generator` accepts.  The
        generator snapshots a single root integer immediately, so the
        stream is replayable regardless of what the caller does with
        its generator afterwards.
    """

    def __init__(
        self,
        n_procs: int,
        *,
        arrivals: ArrivalProcess,
        keys: KeyDistribution,
        read_fraction: float = 1.0,
        seed=None,
    ) -> None:
        if n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.n_procs = int(n_procs)
        self.arrivals = arrivals
        self.keys = keys
        self.read_fraction = float(read_fraction)
        # Snapshot one root seed: stream() must be a pure function of it.
        self.root_seed = int(as_generator(seed).integers(2**63 - 1))

    @property
    def address_space(self) -> int:
        return self.keys.address_space

    def stream(self, epochs: int) -> list[RequestBatch]:
        """The first *epochs* epochs of arrivals, one batch per epoch.

        Fixed draw order — counts, then per-epoch (addresses, kinds,
        pids) — from a generator derived from the snapshotted root
        seed, so equal seeds give bit-identical streams.  The epochs'
        batches are column ranges of one matrix.
        """
        if epochs < 0:
            raise ValueError("epochs must be >= 0")
        rng = np.random.default_rng(self.root_seed)
        counts = self.arrivals.counts(epochs, rng)
        ends = np.cumsum(counts)
        matrix = np.empty((7, int(counts.sum())), dtype=np.int64)
        matrix[RID] = np.arange(matrix.shape[1])
        matrix[EPOCH] = np.repeat(np.arange(epochs), counts)
        matrix[TENANT] = 0
        drawn_kinds = 0.0 < self.read_fraction < 1.0
        matrix[IS_READ] = self.read_fraction >= 1.0
        out = []
        for k, hi in zip(counts.tolist(), ends.tolist()):
            batch = matrix[:, hi - k : hi]
            if k:
                batch[ADDR] = self.keys.draw(k, rng)
                if drawn_kinds:
                    batch[IS_READ] = rng.random(k) < self.read_fraction
                batch[PID] = rng.integers(self.n_procs, size=k, dtype=np.int64)
            out.append(RequestBatch(batch))
        # writes carry their rid as the value
        matrix[VALUE] = np.where(matrix[IS_READ], NO_VALUE, matrix[RID])
        return out
