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
"""

from __future__ import annotations

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
    "ScanKeys",
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
    on demand for tests, ``OnlineEmulator.queue`` and ``dead_letters``.
    """

    __slots__ = ("matrix", "tenants")

    def __init__(self, matrix: np.ndarray, tenants: tuple[str, ...] = ("default",)):
        self.matrix = matrix
        self.tenants = tenants

    @classmethod
    def from_requests(cls, requests) -> "RequestBatch":
        """The batch holding *requests* (integer write values only)."""
        requests = list(requests)
        tenants = tuple(dict.fromkeys(r.tenant for r in requests))
        ids = {name: i for i, name in enumerate(tenants)}
        rows = [
            (
                r.rid,
                r.pid,
                r.addr,
                r.kind == "read",
                r.epoch,
                NO_VALUE if r.value is None else r.value,
                ids[r.tenant],
            )
            for r in requests
        ]
        matrix = np.asarray(rows, dtype=np.int64).reshape(len(rows), 7).T
        return cls(matrix, tenants)

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
        if not isinstance(other, RequestBatch):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RequestBatch({len(self)} requests, tenants={self.tenants})"


# ---- arrival processes -----------------------------------------------------


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
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self.rate = float(rate)

    def counts(self, epochs: int, rng: np.random.Generator) -> np.ndarray:
        marks = np.floor(self.rate * np.arange(epochs + 1, dtype=np.float64))
        return np.diff(marks).astype(np.int64)


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: epoch counts ~ Poisson(rate), independent."""

    def __init__(self, rate: float) -> None:
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self.rate = float(rate)

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
        if on_rate < 0 or off_rate < 0:
            raise ValueError("rates must be >= 0")
        if not (0 < p_exit_on <= 1 and 0 < p_exit_off <= 1):
            raise ValueError("state-exit probabilities must be in (0, 1]")
        self.on_rate = float(on_rate)
        self.off_rate = float(off_rate)
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
    and two streams with equal seeds agree address for address.  Drawn
    by inverting a precomputed CDF (one ``searchsorted`` per batch),
    truncated to the address space: the bounded analogue of the classic
    Zipf law, the standard skewed-popularity model for cache and
    key-value workloads.
    """

    def __init__(self, address_space: int, exponent: float = 1.1) -> None:
        super().__init__(address_space)
        if exponent <= 0:
            raise ValueError("exponent must be > 0")
        self.exponent = float(exponent)
        weights = np.arange(1, self.address_space + 1, dtype=np.float64)
        weights **= -self.exponent
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        self._cdf = cdf

    def draw(self, k: int, rng: np.random.Generator) -> np.ndarray:
        return np.searchsorted(self._cdf, rng.random(k), side="right").astype(
            np.int64
        )


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


class ScanKeys(KeyDistribution):
    """Sequential scans instead of point lookups.

    Requests come in runs of ``scan_length`` consecutive addresses
    (wrapping at the space boundary) from random start points — the
    access shape of table scans and bulk reads, at the opposite end of
    the locality spectrum from Zipf point traffic.
    """

    def __init__(self, address_space: int, *, scan_length: int = 8) -> None:
        super().__init__(address_space)
        if scan_length < 1:
            raise ValueError("scan_length must be >= 1")
        self.scan_length = int(scan_length)

    def draw(self, k: int, rng: np.random.Generator) -> np.ndarray:
        n_scans = -(-k // self.scan_length)  # ceil
        starts = rng.integers(self.address_space, size=n_scans, dtype=np.int64)
        offsets = np.arange(self.scan_length, dtype=np.int64)
        grid = (starts[:, None] + offsets[None, :]) % self.address_space
        return grid.reshape(-1)[:k]


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
