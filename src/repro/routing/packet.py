"""Packets: the unit of communication in every routing algorithm (§2.2.1).

A packet is a (source, destination) pair plus bookkeeping: the engine
tracks hops, queueing delay and the traversed path; a request adds a
combine key (its ``address``) and a combining tree (children absorbed at
merge points, Theorem 2.6's "log d direction bits" realized as
remembered merge structure).
"""

from __future__ import annotations

from typing import Any, Hashable, NamedTuple

import numpy as np


class PacketColumns(NamedTuple):
    """A packet population as aligned integer columns (row i = packet i).

    What the routers' hooks and the fast engine work on: the paper's
    routing is defined on (source, destination) pairs and Theorem 2.6's
    combining on (address, module) keys, so a population needs no
    per-packet object until the reference engine walks it hop by hop.
    ``sources`` / ``dests`` are the router's endpoint ids (a column-0
    row and a last-column row on a leveled network, node ids on a flat
    topology).  Rows sharing a ``combine_keys`` entry (non-negative
    ints) may combine — the caller guarantees that they also share a
    destination; ``None``: nothing combines.  A run combines exactly
    when its population carries keys.
    """

    sources: np.ndarray
    dests: np.ndarray
    combine_keys: np.ndarray | None = None


class Packet:
    """A routable packet.

    ``node`` is the engine-level position key, an int on every network:
    a node id on a flat topology, the compiled id ``position * N + row``
    on a leveled one (:mod:`repro.topology.compiled`; a packet starts at
    position 0, so a column-0 row is its own id).  ``dest`` is the node
    key the packet exits at — the engines compare it with link targets —
    which on a leveled network is the last-column row's id at position
    ``2L``.  ``state`` is scratch space owned by the routing policy
    (phase counters, chosen intermediate nodes, ...).  ``injected_at``
    is the engine's to write: 0 for the population it was handed, the
    spawn step for a packet an ``on_arrival`` hook returned.
    """

    __slots__ = (
        "pid",
        "source",
        "dest",
        "node",
        "address",
        "combine_key",
        "state",
        "hops",
        "injected_at",
        "arrived_at",
        "trace",
        "children",
        "combined",
    )

    def __init__(
        self,
        pid: int,
        source: Hashable,
        dest: Hashable,
        *,
        address: int | None = None,
    ) -> None:
        self.pid = pid
        self.source = source
        self.dest = dest
        self.node = source
        self.address = address
        #: key under which this packet may merge with others, or None:
        #: packets carrying no ``address`` never combine (a data packet
        #: or a reply has nothing to deduplicate); packets agree on a
        #: key exactly when they request the same (address, destination)
        #: pair.  Built once here — the reference engine reads it on
        #: every enqueue and queue-index update — so ``address`` and
        #: ``dest`` are fixed at construction
        self.combine_key: tuple | None = None if address is None else (address, dest)
        self.state: Any = None
        self.hops = 0
        self.injected_at = 0
        self.arrived_at: int | None = None
        self.trace: list[Hashable] | None = None
        self.children: list["Packet"] | None = None
        self.combined = False  # True once absorbed into a host packet

    # ---- combining (Theorem 2.6) ---------------------------------------
    def absorb(self, other: "Packet") -> None:
        """Merge *other* into this packet (concurrent access combining).

        The absorbed packet stops traversing the network; it is recorded as
        a child so replies can fan back out along the combining tree.
        """
        if other.combined:
            raise ValueError(f"packet {other.pid} already combined")
        other.combined = True
        if self.children is None:
            self.children = []
        self.children.append(other)

    def all_represented(self) -> list["Packet"]:
        """This packet plus every packet merged into it, recursively."""
        out = [self]
        stack = list(self.children or ())
        while stack:
            p = stack.pop()
            out.append(p)
            stack.extend(p.children or ())
        return out

    # ---- metrics --------------------------------------------------------
    @property
    def delivered(self) -> bool:
        return self.arrived_at is not None

    @property
    def latency(self) -> int:
        """Total steps from injection to arrival."""
        if self.arrived_at is None:
            raise ValueError(f"packet {self.pid} not delivered")
        return self.arrived_at - self.injected_at

    @property
    def delay(self) -> int:
        """Queueing delay: latency minus path length (§2.2.1)."""
        return self.latency - self.hops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = f"@{self.node}" if not self.delivered else f"done(t={self.arrived_at})"
        return f"Packet({self.pid}, {self.source}->{self.dest}, {status})"


def packet_outcomes(packets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(hops, injected_at, arrived)`` columns of *packets*, row i from
    ``packets[i]``; ``arrived`` is -1 for a packet not delivered."""
    n = len(packets)
    hops = np.fromiter((p.hops for p in packets), dtype=np.int64, count=n)
    injected = np.fromiter((p.injected_at for p in packets), dtype=np.int64, count=n)
    arrived = np.fromiter(
        (-1 if p.arrived_at is None else p.arrived_at for p in packets),
        dtype=np.int64,
        count=n,
    )
    return hops, injected, arrived


def make_packets(sources, dests, *, addresses=None) -> list[Packet]:
    """Build a packet per (source, dest) pair with sequential ids."""
    sources = list(sources)
    dests = list(dests)
    if len(sources) != len(dests):
        raise ValueError("sources and dests must have equal length")
    return [
        Packet(i, s, d, address=None if addresses is None else addresses[i])
        for i, (s, d) in enumerate(zip(sources, dests))
    ]
