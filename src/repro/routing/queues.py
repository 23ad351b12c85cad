"""Link-queue disciplines (§2.2.1).

The paper's algorithms use two arbitration rules:

* **FIFO** — first-in first-out, used by the leveled-network algorithms
  (Theorems 2.1-2.4 explicitly promise FIFO queues, the simplest hardware).
* **Furthest-destination-first** — the priority rule of §3.4's mesh
  algorithm (packets with farther stage targets preempt closer ones).

Both expose the same tiny interface so the engine is discipline-agnostic.

Combining lookups (``find_combinable``) are O(1): a queue keeps a side
index from :attr:`Packet.combine_key` to the resident packets with that
key.  The paper's footnote-3 model performs a merge "in one unit time",
so the simulator should too — the previous linear scan made hotspot
(CRCW) runs quadratic in the queue length.  The index is built lazily on
the first ``find_combinable`` call and maintained on push/pop from then
on, so non-combining runs (which never ask) pay nothing.  Packets
without an ``address`` have no combine key and are not indexed.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Iterable, Optional

from repro.routing.packet import Packet


class LinkQueue:
    """Interface: an output queue attached to one directed link."""

    def push(self, packet: Packet) -> None:
        raise NotImplementedError

    def pop(self) -> Packet:
        raise NotImplementedError

    def peek(self) -> Packet:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def in_service_order(self) -> list[tuple[Packet, float]]:
        """The queued packets, each with its rank, in the order they
        will be sent (a FIFO queue ranks every packet 0)."""
        raise NotImplementedError

    def find_combinable(self, key) -> Optional[Packet]:
        """The earliest-queued packet whose combine key equals *key*.

        Returns None when no resident packet carries that key.  Packets
        whose ``address`` is None have no combine key and never match.
        """
        raise NotImplementedError


def _index_build(packets: Iterable[Packet]) -> dict:
    index: dict[tuple, list[Packet]] = {}
    for packet in packets:
        key = packet.combine_key
        if key is not None:
            index.setdefault(key, []).append(packet)
    return index


def _index_add(index: dict, packet: Packet) -> None:
    key = packet.combine_key
    if key is not None:
        index.setdefault(key, []).append(packet)


def _index_remove(index: dict, packet: Packet) -> None:
    key = packet.combine_key
    if key is None:
        return
    bucket = index.get(key)
    if bucket:
        bucket.remove(packet)
        if not bucket:
            del index[key]


class FIFOQueue(LinkQueue):
    """Plain first-in first-out queue."""

    __slots__ = ("_q", "_index")

    def __init__(self) -> None:
        self._q: deque[Packet] = deque()
        self._index: dict | None = None

    def push(self, packet: Packet) -> None:
        self._q.append(packet)
        if self._index is not None:
            _index_add(self._index, packet)

    def pop(self) -> Packet:
        packet = self._q.popleft()
        if self._index is not None:
            _index_remove(self._index, packet)
        return packet

    def peek(self) -> Packet:
        return self._q[0]

    def in_service_order(self) -> list[tuple[Packet, float]]:
        return [(p, 0) for p in self._q]

    def __len__(self) -> int:
        return len(self._q)

    def find_combinable(self, key) -> Optional[Packet]:
        if self._index is None:
            self._index = _index_build(self._q)
        bucket = self._index.get(key)
        return bucket[0] if bucket else None


class FurthestFirstQueue(LinkQueue):
    """Priority queue: largest *priority* first, FIFO among ties.

    The priority function is supplied at construction (for the mesh it is
    "distance to the current stage target"); priorities are evaluated at
    push time, matching the paper's model where a packet's urgency is a
    static property of its destination.
    """

    __slots__ = ("_heap", "_counter", "_priority", "_index")

    def __init__(self, priority: Callable[[Packet], float]) -> None:
        self._heap: list[tuple[float, int, Packet]] = []
        self._counter = 0
        self._priority = priority
        self._index: dict | None = None

    def push(self, packet: Packet) -> None:
        heapq.heappush(self._heap, (-self._priority(packet), self._counter, packet))
        self._counter += 1
        if self._index is not None:
            _index_add(self._index, packet)

    def pop(self) -> Packet:
        packet = heapq.heappop(self._heap)[2]
        if self._index is not None:
            _index_remove(self._index, packet)
        return packet

    def peek(self) -> Packet:
        return self._heap[0][2]

    def in_service_order(self) -> list[tuple[Packet, float]]:
        # the order pops would take, popped off a copy of the heap
        heap = list(self._heap)
        return [(p, -rank) for rank, _, p in (heapq.heappop(heap) for _ in self._heap)]

    def __len__(self) -> int:
        return len(self._heap)

    def find_combinable(self, key) -> Optional[Packet]:
        if self._index is None:
            self._index = _index_build(entry[2] for entry in self._heap)
        bucket = self._index.get(key)
        return bucket[0] if bucket else None


def fifo_factory() -> FIFOQueue:
    return FIFOQueue()


def furthest_first_factory(priority: Callable[[Packet], float]):
    """Factory of FurthestFirstQueues sharing one priority function."""

    def make() -> FurthestFirstQueue:
        return FurthestFirstQueue(priority)

    return make
