"""Abstract topology interface shared by all interconnection networks."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Sequence


class RouteStalledError(RuntimeError):
    """A walk that cannot reach where it is headed.

    Raised wherever an itinerary is followed or compiled — by
    :meth:`Topology.greedy_path` and :meth:`Topology.distance`,
    :meth:`~repro.topology.leveled.LeveledNetwork.unique_path`, the
    compiled leveled path builder, the star's canonical path
    (:meth:`~repro.topology.leveled.StarLogicalLeveled.unique_next` and
    its batch form) and the routers' reference ``_next_hop`` policies,
    so the same failure has the same type whichever engine ran:
    ``route_next`` stopped advancing (or wandered past any possible path
    length) at ``node`` on the way to ``dest``, a leveled pass ended on
    row ``node`` instead of ``dest``, or a star canonical step found
    row ``node`` without its symbol staged.  ``packet`` is the packet id
    when a router knows it (a batch builder, which sees no packets,
    gives the row of its input), ``None`` for a bare path walk.
    """

    def __init__(self, node, dest, *, packet: int | None = None) -> None:
        who = "route" if packet is None else f"packet {packet}"
        super().__init__(f"{who} stalled at {node!r} short of {dest!r}")
        self.packet = packet
        self.node = node
        self.dest = dest


class Topology(ABC):
    """A static point-to-point interconnection network.

    Nodes are dense integers ``0 .. num_nodes-1``.

    The contract needed by the routing engine is deliberately small:
    ``neighbors`` (bidirectional links, as in the paper's models) and
    ``route_next`` (the deterministic greedy next hop used by oblivious
    routing algorithms).
    """

    #: short name used in experiment tables
    name: str = "topology"

    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Number of nodes N."""

    @property
    @abstractmethod
    def diameter(self) -> int:
        """Exact network diameter."""

    @abstractmethod
    def neighbors(self, v: int) -> Sequence[int]:
        """Nodes adjacent to *v* (links are bidirectional)."""

    @abstractmethod
    def route_next(self, cur: int, dest: int) -> int:
        """Deterministic greedy next hop from *cur* toward *dest*.

        Must satisfy ``route_next(dest, dest) == dest`` and strictly
        decrease ``distance(cur, dest)`` along the path it induces.
        """

    # ---- derived helpers ----------------------------------------------
    def distance(self, u: int, v: int) -> int:
        """Length of the greedy route from u to v.

        Subclasses override with closed forms when the greedy route is not
        provably shortest; the default walks :meth:`route_next`.
        """
        steps = 0
        cur = u
        limit = 4 * max(1, self.diameter) + 4
        while cur != v:
            nxt = self.route_next(cur, v)
            if nxt == cur:
                raise RouteStalledError(cur, v)
            cur = nxt
            steps += 1
            if steps > limit:
                raise RouteStalledError(cur, v)
        return steps

    def greedy_path(self, u: int, v: int) -> list[int]:
        """Node sequence of the greedy route, inclusive of both endpoints."""
        path = [u]
        cur = u
        limit = 4 * max(1, self.diameter) + 4
        while cur != v:
            cur = self.route_next(cur, v)
            path.append(cur)
            if len(path) > limit + 1:
                raise RouteStalledError(cur, v)
        return path

    def bfs_distance(self, u: int, v: int) -> int:
        """Exact shortest-path distance by BFS (reference for tests)."""
        if u == v:
            return 0
        seen = {u}
        frontier = deque([(u, 0)])
        while frontier:
            node, dist = frontier.popleft()
            for w in self.neighbors(node):
                if w == v:
                    return dist + 1
                if w not in seen:
                    seen.add(w)
                    frontier.append((w, dist + 1))
        raise ValueError(f"{v} unreachable from {u}")

    def bfs_eccentricity(self, u: int) -> int:
        """Largest BFS distance from *u*; used to validate `diameter`."""
        seen = {u}
        frontier = deque([(u, 0)])
        ecc = 0
        while frontier:
            node, dist = frontier.popleft()
            ecc = max(ecc, dist)
            for w in self.neighbors(node):
                if w not in seen:
                    seen.add(w)
                    frontier.append((w, dist + 1))
        if len(seen) != self.num_nodes:
            raise ValueError(f"graph disconnected from {u}")
        return ecc

    def validate_node(self, v: int) -> None:
        if not 0 <= v < self.num_nodes:
            raise ValueError(f"node {v} out of range [0, {self.num_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(N={self.num_nodes}, diam={self.diameter})"
        )
