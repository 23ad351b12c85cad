"""The binary n-cube (hypercube), the paper's reference point (§1).

N = 2**n nodes, degree n, diameter n = Θ(log N).  Ranade's butterfly
emulation implies an O(log N) PRAM emulation here; the star graph and
n-way shuffle beat this because their diameters are sub-logarithmic.
"""

from __future__ import annotations

from repro.topology.base import Topology


class Hypercube(Topology):
    """Binary n-cube on 2**n nodes; e-cube (dimension-order) routing."""

    name = "hypercube"

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("hypercube needs n >= 1 dimensions")
        self.n = n
        self._num_nodes = 1 << n

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def diameter(self) -> int:
        return self.n

    def neighbors(self, v: int) -> list[int]:
        return [v ^ (1 << i) for i in range(self.n)]

    def route_next(self, cur: int, dest: int) -> int:
        """Fix differing bits lowest-dimension first (e-cube routing)."""
        diff = cur ^ dest
        if diff == 0:
            return cur
        lowest = diff & -diff
        return cur ^ lowest

    def distance(self, u: int, v: int) -> int:
        return (u ^ v).bit_count()
