"""Mesh-connected computers (§3.1) and the linear array (§3.4.1).

The MCC is an n x n grid of processors with bidirectional links; in one
step a processor computes locally and exchanges one packet with each of its
<= 4 neighbors (the MIMD model of [19], [6], [8], [9], [12]).  The linear
array is the 1-D analysis primitive used to prove Theorem 3.1.
"""

from __future__ import annotations

from repro.topology.base import Topology


class Mesh2D(Topology):
    """An ``rows x cols`` mesh; node id = r * cols + c."""

    name = "mesh"

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("mesh needs positive dimensions")
        self.rows = rows
        self.cols = cols

    @classmethod
    def square(cls, n: int) -> "Mesh2D":
        return cls(n, n)

    # ---- id <-> coordinates --------------------------------------------
    def pack(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"({r},{c}) outside {self.rows}x{self.cols} mesh")
        return r * self.cols + c

    def unpack(self, v: int) -> tuple[int, int]:
        return divmod(v, self.cols)

    # ---- Topology interface -------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.rows * self.cols

    @property
    def diameter(self) -> int:
        return (self.rows - 1) + (self.cols - 1)

    def neighbors(self, v: int) -> list[int]:
        r, c = self.unpack(v)
        out = []
        if r > 0:
            out.append(v - self.cols)
        if r < self.rows - 1:
            out.append(v + self.cols)
        if c > 0:
            out.append(v - 1)
        if c < self.cols - 1:
            out.append(v + 1)
        return out

    def route_next(self, cur: int, dest: int) -> int:
        """Dimension-order (column-first) greedy routing."""
        cr, cc = self.unpack(cur)
        dr, dc = self.unpack(dest)
        if cc != dc:
            return self.pack(cr, cc + (1 if dc > cc else -1))
        if cr != dr:
            return self.pack(cr + (1 if dr > cr else -1), cc)
        return cur

    def distance(self, u: int, v: int) -> int:
        ur, uc = self.unpack(u)
        vr, vc = self.unpack(v)
        return abs(ur - vr) + abs(uc - vc)

    # ---- slices (Figure 5) ----------------------------------------------
    def slice_row_range(self, slice_idx: int, slice_rows: int) -> range:
        """Rows belonging to the given slice (last slice may be short)."""
        lo = slice_idx * slice_rows
        if lo >= self.rows:
            raise ValueError(f"slice {slice_idx} is empty")
        return range(lo, min(lo + slice_rows, self.rows))


class LinearArray(Topology):
    """A 1-D array of n nodes; the building block of §3.4.1's analysis."""

    name = "linear"

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("linear array needs n >= 1")
        self.n = n

    @property
    def num_nodes(self) -> int:
        return self.n

    @property
    def diameter(self) -> int:
        return self.n - 1

    def neighbors(self, v: int) -> list[int]:
        out = []
        if v > 0:
            out.append(v - 1)
        if v < self.n - 1:
            out.append(v + 1)
        return out

    def route_next(self, cur: int, dest: int) -> int:
        if cur == dest:
            return cur
        return cur + (1 if dest > cur else -1)

    def distance(self, u: int, v: int) -> int:
        return abs(u - v)
