"""The d-way shuffle network (§2.3.5).

N = d**n nodes, each labelled by n d-ary digits ``d_n d_{n-1} ... d_1``
(most-significant first).  Node ``d_n ... d_1`` links to ``l d_n ... d_2``
for every digit l: the label shifts right (dropping the least significant
digit) and an arbitrary new digit enters at the front.  There is a unique
path of exactly n links between any ordered pair of nodes: shift in the
destination's digits, least significant first.  Choosing d = n gives the
*n-way shuffle* with N = n**n nodes and diameter n = Θ(log N / log log N) —
sub-logarithmic, like the star graph.

Links here are directed by construction; following the paper's parallel
model we treat the union with the reverse links as the physical network but
route *forward* along shuffle edges only (both routing phases use forward
edges, re-entering the "first column" of the logical leveled view).
"""

from __future__ import annotations

from repro.topology.base import Topology


class DWayShuffle(Topology):
    """The d-way shuffle on d**n nodes."""

    name = "shuffle"

    def __init__(self, d: int, n: int) -> None:
        if d < 2:
            raise ValueError("shuffle needs digit base d >= 2")
        if n < 1:
            raise ValueError("shuffle needs n >= 1 digits")
        self.d = d
        self.n = n
        self._num_nodes = d**n
        self._msb = d ** (n - 1)

    @classmethod
    def n_way(cls, n: int) -> "DWayShuffle":
        """The n-way shuffle (d = n), the paper's headline instance."""
        return cls(n, n)

    # ---- Topology interface -------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def diameter(self) -> int:
        return self.n

    def shuffle_neighbors(self, v: int) -> list[int]:
        """Forward (directed) shuffle edges out of v."""
        shifted = v // self.d
        return [shifted + l * self._msb for l in range(self.d)]

    def neighbors(self, v: int) -> list[int]:
        """Physical neighborhood: forward edges plus their reverses."""
        fwd = self.shuffle_neighbors(v)
        # Reverse edges: u such that v in shuffle_neighbors(u), i.e.
        # u // d == v mod d**(n-1) shifted ... equivalently
        # u = (v mod msb) * d + l for all digits l.
        back_base = (v % self._msb) * self.d
        back = [back_base + l for l in range(self.d)]
        seen: dict[int, None] = {}
        for w in fwd + back:
            if w != v and w not in seen:
                seen[w] = None
        return list(seen)

    def label(self, v: int) -> tuple[int, ...]:
        """Digits most-significant first (paper's d_n .. d_1)."""
        digits = []
        for _ in range(self.n):
            digits.append(v % self.d)
            v //= self.d
        return tuple(reversed(digits))

    # ---- unique-path routing -------------------------------------------
    def digit(self, v: int, k: int) -> int:
        """k-th least significant digit of v's label (k = 0 .. n-1)."""
        return (v // (self.d**k)) % self.d

    def hop(self, cur: int, insert: int) -> int:
        """One shuffle move: shift right, insert digit at the front."""
        if not 0 <= insert < self.d:
            raise ValueError(f"digit {insert} out of range [0, {self.d})")
        return cur // self.d + insert * self._msb

    def unique_path_next(self, cur: int, dest: int, hops_done: int) -> int:
        """Next node on the unique n-link path from the original source.

        After k hops the label holds the k inserted digits on top of the
        source's high digits; hop k (0-indexed) must insert destination
        digit k (least significant first) so that after n hops the label
        equals *dest* exactly.
        """
        if not 0 <= hops_done < self.n:
            raise ValueError(f"hops_done={hops_done} out of [0, {self.n})")
        return self.hop(cur, self.digit(dest, hops_done))

    def unique_path(self, src: int, dest: int) -> list[int]:
        """The full unique n-link path, endpoints inclusive."""
        path = [src]
        cur = src
        for k in range(self.n):
            cur = self.unique_path_next(cur, dest, k)
            path.append(cur)
        return path

    def route_next(self, cur: int, dest: int) -> int:
        """Greedy shortest forward route (suffix-overlap shortcut).

        A length-k route is the tail of the canonical n-hop path, so its
        first hop inserts destination digit n-k (the hop-(n-k) insertion).
        """
        if cur == dest:
            return cur
        k = self.distance(cur, dest)
        return self.hop(cur, self.digit(dest, self.n - k))

    def distance(self, u: int, v: int) -> int:
        """Shortest forward-path length: min k with v's low n-k digits equal
        to u's high n-k digits (k = n always works)."""
        for k in range(self.n + 1):
            if v % (self.d ** (self.n - k)) == u // (self.d**k):
                return k
        return self.n  # pragma: no cover - k = n always matches
