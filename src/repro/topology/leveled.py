"""Leveled networks (Definition in §2.3.1, Figure 1).

A leveled network has columns c_0 .. c_L of N nodes each (we index the L
*edge layers* 0..L-1 between consecutive columns).  Links exist only
between adjacent columns; every node has at most d out-links; and from any
node of the first column there is exactly one path of length L to any node
of the last column (the *unique path* property).

Routing phase 2 of the universal algorithm (Algorithm 2.1) follows that
unique path.  Networks like the shuffle and the wrapped butterfly identify
the last column with the first, so a packet that reaches the last column
can re-enter at column 0 of a second *pass*; both the hypercube/butterfly
("cube class") and the paper's headline networks (star graph via its
logical network of Figure 3, n-way shuffle via Figure 4) fit this mold.

Concrete families here:

* :class:`DAryButterflyLeveled` — the canonical degree-d, L-level network
  with N = d**L rows and graph-theoretically unique paths; setting
  L = Θ(d) gives the paper's "ℓ = O(d)" regime.
* :class:`ShuffleLeveled` — the logical leveled view of the d-way shuffle.
* :class:`StarLogicalLeveled` — the logical network of the n-star graph
  (Figure 3): 2(n-1) stages of "bring the needed symbol to the front, then
  place it", degree n (n-1 swaps + 1 self link).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.topology.base import RouteStalledError
from repro.topology.shuffle import DWayShuffle
from repro.topology.star import (
    StarGraph,
    lexicographic_perms,
    perm_keys,
    perm_rank,
    perm_unrank,
    swap_j,
)


class LeveledNetwork(ABC):
    """Abstract leveled network: L edge layers over columns of N nodes."""

    #: short name used in experiment tables
    name: str = "leveled"
    #: True when the length-L path between first/last column pairs is
    #: graph-theoretically unique (butterfly, shuffle); False when
    #: ``unique_next`` merely selects a canonical path (star logical net).
    has_unique_paths: bool = True
    #: True when every node at every level has exactly ``degree``
    #: out-links (all built-in families).  Routers then pre-draw the
    #: phase-1 coin flips of Algorithm 2.1 in one batched RNG call, and
    #: the compiled fast path can build dense out-neighbor tables.
    uniform_out_degree: bool = True

    @property
    @abstractmethod
    def num_levels(self) -> int:
        """L: number of edge layers (columns = L + 1)."""

    @property
    @abstractmethod
    def column_size(self) -> int:
        """N: nodes per column."""

    @property
    @abstractmethod
    def degree(self) -> int:
        """d: maximum out-degree of a node."""

    @abstractmethod
    def out_neighbors(self, level: int, node: int) -> Sequence[int]:
        """Column-(level+1) nodes reachable from *node* in column *level*."""

    @abstractmethod
    def unique_next(self, level: int, node: int, dest: int) -> int:
        """Next hop on the (canonical) unique path toward last-column *dest*."""

    # ---- batched forms (compiled fast path) -----------------------------
    @abstractmethod
    def out_neighbor_table(self, level: int) -> np.ndarray:
        """Dense ``(N, degree)`` array: row r lists out_neighbors(level, r).

        Column order matches :meth:`out_neighbors` so a pre-drawn coin c
        selects the same bridge as ``out_neighbors(level, r)[c]``.  Only
        coin-mode compilation reads it, and only on a network with
        :attr:`uniform_out_degree`.
        """

    @abstractmethod
    def unique_next_batch(
        self, level: int, rows: np.ndarray, dests: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`unique_next` over parallel row/dest arrays."""

    def pass_rows(
        self, rows: np.ndarray, *, coins=None, targets=None
    ) -> np.ndarray | None:
        """A whole pass in closed form, or ``None`` if the network has
        none (the default): the ``(n, L)`` rows visited from *rows* —
        column l the row after edge layer l — following the int64 bridge
        choices *coins* (``(n, L)``, columns of :meth:`out_neighbor_table`,
        each in ``[0, degree)``) or the unique path to *targets*.
        :meth:`CompiledLeveledTopology.build_paths
        <repro.topology.compiled.CompiledLeveledTopology.build_paths>`
        walks the levels itself where this is ``None``."""
        return None

    # ---- derived --------------------------------------------------------
    @property
    def num_columns(self) -> int:
        return self.num_levels + 1

    def unique_path(self, src: int, dest: int) -> list[int]:
        """Column-by-column node sequence of the canonical path."""
        path = [src]
        cur = src
        for level in range(self.num_levels):
            cur = self.unique_next(level, cur, dest)
            path.append(cur)
        if cur != dest:
            raise RouteStalledError(cur, dest)
        return path

    def validate_level(self, level: int) -> None:
        if not 0 <= level < self.num_levels:
            raise ValueError(f"level {level} out of range [0, {self.num_levels})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(L={self.num_levels}, N={self.column_size}, "
            f"d={self.degree})"
        )


class DAryButterflyLeveled(LeveledNetwork):
    """Degree-d butterfly-style leveled network with N = d**L rows.

    At edge layer i, node x connects to every node obtained by rewriting
    d-ary digit i of x; the unique path to *dest* rewrites digit i to
    dest's digit i.  This is the natural generalization of the binary
    butterfly and the canonical witness for Theorem 2.1's "leveled network
    of ℓ levels with degree d".
    """

    name = "dary-butterfly"
    has_unique_paths = True

    def __init__(self, d: int, levels: int) -> None:
        if d < 2:
            raise ValueError("need digit base d >= 2")
        if levels < 1:
            raise ValueError("need at least one level")
        self.d = d
        self._levels = levels
        self._n = d**levels
        #: d**(l+1) per edge layer l: the span of the digits 0..l
        self._spans = d ** np.arange(1, levels + 1, dtype=np.int64)
        #: d**l per edge layer l: the weight of the digit that layer's
        #: coin writes
        self._bridge_weights = self._spans // d

    @property
    def num_levels(self) -> int:
        return self._levels

    @property
    def column_size(self) -> int:
        return self._n

    @property
    def degree(self) -> int:
        return self.d

    def _digit_base(self, level: int) -> int:
        return self.d**level

    def out_neighbors(self, level: int, node: int) -> list[int]:
        self.validate_level(level)
        base = self._digit_base(level)
        low = node % base
        rest = node - (node % (base * self.d)) + low
        return [rest + digit * base for digit in range(self.d)]

    def unique_next(self, level: int, node: int, dest: int) -> int:
        self.validate_level(level)
        base = self._digit_base(level)
        dest_digit = (dest // base) % self.d
        low = node % base
        rest = node - (node % (base * self.d)) + low
        return rest + dest_digit * base

    def out_neighbor_table(self, level: int) -> np.ndarray:
        self.validate_level(level)
        base = self._digit_base(level)
        x = np.arange(self._n, dtype=np.int64)
        rest = x - x % (base * self.d) + x % base
        return rest[:, None] + np.arange(self.d, dtype=np.int64)[None, :] * base

    def unique_next_batch(
        self, level: int, rows: np.ndarray, dests: np.ndarray
    ) -> np.ndarray:
        self.validate_level(level)
        base = self._digit_base(level)
        rows = np.asarray(rows, dtype=np.int64)
        dest_digit = (np.asarray(dests, dtype=np.int64) // base) % self.d
        rest = rows - rows % (base * self.d) + rows % base
        return rest + dest_digit * base

    def pass_rows(self, rows, *, coins=None, targets=None) -> np.ndarray:
        """Edge layer l rewrites digit l, so after layer l digits 0..l
        are the coins' (digit j is coin j) or the target's:
        ``row - row % d**(l+1)`` plus those low digits, one broadcast."""
        spans = self._spans
        if coins is None:
            low = targets[:, None] % spans
        else:
            low = (coins * self._bridge_weights).cumsum(axis=1)
        rows = rows[:, None]
        return rows - rows % spans + low


class ShuffleLeveled(LeveledNetwork):
    """Logical leveled view of the d-way shuffle (Figure 4).

    Every edge layer applies one shuffle move (shift right, insert a digit
    at the front); after L = n layers the label is fully rewritten, so the
    insertion sequence — hence the path — is uniquely determined by the
    destination.
    """

    name = "shuffle-leveled"
    has_unique_paths = True

    def __init__(self, d: int, n: int) -> None:
        self.shuffle = DWayShuffle(d, n)

    @classmethod
    def n_way(cls, n: int) -> "ShuffleLeveled":
        return cls(n, n)

    @property
    def num_levels(self) -> int:
        return self.shuffle.n

    @property
    def column_size(self) -> int:
        return self.shuffle.num_nodes

    @property
    def degree(self) -> int:
        return self.shuffle.d

    def out_neighbors(self, level: int, node: int) -> list[int]:
        self.validate_level(level)
        return self.shuffle.shuffle_neighbors(node)

    def unique_next(self, level: int, node: int, dest: int) -> int:
        self.validate_level(level)
        return self.shuffle.unique_path_next(node, dest, level)

    def out_neighbor_table(self, level: int) -> np.ndarray:
        self.validate_level(level)
        sh = self.shuffle
        shifted = np.arange(sh.num_nodes, dtype=np.int64) // sh.d
        return (
            shifted[:, None]
            + np.arange(sh.d, dtype=np.int64)[None, :] * (sh.num_nodes // sh.d)
        )

    def unique_next_batch(
        self, level: int, rows: np.ndarray, dests: np.ndarray
    ) -> np.ndarray:
        self.validate_level(level)
        sh = self.shuffle
        digit = (np.asarray(dests, dtype=np.int64) // sh.d**level) % sh.d
        return np.asarray(rows, dtype=np.int64) // sh.d + digit * (
            sh.num_nodes // sh.d
        )


class StarLogicalLeveled(LeveledNetwork):
    """Logical leveled network of the n-star graph (Figure 3).

    Stage i (i = 0 .. n-2) moves a packet into the correct i+1-th stage
    subgraph G^{i+1} (Definition 2.6) by fixing the symbol at position
    n-1-i to the destination's symbol.  Each stage costs at most two
    physical star moves — "bring the needed symbol to the front" then
    "place it" — so the logical network has 2(n-1) edge layers.  Each node
    offers its n-1 SWAP links plus a self link (a node may act as a switch
    and forward without moving), giving logical degree n = Θ(diameter),
    the paper's "leveled network in which ℓ = O(d)" regime.

    The canonical path is destination-dependent (the graph itself admits
    many layered paths), so ``has_unique_paths`` is False: uniqueness here
    is a property of the *selection rule*, exactly how the paper uses it.
    """

    name = "star-logical"
    has_unique_paths = False

    def __init__(self, n: int) -> None:
        self.star = StarGraph(n)
        self.n = n
        self._nbr_table: np.ndarray | None = None
        self._perm_table: np.ndarray | None = None
        self._pos_table: np.ndarray | None = None

    @property
    def num_levels(self) -> int:
        return 2 * (self.n - 1)

    @property
    def column_size(self) -> int:
        return self.star.num_nodes

    @property
    def degree(self) -> int:
        return self.n  # n-1 swaps + self link

    def out_neighbors(self, level: int, node: int) -> list[int]:
        self.validate_level(level)
        return [node] + self.star.neighbors(node)

    def out_neighbor_table(self, level: int) -> np.ndarray:
        # The star's logical links are the same at every stage, so one
        # table (self link + n-1 swaps per node) serves all levels.
        # SWAP_j exchanges base-n digits 0 and j of a row's key (see
        # repro.topology.star.perm_keys), so column j is one key update
        # and one sorted lookup into the keys, which ascend with rank.
        self.validate_level(level)
        if self._nbr_table is None:
            n = self.n
            perm = self._symbol_tables()[0]
            keys = perm_keys(perm)
            weight = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
            table = np.empty((self.column_size, n), dtype=np.int64)
            table[:, 0] = np.arange(self.column_size, dtype=np.int64)
            for j in range(1, n):
                swapped = keys + (perm[:, j] - perm[:, 0]) * (weight[0] - weight[j])
                table[:, j] = np.searchsorted(keys, swapped)
            self._nbr_table = table
        return self._nbr_table

    def unique_next(self, level: int, node: int, dest: int) -> int:
        self.validate_level(level)
        stage, substep = divmod(level, 2)
        pos = self.n - 1 - stage  # the position this stage pins down
        cur_p = perm_unrank(node, self.n)
        dest_p = perm_unrank(dest, self.n)
        sym = dest_p[pos]
        if cur_p[pos] == sym:
            return node  # already in the right subgraph: forward as switch
        if substep == 0:
            if cur_p[0] == sym:
                return node  # symbol staged at the front; place next layer
            loc = cur_p.index(sym)
            return perm_rank(swap_j(cur_p, loc))
        # substep 1: the symbol is at the front (substep 0 guarantees it);
        # if not, the canonical path is broken and cannot reach dest
        if cur_p[0] != sym:
            raise RouteStalledError(node, dest)
        return perm_rank(swap_j(cur_p, pos))

    # ---- batched canonical paths (compiled fast path) -------------------
    def _symbol_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(perm, pos)`` lookup tables over all N = n! nodes.

        ``perm[v, i]`` is the symbol at position i of node v's label and
        ``pos[v, s]`` the position of symbol s (the inverse row).  Both
        are closed-form — ``perm`` is
        :func:`~repro.topology.star.lexicographic_perms` (the Lehmer rank
        is the lexicographic rank), ``pos`` one scatter of it — and
        replace the per-pair unrank/rank arithmetic of the scalar
        :meth:`unique_next`.
        """
        if self._perm_table is None:
            perm = lexicographic_perms(self.n)
            pos = np.empty_like(perm)
            np.put_along_axis(
                pos, perm, np.arange(self.n, dtype=np.int64)[None, :], axis=1
            )
            self._perm_table = perm
            self._pos_table = pos
        return self._perm_table, self._pos_table

    def unique_next_batch(
        self, level: int, rows: np.ndarray, dests: np.ndarray
    ) -> np.ndarray:
        """Table-based batch form of :meth:`unique_next`.

        Every SWAP_j image is already tabulated in the neighbor table
        (column j is SWAP_j, column 0 the self link), so one stage of
        the canonical path is three gathers: the needed symbol, its
        position in each current label, and the corresponding swap —
        no Lehmer ranking per (row, dest) pair.
        """
        self.validate_level(level)
        stage, substep = divmod(level, 2)
        pos = self.n - 1 - stage  # the position this stage pins down
        rows = np.asarray(rows, dtype=np.int64)
        dests = np.asarray(dests, dtype=np.int64)
        perm, pos_of = self._symbol_tables()
        nbr = self.out_neighbor_table(level)  # column j = SWAP_j image
        sym = perm[dests, pos]
        settled = perm[rows, pos] == sym  # right subgraph: forward as switch
        if substep == 0:
            # Bring sym to the front: swap with its position (a no-op
            # self link when it is already staged there, loc == 0).
            loc = pos_of[rows, sym]
            out = nbr[rows, loc]
        else:
            # Place the staged front symbol (substep 0 guarantees it).
            unstaged = ~(settled | (perm[rows, 0] == sym))
            if unstaged.any():
                bad = int(np.argmax(unstaged))
                raise RouteStalledError(int(rows[bad]), int(dests[bad]), packet=bad)
            out = nbr[rows, pos]
        return np.where(settled, rows, out)
