"""Integer-compiled topologies: the data layer of the fast path.

The reference engine discovers each hop by calling ``next_hop`` /
``out_neighbors`` / ``unique_next`` per packet per step.  At interesting
scales that per-hop topology math (and, for leveled networks, tuple
hashing) dominates the run time.  This module precompiles whole packet
populations' trajectories with a handful of vectorized operations:

* :class:`CompiledLeveledTopology` — dense integer form of a
  :class:`LeveledNetwork` (both passes of Algorithm 2.1);
* :class:`CompiledMesh2D` — the 3-stage randomized mesh trajectories of
  §3.4 (and their furthest-destination-first priorities) plus greedy
  dimension-order paths, straight from their segments as exact-length
  :class:`FlatPaths`;
* :func:`linear_paths`, :func:`hypercube_paths`,
  :func:`shuffle_unique_paths` — the linear array, Valiant–Brebner
  bit-fixing, and d-way-shuffle digit-insertion itineraries.

Leveled compilation in detail:

* every engine position gets a flat **node id** — position k on a
  packet's 2L-hop journey lies in "unrolled column" k (the two passes of
  Algorithm 2.1 laid end to end, with the last column of pass 1
  identified with the first column of pass 2, exactly the paper's
  wrap-around), so ``id = k * N + row`` with k in [0, 2L].  This is the
  network's one id space: both engines, ``Packet.node`` / ``dest`` /
  ``trace`` and link-fault keys all use it;
* per-level **out-neighbor tables** (``(N, d)`` arrays) replace
  ``out_neighbors`` calls, so a pre-drawn coin becomes one array gather;
  every built-in family builds them in closed form (the star's from the
  permutation kernels of :mod:`repro.topology.star`), so compiling a
  network costs O(d) numpy calls, not N Python ones;
* :meth:`build_paths` rolls a whole packet population's trajectories
  forward level by level with ``unique_next_batch`` — the entire routing
  plan for N packets is produced by ~2L vectorized operations — or, on a
  network whose passes have a closed form
  (:meth:`~repro.topology.leveled.LeveledNetwork.pass_rows`: the d-ary
  butterfly, where pass l rewrites digit l), by one broadcast per pass.

The plan is then replayed by :class:`repro.routing.fast_engine.FastPathEngine`,
which never touches the topology again.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple, Sequence

import numpy as np

from repro.topology.base import RouteStalledError
from repro.topology.leveled import LeveledNetwork


class CompiledLeveledTopology:
    """Dense integer view of a :class:`LeveledNetwork` (both passes)."""

    def __init__(self, net: LeveledNetwork) -> None:
        # Note: nets with uniform_out_degree=False compile fine for
        # node-mode routing (unique-path arithmetic only); out_table —
        # needed by coin mode — is never read for them: their coins
        # cannot be pre-drawn, so the router runs the reference engine.
        # held weakly: the net caches this object on itself, and a strong
        # back-reference would make every finished topology (and these
        # tables) cyclic garbage that only a collector pass frees
        self._net = weakref.ref(net)
        self.L = net.num_levels
        self.N = net.column_size
        #: one unrolled column per path position 0..2L
        self.num_node_ids = (2 * self.L + 1) * self.N
        #: the id offset ``k * N`` of every path position k, a row
        #: :meth:`build_paths` adds to its row matrix
        self._column_ids = np.arange(2 * self.L + 1, dtype=np.int64) * self.N
        self._out_tables: dict[int, np.ndarray] = {}

    @property
    def net(self) -> LeveledNetwork:
        return self._net()

    def __getstate__(self) -> dict:
        # pickled inside its net's state: the strong reference resolves
        # to that same object through the pickle memo, not to a copy
        return {**self.__dict__, "_net": self._net()}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._net = weakref.ref(state["_net"])

    # ---- per-level tables ----------------------------------------------
    def out_table(self, level: int) -> np.ndarray:
        table = self._out_tables.get(level)
        if table is None:
            table = self._out_tables[level] = self.net.out_neighbor_table(level)
        return table

    # ---- trajectory compilation ----------------------------------------
    def build_paths(
        self,
        source_rows: Sequence[int],
        dests: Sequence[int],
        *,
        coins: np.ndarray | None = None,
        inters: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Compile every packet's full 2L-hop node-id trajectory.

        Phase 1 either follows pre-drawn *coins* (an ``(n, L)`` array of
        bridge choices, Algorithm 2.1) or the unique path to a chosen
        intermediate row per packet (*inters*, Algorithms 2.2/2.3);
        phase 2 always follows the unique path to ``dests``.  Returns an
        ``(n, 2L + 1)`` node-id matrix (row i is packet i's itinerary;
        every leveled trajectory has the same length, so there is no
        padding).
        """
        if (coins is None) == (inters is None):
            raise ValueError("need exactly one of coins= or inters=")
        last = self.L - 1
        rows = np.asarray(source_rows, dtype=np.int64)
        dests_arr = np.asarray(dests, dtype=np.int64)
        if coins is not None:
            first = self._pass(rows, coins=np.asarray(coins, dtype=np.int64))
        else:
            first = self._pass(rows, targets=np.asarray(inters, dtype=np.int64))
        second = self._pass(first[:, last], targets=dests_arr)
        stalled = (second[:, last] != dests_arr).nonzero()[0]
        if stalled.size:
            bad = int(stalled[0])
            raise RouteStalledError(
                int(second[bad, last]), int(dests_arr[bad]), packet=bad
            )
        ids = np.concatenate((rows[:, None], first, second), axis=1)
        ids += self._column_ids
        return ids

    def _pass(self, rows: np.ndarray, *, coins=None, targets=None) -> np.ndarray:
        """The ``(n, L)`` rows one pass from *rows* visits — column l the
        row after edge layer l — following *coins* or the unique path to
        *targets*: in closed form where the network has one
        (:meth:`LeveledNetwork.pass_rows`), else level by level."""
        closed = self.net.pass_rows(rows, coins=coins, targets=targets)
        if closed is not None:
            return closed
        out = np.empty((rows.size, self.L), dtype=np.int64)
        for level in range(self.L):
            if coins is not None:
                rows = self.out_table(level)[rows, coins[:, level]]
            else:
                rows = self.net.unique_next_batch(level, rows, targets)
            out[:, level] = rows
        return out


def compile_leveled(net: LeveledNetwork) -> CompiledLeveledTopology:
    """Compiled view of *net*, cached on the network instance."""
    compiled = getattr(net, "_compiled_topology", None)
    if compiled is None:
        compiled = CompiledLeveledTopology(net)
        net._compiled_topology = compiled
    return compiled


# ======================================================================
# Flat-topology trajectory builders (mesh, linear array, hypercube).
# These produce exact-length itineraries (FlatPaths): row i holds
# packet i's nodes and nothing past its destination, so every table the
# engine builds from them is sized by the hops the population makes,
# not by its longest route times its size.
# ======================================================================


class FlatPaths(NamedTuple):
    """A population's node-id itineraries, concatenated (CSR): row i,
    packet i's path from its start, is ``nodes[offsets[i]:offsets[i + 1]]``.

    A row of w nodes has w - 1 link positions, and a population's
    per-position tables (link ids, priorities) are laid out the same
    way: packet i's k-th link crossing is slot ``offsets[i] - i + k``.
    Equal-length rows are the special case ``offsets[i] = i * width`` —
    a raveled matrix (:meth:`from_matrix`), which is what every leveled
    run is.
    """

    nodes: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_matrix(cls, mat) -> "RowMatrix":
        """One row per packet, all of one width: the matrix raveled."""
        mat = np.asarray(mat, dtype=np.int64)
        n, width = mat.shape
        return RowMatrix(mat.reshape(-1), np.arange(n + 1, dtype=np.int64) * width)

    @classmethod
    def from_hops(cls, nodes: np.ndarray, hops: np.ndarray) -> "FlatPaths":
        """Rows of ``hops[i] + 1`` nodes each, laid end to end in *nodes*."""
        offsets = np.zeros(hops.size + 1, dtype=np.int64)
        (hops + 1).cumsum(out=offsets[1:])
        return cls(nodes, offsets)

    @property
    def hops(self) -> np.ndarray:
        """Link positions per row."""
        return self.offsets[1:] - self.offsets[:-1] - 1


class RowMatrix(FlatPaths):
    """Rows that all have one width, known from the shape they were
    built from (:meth:`FlatPaths.from_matrix`), so a reader need not
    test the offsets for it.  A plain :class:`FlatPaths` may have equal
    rows too; nothing relies on knowing that."""

    __slots__ = ()


def segment_index(lens: np.ndarray) -> np.ndarray:
    """Position within its segment of every entry of segments of
    *lens* entries laid end to end: ``[0..lens[0]), [0..lens[1]), ...``."""
    kk = np.arange(int(lens.sum()), dtype=np.int64)
    kk -= (lens.cumsum() - lens).repeat(lens)
    return kk


def _walk(starts: np.ndarray, strides: np.ndarray, lens: np.ndarray):
    """Straight segments laid end to end: segment j visits ``starts[j] +
    k * strides[j]`` for k in ``[0, lens[j])``.  Returns ``(nodes, k)``."""
    kk = segment_index(lens)
    # in place: at n = 256 every table here is ~90 MB
    nodes = strides.repeat(lens)
    nodes *= kk
    nodes += starts.repeat(lens)
    return nodes, kk


class CompiledMesh2D:
    """Vectorized trajectory compiler for a :class:`Mesh2D`.

    The 3-stage randomized route of §3.4 (Theorem 3.1) — column to a
    random row, row to the destination column, column to the destination
    row — is at most three straight segments, each a pure function of
    (source, random row, destination): a start node, a stride (±1 along
    a row, ±cols along a column), a direction and a length.  Every
    per-hop table falls out of one ``np.repeat`` of those and the index
    k within the segment: the node a hop leaves is ``start + k *
    stride``, its link ``4 * node + direction`` and its
    furthest-destination-first priority ``length - k``.  Greedy
    dimension-order (column-then-row) paths are the degenerate plan with
    an empty stage 0 (the random row equals the source row).
    """

    def __init__(self, mesh) -> None:
        # the two numbers the compiler needs, not the mesh: the mesh
        # caches this object on itself, and a back-reference would make
        # every finished mesh cyclic garbage
        self.cols = mesh.cols
        self.num_nodes = mesh.num_nodes

    def itineraries(
        self,
        sources: Sequence[int],
        dests: Sequence[int],
        inter_rows: Sequence[int] | None = None,
        *,
        with_priorities: bool = False,
    ) -> tuple[FlatPaths, np.ndarray, np.ndarray | None]:
        """Compile 3-stage (or, with ``inter_rows=None``, greedy XY)
        routes: ``(paths, link ids, priorities)``.

        ``inter_rows`` holds each packet's pre-drawn stage-0 random row
        i'; omitting it pins i' to the source row, which degenerates the
        plan to the deterministic dimension-order baseline.  Link ids
        are the arithmetic ids of :meth:`link_arrays`, one per hop,
        aligned with *paths*' link positions; so are the priorities (the
        distance left in the hop's stage — exactly the value the
        reference :class:`~repro.routing.mesh_router.MeshRouter` computes
        at push time), or ``None`` without ``with_priorities``.
        """
        cols = self.cols
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(dests, dtype=np.int64)
        r0, c0 = np.divmod(src, cols)
        dr, dc = np.divmod(dst, cols)
        ir = r0 if inter_rows is None else np.asarray(inter_rows, dtype=np.int64)
        # one row per packet, one column per stage: along the column, the
        # row, the column; a negative delta is a step north / west
        delta = np.stack([ir - r0, dc - c0, dr - ir], axis=1)
        starts = np.stack([src, ir * cols + c0, ir * cols + dc], axis=1).ravel()
        lens = np.abs(delta).ravel()
        strides = (np.sign(delta) * np.asarray([cols, 1, cols])).ravel()
        forward = np.asarray([self._DIR_SOUTH, self._DIR_EAST, self._DIR_SOUTH])
        direction = (forward + (delta < 0)).ravel()
        hop_nodes, kk = _walk(starts, strides, lens)
        priorities = None
        if with_priorities:
            priorities = lens.repeat(lens)
            priorities -= kk
        del kk  # one full-size temporary fewer at the peak below
        links = hop_nodes * 4
        links += direction.repeat(lens)
        # each row's hops, then its destination
        hops = lens.reshape(-1, 3).sum(axis=1)
        nodes = np.insert(hop_nodes, np.cumsum(hops), dst)
        return FlatPaths.from_hops(nodes, hops), links, priorities

    # ---- arithmetic link ids -----------------------------------------
    # A mesh node has at most 4 out-links, so directed link (u, v) gets
    # the dense id ``u * 4 + direction`` with no interning pass at all.
    # That pays on the mesh only: its 4N id space is smaller than the
    # links a served batch crosses, so the engine's per-link tables stay
    # batch-sized either way.  Leveled networks have no such encoding —
    # their ``2L * N * d`` link space dwarfs any batch, so the engine's
    # vector lane interns the links a leveled batch actually crosses (one
    # np.unique, :func:`repro.routing.fast_phases.link_tables`) and its
    # scalar lane keys a small batch's queues by ``(src, dst)`` code.
    _DIR_EAST, _DIR_WEST, _DIR_SOUTH, _DIR_NORTH = 0, 1, 2, 3

    def link_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (link_src, link_dst) tables for the 4N arithmetic ids.

        Boundary directions that have no physical link get ids too; they
        are never referenced by a real trajectory, so their dst entries
        are only placeholders.
        """
        cached = getattr(self, "_link_arrays", None)
        if cached is None:
            num = self.num_nodes
            src = np.repeat(np.arange(num, dtype=np.int64), 4)
            delta = np.tile(np.asarray([1, -1, self.cols, -self.cols]), num)
            dst = np.clip(src + delta, 0, num - 1)
            cached = self._link_arrays = (src, dst)
        return cached


def compile_mesh(mesh) -> CompiledMesh2D:
    """Compiled view of *mesh*, cached on the mesh instance."""
    compiled = getattr(mesh, "_compiled_topology", None)
    if compiled is None:
        compiled = CompiledMesh2D(mesh)
        mesh._compiled_topology = compiled
    return compiled


def linear_paths(sources: Sequence[int], dests: Sequence[int]) -> FlatPaths:
    """Monotone walks on a linear array: one segment per packet."""
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(dests, dtype=np.int64)
    hops = np.abs(dst - src)
    nodes, _ = _walk(src, np.sign(dst - src), hops + 1)
    return FlatPaths.from_hops(nodes, hops)


def compact_paths(arr: np.ndarray) -> FlatPaths:
    """Remove in-place repeats from each row of a trajectory matrix.

    Phase-structured builders (e.g. two-phase bit fixing) emit one column
    per potential hop, so packets that finish a phase early repeat their
    position mid-row; the engine would traverse those repeats as
    self-loop links.  This squeezes every row to its true itinerary.
    """
    if arr.shape[1] == 0:
        raise ValueError("trajectory matrix needs at least one column")
    keep = np.ones(arr.shape, dtype=bool)
    keep[:, 1:] = arr[:, 1:] != arr[:, :-1]
    # a row-major boolean gather keeps each row's survivors, rows in order
    return FlatPaths.from_hops(arr[keep], keep.sum(axis=1) - 1)


def hypercube_paths(
    n_dims: int,
    sources: Sequence[int],
    dests: Sequence[int],
    inters: Sequence[int] | None = None,
) -> FlatPaths:
    """Valiant–Brebner e-cube itineraries on the binary n-cube.

    Phase 1 (when ``inters`` is given) fixes differing bits
    lowest-dimension first toward the random intermediate, phase 2
    continues to the destination — the same order as
    :meth:`Hypercube.route_next`, vectorized one dimension at a time.
    """
    cur = np.asarray(sources, dtype=np.int64).copy()
    columns = [cur.copy()]
    targets = ([] if inters is None else [inters]) + [dests]
    for target in targets:
        target = np.asarray(target, dtype=np.int64)
        for _ in range(n_dims):
            diff = cur ^ target
            cur = cur ^ (diff & -diff)
            columns.append(cur.copy())
    return compact_paths(np.stack(columns, axis=1))


def shuffle_unique_paths(
    shuffle, sources: Sequence[int], targets: "list[Sequence[int]]"
) -> np.ndarray:
    """Digit-insertion itineraries on the d-way shuffle, one per packet.

    Hop k of a unique-path phase inserts the target's k-th least
    significant digit at the front (§2.3.5), so each phase is n
    vectorized shift-and-insert operations; consecutive equal nodes are
    *real* self-loop hops in this model (the reference engine routes
    through them), so the matrix is exact — no compaction, no padding.
    """
    d, msb = shuffle.d, shuffle.num_nodes // shuffle.d
    cur = np.asarray(sources, dtype=np.int64)
    columns = [cur]
    for target in targets:
        target = np.asarray(target, dtype=np.int64)
        for k in range(shuffle.n):
            cur = cur // d + ((target // d**k) % d) * msb
            columns.append(cur)
    return np.stack(columns, axis=1)
