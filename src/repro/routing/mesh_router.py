"""The 3-stage randomized mesh routing algorithm of §3.4 (Theorem 3.1).

The n x n mesh is partitioned into horizontal slices of ``slice_rows``
rows (Figure 5; the paper picks εn rows with ε = 1/log n).  A packet from
(i, j) to (k, l):

1. moves along column j to a random row i' inside its origin's slice;
2. moves along row i' to column l;
3. moves along column l to row k.

Edge contention is resolved *furthest destination first* — the priority of
a packet is the distance left in its current stage.  Theorem 3.1: each
full run finishes in 2n + o(n) steps w.h.p. with queues O(log n); a
node-capacity variant (à la [6] / Corollary 3.3) brings queues to O(1).

The greedy dimension-order router (no stage 1 randomization) is the
classical baseline that suffers Θ(n²)-ish hot spots on adversarial
many-one patterns.

Both routers run on either engine: the stage-0 random rows are
pre-drawn in one batched RNG call before an engine is chosen, and the
whole trajectory (plus its per-hop furthest-destination-first
priorities) is a closed-form function of (source, i', dest), so the
compiled fast path replays the reference engine's queue dynamics bit
for bit.  With ``node_capacity`` and ``flow_control="credit"`` they
realize Corollary 3.3's deadlock-free O(1)-queue discipline (see
``docs/flow_control.md``).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.routing.greedy import GreedyRouter, compile_mesh_run
from repro.routing.metrics import RoutingStats
from repro.routing.packet import Packet
from repro.routing.queues import furthest_first_factory
from repro.routing.router import CompiledRun, Router
from repro.topology.mesh import Mesh2D


def default_slice_rows(n: int) -> int:
    """The paper's ε = 1/log n choice: slices of n/log₂(n) rows."""
    if n <= 2:
        return 1
    return max(1, round(n / math.log2(n)))


class MeshRouter(Router):
    """3-stage randomized router with furthest-destination-first queues.

    Parameters (the rest are :class:`~repro.routing.router.Router`'s)
    ----------
    seed:
        RNG seed/generator for the stage-0 random rows (and permutation
        draws).
    slice_rows:
        Height of the horizontal slices confining the stage-0 random
        row (default: the paper's n / log2(n)).
    discipline:
        Queue arbitration: ``"furthest_first"`` (§3.4's
        furthest-destination-first, the default) or ``"fifo"``.
    link_faults:
        ``(u, w)`` packed-node-id pairs — mesh link keys in *both*
        engines; the emulator validates specs against the topology.
    """

    def __init__(
        self,
        mesh: Mesh2D,
        *,
        seed=None,
        slice_rows: int | None = None,
        discipline: str = "furthest_first",
        node_capacity: int | None = None,
        flow_control: str = "none",
        engine: str = "auto",
        link_faults=None,
        fault_base: int = 0,
        observer=None,
    ) -> None:
        super().__init__(
            mesh,
            default_max_steps=30 * (mesh.rows + mesh.cols) + 200,
            seed=seed,
            node_capacity=node_capacity,
            flow_control=flow_control,
            engine=engine,
            link_faults=link_faults,
            fault_base=fault_base,
            observer=observer,
        )
        self.mesh = mesh
        self.slice_rows = (
            default_slice_rows(mesh.rows) if slice_rows is None else slice_rows
        )
        if self.slice_rows < 1:
            raise ValueError("slice_rows must be >= 1")
        if discipline not in ("furthest_first", "fifo"):
            raise ValueError(f"unknown discipline {discipline!r}")
        self.discipline = discipline

    # ------------------------------------------------------------------
    def _priority(self, p: Packet) -> float:
        """Distance remaining in the packet's current stage (§3.4:
        'furthest destination first')."""
        stage, i_rand = p.state
        r, c = self.mesh.unpack(p.node)
        dr, dc = self.mesh.unpack(p.dest)
        if stage == 0:
            return abs(i_rand - r)
        if stage == 1:
            return abs(dc - c)
        return abs(dr - r)

    def _next_hop(self, p: Packet):
        stage, i_rand = p.state
        r, c = self.mesh.unpack(p.node)
        dr, dc = self.mesh.unpack(p.dest)
        if stage == 0:
            if r != i_rand:
                return self.mesh.pack(r + (1 if i_rand > r else -1), c)
            stage = 1
            p.state = (1, i_rand)
        if stage == 1:
            if c != dc:
                return self.mesh.pack(r, c + (1 if dc > c else -1))
            stage = 2
            p.state = (2, i_rand)
        if r != dr:
            return self.mesh.pack(r + (1 if dr > r else -1), c)
        return None

    # ------------------------------------------------------------------
    def _draw(self, sources, dests) -> np.ndarray:
        """Every packet's stage-0 random row, in one batched RNG call."""
        rows = sources // self.mesh.cols
        lo = (rows // self.slice_rows) * self.slice_rows
        hi = np.minimum(lo + self.slice_rows, self.mesh.rows)
        return self.rng.integers(lo, hi)

    def _states(self, inter_rows):
        # (stage, stage-0 random row)
        return [(0, r) for r in inter_rows.tolist()]

    def _compile(self, sources, dests, inter_rows) -> CompiledRun:
        return compile_mesh_run(
            self.mesh,
            sources,
            dests,
            inter_rows,
            with_priorities=(self.discipline == "furthest_first"),
        )

    def _reference_options(self) -> dict:
        if self.discipline == "fifo":
            return {}
        return {"queue_factory": furthest_first_factory(self._priority)}

    def _fault_keys(self, spec):
        u, w = spec
        nn = self.mesh.num_nodes
        if not (0 <= u < nn and 0 <= w < nn):
            raise ValueError(f"link fault spec {spec!r} out of range")
        return ((int(u), int(w)),)

    def route(
        self,
        sources: Sequence[int],
        dests: Sequence[int],
        *,
        max_steps: int | None = None,
        combine_keys: Sequence[int] | None = None,
    ) -> RoutingStats:
        """Route *sources* → *dests* (packed node ids).  The emulation
        layer's entry, defined on this class because the end-to-end
        benchmark's tracer wraps it here by name."""
        return super().route(
            sources, dests, max_steps=max_steps, combine_keys=combine_keys
        )


class GreedyMeshRouter(GreedyRouter):
    """Deterministic dimension-order (column-then-row) FIFO baseline:
    :class:`~repro.routing.greedy.GreedyRouter` on a mesh, with the
    mesh's step budget and an ``observer``.

    Dimension-order routes are rank-monotone, so
    ``flow_control="credit"`` is deadlock-free here too.
    """

    def __init__(
        self,
        mesh: Mesh2D,
        *,
        node_capacity: int | None = None,
        flow_control: str = "none",
        engine: str = "auto",
        observer=None,
    ) -> None:
        Router.__init__(
            self,
            mesh,
            default_max_steps=200 * (mesh.rows + mesh.cols) + 200,
            node_capacity=node_capacity,
            flow_control=flow_control,
            engine=engine,
            observer=observer,
        )
        self.mesh = mesh
