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

Both routers honour ``engine="auto" | "fast" | "reference"``: the stage-0
random rows are pre-drawn in one batched RNG call before an engine is
chosen, and the whole trajectory (plus its per-hop
furthest-destination-first priorities) is a closed-form function of
(source, i', dest), so the compiled fast path replays the reference
engine's queue dynamics bit for bit.  ``node_capacity`` runs take the
fast engine's vectorized constrained-batch mode (batch credit
accounting); with ``flow_control="credit"`` they realize Corollary
3.3's deadlock-free O(1)-queue discipline (see ``docs/flow_control.md``).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.routing.engine import SynchronousEngine
from repro.routing.fast_engine import FastPathEngine, RunArrays, resolve_engine_mode
from repro.routing.metrics import RoutingStats
from repro.routing.packet import Packet, make_packets
from repro.routing.queues import fifo_factory, furthest_first_factory
from repro.topology.compiled import compile_mesh
from repro.topology.mesh import Mesh2D
from repro.util.rng import as_generator


def default_slice_rows(n: int) -> int:
    """The paper's ε = 1/log n choice: slices of n/log₂(n) rows."""
    if n <= 2:
        return 1
    return max(1, round(n / math.log2(n)))


def _run_fast_mesh(
    mesh: Mesh2D,
    packets: list[Packet],
    *,
    max_steps: int,
    inter_rows=None,
    with_priorities: bool = False,
    combine: bool = False,
    track_paths: bool = False,
    node_capacity: int | None = None,
    flow_control: str = "none",
    link_faults=None,
    fault_base: int = 0,
    observer=None,
):
    """Compile mesh trajectories and replay them on the fast engine.

    Shared by the 3-stage and greedy routers (greedy is the 3-stage plan
    with an empty random stage).  Returns ``(run arrays, stats)``.
    """
    compiled = compile_mesh(mesh)
    plan = compiled.three_stage(
        [p.source for p in packets],
        [p.dest for p in packets],
        inter_rows,
        with_priorities=with_priorities,
    )
    fast = FastPathEngine(
        combine=combine,
        track_paths=track_paths,
        node_capacity=node_capacity,
        flow_control=flow_control,
        observer=observer,
    )
    # Arithmetic link ids skip the engine's np.unique interning pass in
    # both vectorized modes (unconstrained batch and the constrained
    # batch-credit mode take them; capacity runs also need link_dst for
    # the credit/exemption accounting).
    link_src, link_dst = compiled.link_arrays()
    links = (compiled.link_matrix(plan.ids), link_src, link_dst)
    stats = fast.run(
        packets,
        plan.ids,
        num_nodes=mesh.num_nodes,
        max_steps=max_steps,
        path_lengths=plan.lengths,
        priorities=plan.priorities,
        links=links,
        link_faults=link_faults,
        fault_base=fault_base,
    )
    return fast.last_arrays, stats


class MeshRouter:
    """3-stage randomized router with furthest-destination-first queues.

    Parameters
    ----------
    seed:
        RNG seed/generator for the stage-0 random rows (and permutation
        draws); a fixed seed gives bit-identical results on both engines.
    slice_rows:
        Height of the horizontal slices confining the stage-0 random
        row (default: the paper's n / log2(n)).
    discipline:
        Queue arbitration: ``"furthest_first"`` (§3.4's
        furthest-destination-first, the default) or ``"fifo"``.
    node_capacity:
        Bound on packets resident at one node; upstream links stall
        when a node is full (backpressure, §3.4 / Corollary 3.3).
        ``None`` (default) disables the capacity model.
    flow_control:
        ``"none"`` (default) is plain backpressure — tight capacities
        can wedge crossing flows, surfaced as
        :class:`~repro.routing.flow_control.DeadlockError`;
        ``"credit"`` (requires ``node_capacity``) adds the deadlock-free
        credit/escape protocol of :mod:`repro.routing.flow_control`.
    track_paths:
        Record visited nodes in ``packet.trace`` (reference engine; the
        fast path exposes compiled itineraries via ``last_fast_run``).
    combine:
        CRCW combining of same-(kind, address, dest) packets at enqueue.
    engine:
        ``"auto"`` (default; fast path, ``REPRO_ENGINE`` overridable),
        ``"fast"``, or ``"reference"`` — see ``docs/architecture.md``.
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
        track_paths: bool = False,
        combine: bool = False,
        engine: str = "auto",
        link_faults=None,
        fault_base: int = 0,
        observer=None,
    ) -> None:
        self.mesh = mesh
        self.rng = as_generator(seed)
        #: forwarded to whichever engine runs (profiling / flight data)
        self.observer = observer
        self.slice_rows = (
            default_slice_rows(mesh.rows) if slice_rows is None else slice_rows
        )
        if self.slice_rows < 1:
            raise ValueError("slice_rows must be >= 1")
        if discipline == "furthest_first":
            factory = furthest_first_factory(self._priority)
        elif discipline == "fifo":
            factory = fifo_factory
        else:
            raise ValueError(f"unknown discipline {discipline!r}")
        self.discipline = discipline
        self.node_capacity = node_capacity
        self.flow_control = flow_control
        self.combine = combine
        self.track_paths = track_paths
        self.engine_mode = engine
        resolve_engine_mode(engine)  # validate eagerly
        #: after a fast-path run: its per-packet arrays, aligned with
        #: the routed packet list — the compiled (padded) ``(n,
        #: maxlen+1)`` node-id itineraries, the hop each packet stopped
        #: at (row i is valid up to it), the absorptions (None after a
        #: reference run).  The emulation layer builds the reply phase
        #: from these without re-encoding traces.
        self.last_fast_run: RunArrays | None = None
        # Mesh link keys are (u, v) packed-node-id pairs in *both*
        # engines, so one identity-translated view serves each; the
        # emulator validates specs against the topology up front.
        self.fault_base = int(fault_base)
        self._fault_view = None
        if link_faults is not None:
            nn = mesh.num_nodes

            def translate(spec):
                u, w = spec
                if not (0 <= u < nn and 0 <= w < nn):
                    raise ValueError(f"link fault spec {spec!r} out of range")
                return ((int(u), int(w)),)

            self._fault_view = link_faults.view(translate)
        self.engine = SynchronousEngine(
            queue_factory=factory,
            node_capacity=node_capacity,
            flow_control=flow_control,
            track_paths=track_paths,
            combine=combine,
            observer=observer,
        )

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
    def _assign_random_rows(self, packets: list[Packet]) -> None:
        """Draw every packet's stage-0 random row in one batched RNG call.

        The batch happens *before* an engine is chosen, so both engines
        consume identical random bits (the differential-test contract).
        """
        if not packets:
            return
        src = np.fromiter(
            (p.source for p in packets), dtype=np.int64, count=len(packets)
        )
        rows = src // self.mesh.cols
        lo = (rows // self.slice_rows) * self.slice_rows
        hi = np.minimum(lo + self.slice_rows, self.mesh.rows)
        draws = self.rng.integers(lo, hi)
        for p, i_rand in zip(packets, draws.tolist()):
            p.state = (0, i_rand)

    def route(
        self,
        sources: Sequence[int],
        dests: Sequence[int],
        *,
        max_steps: int | None = None,
        packets: list[Packet] | None = None,
    ) -> RoutingStats:
        if max_steps is None:
            max_steps = 30 * (self.mesh.rows + self.mesh.cols) + 200
        if packets is None:
            packets = make_packets(list(map(int, sources)), list(map(int, dests)))
        self._assign_random_rows(packets)
        self.last_fast_run = None
        if resolve_engine_mode(self.engine_mode) == "fast":
            return self._run_fast(packets, max_steps)
        return self.engine.run(
            packets,
            self._next_hop,
            max_steps=max_steps,
            link_faults=self._fault_view,
            fault_base=self.fault_base,
        )

    def _run_fast(self, packets: list[Packet], max_steps: int) -> RoutingStats:
        """Compile 3-stage trajectories + priorities; replay them fast."""
        self.last_fast_run, stats = _run_fast_mesh(
            self.mesh,
            packets,
            max_steps=max_steps,
            inter_rows=[p.state[1] for p in packets],
            with_priorities=(self.discipline == "furthest_first"),
            combine=self.combine,
            track_paths=self.track_paths,
            node_capacity=self.node_capacity,
            flow_control=self.flow_control,
            link_faults=self._fault_view,
            fault_base=self.fault_base,
            observer=self.observer,
        )
        return stats

    def route_permutation(
        self, perm: Sequence[int] | np.ndarray, *, max_steps: int | None = None
    ) -> RoutingStats:
        perm = np.asarray(perm)
        n = self.mesh.num_nodes
        if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
            raise ValueError("perm must be a permutation of all mesh nodes")
        return self.route(np.arange(n), perm, max_steps=max_steps)

    def route_random_permutation(self, *, max_steps: int | None = None) -> RoutingStats:
        return self.route_permutation(
            self.rng.permutation(self.mesh.num_nodes), max_steps=max_steps
        )


class GreedyMeshRouter:
    """Deterministic dimension-order (column-then-row) FIFO baseline.

    ``node_capacity`` / ``flow_control`` / ``engine`` behave exactly as
    on :class:`MeshRouter` (dimension-order routes are rank-monotone,
    so ``flow_control="credit"`` is deadlock-free here too).
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
        self.mesh = mesh
        self.node_capacity = node_capacity
        self.flow_control = flow_control
        self.engine_mode = engine
        self.observer = observer
        resolve_engine_mode(engine)  # validate eagerly
        self.engine = SynchronousEngine(
            queue_factory=fifo_factory,
            node_capacity=node_capacity,
            flow_control=flow_control,
            observer=observer,
        )

    def _next_hop(self, p: Packet):
        if p.node == p.dest:
            return None
        return self.mesh.route_next(p.node, p.dest)

    def route(
        self,
        sources: Sequence[int],
        dests: Sequence[int],
        *,
        max_steps: int | None = None,
    ) -> RoutingStats:
        if max_steps is None:
            max_steps = 200 * (self.mesh.rows + self.mesh.cols) + 200
        packets = make_packets(list(map(int, sources)), list(map(int, dests)))
        if resolve_engine_mode(self.engine_mode) == "fast":
            _arrays, stats = _run_fast_mesh(
                self.mesh,
                packets,
                max_steps=max_steps,
                node_capacity=self.node_capacity,
                flow_control=self.flow_control,
                observer=self.observer,
            )
            return stats
        return self.engine.run(packets, self._next_hop, max_steps=max_steps)
