"""Greedy (oblivious) routing on any Topology, optionally via a random intermediate.

The simplest baseline: every packet follows ``topology.route_next`` with
FIFO link queues.  Oblivious and deterministic — exactly the class of
algorithms whose worst case motivates Valiant randomization (§2.2.1).
The randomized form sends each packet greedily to a pre-drawn random
intermediate first; it is the same walk with one more target, and the
named two-phase routers (:class:`~repro.routing.star_router.StarRouter`,
:class:`~repro.routing.valiant.ValiantHypercubeRouter`) are this class
with randomization on by default.

Because the itinerary is a pure function of (source, intermediate,
dest), the whole population's paths are precompiled for the fast engine:
meshes, linear arrays, and hypercubes get fully vectorized builders, any
other topology walks ``route_next`` once per packet up front.
"""

from __future__ import annotations

from repro.routing.packet import Packet
from repro.routing.router import CompiledRun, Router
from repro.topology.base import RouteStalledError, Topology
from repro.topology.compiled import compile_mesh, hypercube_paths, linear_paths
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import LinearArray, Mesh2D


def compile_mesh_run(
    mesh: Mesh2D, sources, dests, inter_rows=None, *, with_priorities: bool = False
) -> CompiledRun:
    """Mesh trajectories for the fast engine: the §3.4 3-stage plan, or
    greedy dimension order — the same plan with an empty random stage —
    when *inter_rows* is omitted."""
    compiled = compile_mesh(mesh)
    paths, link_ids, priorities = compiled.itineraries(
        sources, dests, inter_rows, with_priorities=with_priorities
    )
    # Arithmetic link ids skip the engine's np.unique interning pass in
    # both vectorized modes (capacity runs also need link_dst for the
    # credit/exemption accounting).
    links = (link_ids, *compiled.link_arrays())
    return CompiledRun(paths, mesh.num_nodes, priorities, links)


class GreedyRouter(Router):
    """Deterministic greedy router over an arbitrary topology.

    ``node_capacity`` / ``flow_control`` / ``engine`` are
    :class:`~repro.routing.router.Router`'s.  ``flow_control="credit"``
    is sound on rank-monotone routes (mesh, linear array, hypercube:
    :mod:`repro.routing.flow_control` invariant I3); a topology with
    cyclic greedy paths may instead surface a
    :class:`~repro.routing.flow_control.DeadlockError` diagnostic.
    """

    #: route via a pre-drawn random intermediate first (Valiant's phase
    #: 1); the two-phase subclasses turn it on
    randomized = False

    def __init__(
        self,
        topology: Topology,
        *,
        node_capacity: int | None = None,
        flow_control: str = "none",
        engine: str = "auto",
    ) -> None:
        super().__init__(
            topology,
            default_max_steps=100 * max(1, topology.diameter) + 200,
            node_capacity=node_capacity,
            flow_control=flow_control,
            engine=engine,
        )

    def _draw(self, sources, dests):
        if not self.randomized:
            return None
        return self.rng.integers(self.topology.num_nodes, size=len(sources))

    def _next_hop(self, p: Packet):
        # state = intermediate node id, or None once phase 2 has begun
        # (deterministic runs begin there)
        target = p.dest
        if p.state is not None:
            if p.node == p.state:
                p.state = None  # reached the intermediate: start phase 2
            else:
                target = p.state
        if p.node == target:
            return None
        nxt = self.topology.route_next(p.node, target)
        if nxt == p.node:
            raise RouteStalledError(p.node, target, packet=p.pid)
        return nxt

    def _compile(self, sources, dests, inters) -> CompiledRun:
        """Mesh / linear-array / hypercube paths come out of the
        vectorized builders in :mod:`repro.topology.compiled`; any other
        topology walks ``route_next`` per packet (one guarded walk up
        front instead of one call per packet per step) and hands the
        engine the ragged list."""
        topo = self.topology
        if isinstance(topo, Hypercube):
            paths = hypercube_paths(topo.n, sources, dests, inters=inters)
            return CompiledRun(paths, topo.num_nodes)
        if inters is None and isinstance(topo, Mesh2D):
            return compile_mesh_run(topo, sources, dests)
        if inters is None and isinstance(topo, LinearArray):
            return CompiledRun(linear_paths(sources, dests), topo.num_nodes)
        paths = []
        vias = dests if inters is None else inters
        for row, (s, via, d) in enumerate(
            zip(sources.tolist(), vias.tolist(), dests.tolist())
        ):
            try:
                path = topo.greedy_path(s, via)
                if via != d:
                    path += topo.greedy_path(via, d)[1:]
            except RouteStalledError as stall:
                raise RouteStalledError(stall.node, stall.dest, packet=row) from None
            paths.append(path)
        return CompiledRun(paths, topo.num_nodes)
