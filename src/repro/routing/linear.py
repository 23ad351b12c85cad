"""1-D routing on a linear array — the analysis primitive of §3.4.1.

The paper proves Theorem 3.1 by reducing each stage to this problem: node
i holds k_i packets (Σ k_i = n'), each packet picks a destination on the
line, and contention is resolved furthest-destination-first.  The claimed
bound is n' + o(n) steps w.h.p. for random destinations.

Like the routers, :func:`route_linear` runs on either engine: the
monotone walks compile to exact-length integer trajectories
(:func:`repro.topology.compiled.linear_paths`) and the push-time
furthest-destination-first priorities are a closed form of the walk —
``|dest - node|`` is the hops left, so the fast engine replays the
reference queue dynamics bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.routing.greedy import GreedyRouter
from repro.routing.metrics import RoutingStats
from repro.routing.packet import Packet
from repro.routing.queues import furthest_first_factory
from repro.routing.router import CompiledRun
from repro.topology.compiled import segment_index
from repro.topology.mesh import LinearArray
from repro.util.rng import as_generator


class _FurthestFirstLine(GreedyRouter):
    """Greedy walks on a line, queues ordered furthest destination first."""

    def _reference_options(self) -> dict:
        return {"queue_factory": furthest_first_factory(self._priority)}

    @staticmethod
    def _priority(p: Packet) -> float:
        return abs(p.dest - p.node)

    def _compile(self, sources, dests, inters) -> CompiledRun:
        run = super()._compile(sources, dests, inters)
        # Push-time priority of the k-th crossing: distance left from
        # the node the packet is pushed at, the walk's hops - k.
        hops = run.paths.hops
        return run._replace(
            priorities=np.repeat(hops, hops) - segment_index(hops)
        )


def route_linear(
    n: int,
    origins: Sequence[int],
    dests: Sequence[int],
    *,
    discipline: str = "furthest_first",
    max_steps: int | None = None,
    engine: str = "auto",
) -> RoutingStats:
    """Route packets on a linear array of *n* nodes.

    ``discipline`` is "furthest_first" (the paper's rule) or "fifo".
    """
    array = LinearArray(n)
    for x in list(origins) + list(dests):
        array.validate_node(int(x))
    if max_steps is None:
        max_steps = 50 * n + 200
    if discipline not in ("furthest_first", "fifo"):
        raise ValueError(f"unknown discipline {discipline!r}")
    router_class = GreedyRouter if discipline == "fifo" else _FurthestFirstLine
    return router_class(array, engine=engine).route(
        origins, dests, max_steps=max_steps
    )


def random_linear_instance(
    n: int, total_packets: int, seed=None
) -> tuple[list[int], list[int]]:
    """The §3.4.1 experiment: n' packets spread over the array, each with a
    uniformly random destination."""
    rng = as_generator(seed)
    origins = rng.integers(0, n, size=total_packets)
    dests = rng.integers(0, n, size=total_packets)
    return origins.tolist(), dests.tolist()
