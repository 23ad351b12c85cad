"""Packet routing: the synchronous engine plus the paper's algorithms.

* Algorithm 2.1 — :class:`LeveledRouter` (universal, on leveled networks)
* Algorithm 2.2 — :class:`StarRouter` (n-star graph)
* Algorithm 2.3 — :class:`ShuffleRouter` (d-way shuffle)
* §3.4 — :class:`MeshRouter` (3-stage, furthest-destination-first)
* baselines — :class:`GreedyRouter`, :class:`GreedyMeshRouter`,
  :class:`ValiantHypercubeRouter`, :func:`valiant_shuffle_route`

All of them share one skeleton, :class:`repro.routing.router.Router`.
"""

from repro.routing.batcher import bitonic_route, bitonic_stage_count
from repro.routing.engine import (
    NetworkDrainedError,
    RoutingTimeout,
    SynchronousEngine,
)
from repro.routing.fast_engine import FastPathEngine, resolve_engine_mode
from repro.routing.flow_control import (
    FLOW_CONTROL_MODES,
    CreditState,
    DeadlockError,
    resolve_flow_control,
)
from repro.routing.greedy import GreedyRouter
from repro.routing.leveled_router import LeveledRouter
from repro.routing.linear import random_linear_instance, route_linear
from repro.routing.mesh_router import GreedyMeshRouter, MeshRouter, default_slice_rows
from repro.routing.metrics import RoutingStats
from repro.routing.packet import Packet, make_packets
from repro.routing.queues import (
    FIFOQueue,
    FurthestFirstQueue,
    fifo_factory,
    furthest_first_factory,
)
from repro.routing.shuffle_router import ShuffleRouter
from repro.routing.star_router import StarRouter, adversarial_star_permutation
from repro.routing.valiant import (
    ValiantHypercubeRouter,
    transpose_permutation,
    valiant_shuffle_route,
)

__all__ = [
    "FIFOQueue",
    "FLOW_CONTROL_MODES",
    "CreditState",
    "DeadlockError",
    "FastPathEngine",
    "FurthestFirstQueue",
    "GreedyMeshRouter",
    "GreedyRouter",
    "LeveledRouter",
    "MeshRouter",
    "NetworkDrainedError",
    "Packet",
    "RoutingStats",
    "RoutingTimeout",
    "ShuffleRouter",
    "StarRouter",
    "SynchronousEngine",
    "ValiantHypercubeRouter",
    "adversarial_star_permutation",
    "bitonic_route",
    "bitonic_stage_count",
    "default_slice_rows",
    "fifo_factory",
    "furthest_first_factory",
    "make_packets",
    "random_linear_instance",
    "resolve_engine_mode",
    "resolve_flow_control",
    "route_linear",
    "transpose_permutation",
    "valiant_shuffle_route",
]
