"""Valiant-style baselines (§1, §2.3.4, [19]).

Two reference points from the paper's discussion:

* :class:`ValiantHypercubeRouter` — Valiant & Brebner's classic 2-phase
  bit-fixing algorithm on the n-cube, the O(log N) yardstick that Ranade's
  emulation builds on.
* :func:`valiant_shuffle_route` — Valiant's scheme evaluated on the d-way
  shuffle under the *serialized* node model (one packet forwarded per node
  per step).  The paper notes this runs in Õ(n log d / log log d) — the
  bottleneck is the balls-in-bins maximum node congestion — whereas
  Algorithm 2.3 under the parallel-link model achieves Õ(n).  Experiment
  E12 measures the growing gap.

Both baselines pre-draw their random intermediates.  The hypercube
router's itineraries are therefore known before routing and
``engine="auto" | "fast" | "reference"`` selects between the reference
engine and the compiled replay; the serialized (``node_service_rate=1``)
shuffle model is arbitrated by the reference engine only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.routing.engine import SynchronousEngine
from repro.routing.fast_engine import FastPathEngine, resolve_engine_mode
from repro.routing.metrics import RoutingStats
from repro.routing.packet import Packet, make_packets
from repro.routing.queues import fifo_factory
from repro.topology.compiled import hypercube_paths
from repro.topology.hypercube import Hypercube
from repro.topology.shuffle import DWayShuffle
from repro.util.rng import as_generator


class ValiantHypercubeRouter:
    """Valiant–Brebner 2-phase randomized bit-fixing on the n-cube."""

    def __init__(
        self,
        cube: Hypercube,
        *,
        seed=None,
        randomized: bool = True,
        engine: str = "auto",
    ) -> None:
        self.cube = cube
        self.randomized = randomized
        self.rng = as_generator(seed)
        self.engine_mode = engine
        resolve_engine_mode(engine)  # validate eagerly
        self.engine = SynchronousEngine(queue_factory=fifo_factory)

    def _next_hop(self, p: Packet):
        if p.state is not None:
            if p.node == p.state:
                p.state = None
            else:
                return self.cube.route_next(p.node, p.state)
        if p.node == p.dest:
            return None
        return self.cube.route_next(p.node, p.dest)

    def route(
        self,
        sources: Sequence[int],
        dests: Sequence[int],
        *,
        max_steps: int | None = None,
    ) -> RoutingStats:
        if max_steps is None:
            max_steps = 60 * self.cube.n + 200
        packets = make_packets(list(map(int, sources)), list(map(int, dests)))
        if self.randomized:
            inters = self.rng.integers(self.cube.num_nodes, size=len(packets))
            for p, r in zip(packets, inters):
                p.state = int(r)
        if resolve_engine_mode(self.engine_mode) == "fast":
            plan = hypercube_paths(
                self.cube.n,
                [p.source for p in packets],
                [p.dest for p in packets],
                inters=[p.state for p in packets] if self.randomized else None,
            )
            return FastPathEngine().run(
                packets,
                plan.ids,
                num_nodes=self.cube.num_nodes,
                max_steps=max_steps,
                path_lengths=plan.lengths,
            )
        return self.engine.run(packets, self._next_hop, max_steps=max_steps)

    def route_random_permutation(self, *, max_steps: int | None = None) -> RoutingStats:
        perm = self.rng.permutation(self.cube.num_nodes)
        return self.route(np.arange(self.cube.num_nodes), perm, max_steps=max_steps)


def transpose_permutation(cube: Hypercube) -> np.ndarray:
    """The bit-transpose permutation: the classic adversarial input showing
    why deterministic oblivious routing needs Valiant's random phase."""
    n = cube.n
    half = n // 2
    out = np.empty(cube.num_nodes, dtype=np.int64)
    low_mask = (1 << half) - 1
    for v in range(cube.num_nodes):
        low = v & low_mask
        high = v >> half
        out[v] = (low << (n - half)) | high
    return out


def valiant_shuffle_route(
    shuffle: DWayShuffle,
    sources: Sequence[int],
    dests: Sequence[int],
    *,
    seed=None,
    max_steps: int | None = None,
) -> RoutingStats:
    """Valiant's 2-phase scheme on the d-way shuffle, serialized node model.

    Each node forwards at most one packet per step (single out-port), the
    model in which Valiant's Õ(n log d / log log d) bound for the d-way
    shuffle is tight; compare against :class:`~repro.routing
    .shuffle_router.ShuffleRouter` under the parallel-link model.
    """
    rng = as_generator(seed)
    n = shuffle.n
    if max_steps is None:
        max_steps = 500 * n + 500

    def next_hop(p: Packet):
        phase, k, inter = p.state
        if phase == 0:
            if k == n:
                phase, k = 1, 0
                p.state = (1, 0, inter)
            else:
                p.state = (0, k + 1, inter)
                return shuffle.unique_path_next(p.node, inter, k)
        if k == n:
            return None
        p.state = (1, k + 1, inter)
        return shuffle.unique_path_next(p.node, p.dest, k)

    packets = make_packets(list(map(int, sources)), list(map(int, dests)))
    inters = rng.integers(shuffle.num_nodes, size=len(packets))
    for p, r in zip(packets, inters):
        p.state = (0, 0, int(r))
    ref = SynchronousEngine(queue_factory=fifo_factory, node_service_rate=1)
    return ref.run(packets, next_hop, max_steps=max_steps)
