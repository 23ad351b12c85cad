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
router's itineraries are therefore known before routing and run on
either engine; the serialized (``node_service_rate=1``) shuffle model is
arbitrated by the reference engine only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.routing.greedy import GreedyRouter
from repro.routing.metrics import RoutingStats
from repro.routing.router import Router
from repro.routing.shuffle_router import ShuffleRouter
from repro.topology.hypercube import Hypercube
from repro.topology.shuffle import DWayShuffle


class ValiantHypercubeRouter(GreedyRouter):
    """Valiant–Brebner 2-phase randomized bit-fixing on the n-cube:
    :class:`~repro.routing.greedy.GreedyRouter` over e-cube routing, via
    a pre-drawn random intermediate unless ``randomized=False``."""

    def __init__(
        self,
        cube: Hypercube,
        *,
        seed=None,
        randomized: bool = True,
        engine: str = "auto",
    ) -> None:
        Router.__init__(
            self,
            cube,
            default_max_steps=60 * cube.n + 200,
            seed=seed,
            engine=engine,
        )
        self.cube = cube
        self.randomized = randomized


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


class _SerializedShuffleRouter(ShuffleRouter):
    """Algorithm 2.3's itineraries under the serialized node model: each
    node forwards at most one packet per step (single out-port)."""

    def _reference_options(self) -> dict:
        return {"node_service_rate": 1}

    def _compile(self, sources, dests, inters) -> None:
        return None  # the service-rate model is a reference-engine semantic


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
    if max_steps is None:
        max_steps = 500 * shuffle.n + 500
    router = _SerializedShuffleRouter(shuffle, seed=seed)
    return router.route(sources, dests, max_steps=max_steps)
