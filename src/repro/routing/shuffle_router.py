"""Algorithm 2.3 — randomized routing on the d-way shuffle (§2.3.5).

Phase 1 sends each packet along the unique n-link path to a random
intermediate node; phase 2 follows the unique n-link path to the true
destination.  Every packet crosses exactly 2n (directed, physical) shuffle
links; both phases share those links, so contention is modeled physically.
"""

from __future__ import annotations

from itertools import repeat

from repro.routing.packet import Packet
from repro.routing.router import CompiledRun, Router
from repro.topology.compiled import shuffle_unique_paths
from repro.topology.shuffle import DWayShuffle


class ShuffleRouter(Router):
    """Two-phase unique-path router on the physical d-way shuffle.

    Intermediates are pre-drawn, so a packet's whole 2n-hop itinerary is
    known up front: the fast path compiles it by digit arithmetic (one
    vectorized pass per hop index), the reference engine walks the same
    digits hop by hop.  ``randomized=False`` is the ablation baseline:
    one deterministic unique-path pass straight to the destination (no
    Valiant phase 1).
    """

    def __init__(
        self,
        shuffle: DWayShuffle,
        *,
        seed=None,
        randomized: bool = True,
        engine: str = "auto",
    ) -> None:
        super().__init__(
            shuffle,
            default_max_steps=60 * shuffle.n + 200,
            seed=seed,
            engine=engine,
        )
        self.shuffle = shuffle
        self.randomized = randomized

    def _draw(self, sources, dests):
        if not self.randomized:
            return None
        return self.rng.integers(self.shuffle.num_nodes, size=len(sources))

    def _states(self, inters):
        # (phase, hops_in_phase, intermediate)
        if inters is None:
            return repeat((1, 0, None))
        return [(0, 0, r) for r in inters.tolist()]

    def _next_hop(self, p: Packet):
        # state = (phase, hops_in_phase, intermediate)
        phase, k, inter = p.state
        n = self.shuffle.n
        if phase == 0:
            if k == n:
                phase, k = 1, 0  # arrived at the intermediate; fall through
                p.state = (1, 0, inter)
            else:
                p.state = (0, k + 1, inter)
                return self.shuffle.unique_path_next(p.node, inter, k)
        if k == n:
            return None  # completed the second unique path: delivered
        p.state = (1, k + 1, inter)
        return self.shuffle.unique_path_next(p.node, p.dest, k)

    def _compile(self, sources, dests, inters) -> CompiledRun:
        """Hop k of a unique-path phase inserts the target's k-th least
        significant digit at the front, so the whole trajectory matrix
        falls out of n (or 2n) vectorized shift-and-insert operations
        (:func:`repro.topology.compiled.shuffle_unique_paths`)."""
        targets = ([inters] if inters is not None else []) + [dests]
        paths = shuffle_unique_paths(self.shuffle, sources, targets)
        return CompiledRun(paths, self.shuffle.num_nodes)
