"""Algorithm 2.2 — randomized permutation routing on the n-star (§2.3.3-2.3.4).

Phase 1 sends each packet along a greedy minimal path to a uniformly
random intermediate node; phase 2 continues greedily to the true
destination.  Queues are FIFO per directed physical link, and — unlike the
logical leveled view — both phases contend for the same physical links,
which is the honest physical-machine simulation of Theorem 2.2.

A deterministic greedy (single-phase) router is included as the ablation
baseline: oblivious greedy routing without Valiant randomization suffers
on structured permutations, which is *why* phase 1 exists.
"""

from __future__ import annotations

import numpy as np

from repro.routing.greedy import GreedyRouter
from repro.routing.router import Router
from repro.topology.star import (
    StarGraph,
    lexicographic_perms,
    perm_keys,
    perm_rank_batch,
)


class StarRouter(GreedyRouter):
    """Two-phase randomized router on the physical n-star graph:
    :class:`~repro.routing.greedy.GreedyRouter` over the greedy cycle
    algorithm, via a pre-drawn random intermediate unless
    ``randomized=False``.

    Intermediates are pre-drawn and the greedy cycle algorithm is
    deterministic, so each packet's itinerary is known before routing
    and both engines replay it exactly.
    """

    def __init__(
        self,
        star: StarGraph,
        *,
        seed=None,
        randomized: bool = True,
        engine: str = "auto",
    ) -> None:
        Router.__init__(
            self,
            star,
            default_max_steps=60 * star.diameter + 200,
            seed=seed,
            engine=engine,
        )
        self.star = star
        self.randomized = randomized


def adversarial_star_permutation(star: StarGraph) -> np.ndarray:
    """A structured permutation that punishes non-randomized greedy routing.

    Every node routes to its "reversal-rotation" image: the permutation
    label reversed.  Reversal concentrates traffic through the identity
    region of the graph under the greedy cycle algorithm, creating hot
    links — the classical motivation for Valiant's random phase.  Built
    as one batch rank of the reversed label table.
    """
    labels = lexicographic_perms(star.n)
    return perm_rank_batch(labels[:, ::-1], perm_keys(labels))
