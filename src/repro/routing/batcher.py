"""Batcher's sorting-based (non-oblivious) routing — the §2.2.1 contrast.

"Batcher's sorting algorithms are examples of non-oblivious routing
algorithms.  They require Θ(log² N) routing time for the cube class
networks or 7n routing time for the n x n mesh-connected arrays and hence
are not optimal and only work for permutation routing although they
possess the advantage that they need not have queues."

This module implements bitonic-sort permutation routing on the hypercube:
packets are sorted by destination with compare-exchange operations along
cube dimensions; each compare-exchange is one physical link traversal, so
routing time is exactly the network's stage count

    stages(k) = k (k + 1) / 2          (k = log2 N)

with queue size 1 (a node never holds more than one packet).  It realizes
every property the paper lists: non-oblivious, permutation-only,
queue-free, and Θ(log² N) — asymptotically worse than Valiant/Algorithm
2.1's Õ(log N), let alone the star/shuffle's sub-logarithmic Õ(diameter).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.routing.metrics import RoutingStats
from repro.topology.hypercube import Hypercube


class BitonicSortError(RuntimeError):
    """The compare-exchange network left the destinations unsorted:
    node *index* is the first whose key is not its own id, and *key* the
    destination it holds.  A correct bitonic network sorts every
    permutation, so this is a bug, terminal."""

    def __init__(self, index: int, key: int) -> None:
        super().__init__(
            f"bitonic network failed to sort the permutation: node {index} "
            f"holds destination {key}"
        )
        self.index = index
        self.key = key


def bitonic_stage_count(k: int) -> int:
    """Compare-exchange rounds of a bitonic sorter over 2**k keys."""
    return k * (k + 1) // 2


def bitonic_route(
    cube: Hypercube, perm: Sequence[int] | np.ndarray
) -> RoutingStats:
    """Route the permutation by bitonic-sorting packets by destination.

    Returns a :class:`RoutingStats` with ``steps`` equal to the number of
    compare-exchange rounds (each round moves packets across one cube
    dimension simultaneously) and ``max_queue`` = 1.
    """
    n = cube.num_nodes
    k = cube.n
    dest = np.asarray(perm, dtype=np.int64)
    if dest.shape != (n,) or sorted(dest.tolist()) != list(range(n)):
        raise ValueError("bitonic routing handles exactly one packet per node "
                         "with distinct destinations (permutation routing)")

    # keys[i] = destination of the packet currently at node i
    keys = dest.copy()
    stages = 0
    idx = np.arange(n)
    for phase in range(1, k + 1):
        for sub in range(phase - 1, -1, -1):
            stride = 1 << sub
            partner = idx ^ stride
            # ascending blocks of size 2**phase (standard bitonic network)
            ascending = (idx & (1 << phase)) == 0
            lower = (idx & stride) == 0
            with_partner = keys[partner]
            keep_min = lower == ascending
            new_keys = np.where(
                keep_min,
                np.minimum(keys, with_partner),
                np.maximum(keys, with_partner),
            )
            keys = new_keys
            stages += 1

    if not np.array_equal(keys, idx):  # pragma: no cover - the network sorts
        bad = int(np.argmax(keys != idx))
        raise BitonicSortError(bad, int(keys[bad]))

    hops = [stages] * n
    return RoutingStats(
        steps=stages,
        delivered=n,
        total_packets=n,
        max_queue=1,
        completed=True,
        delays=[0] * n,
        hops=hops,
    )


def bitonic_vs_valiant_times(k: int, valiant_steps: int) -> dict[str, float]:
    """Comparison record used by the bench: Θ(log² N) vs measured Õ(log N)."""
    return {
        "log2N": k,
        "batcher_steps": bitonic_stage_count(k),
        "valiant_steps": valiant_steps,
        "ratio": bitonic_stage_count(k) / max(1, valiant_steps),
    }
