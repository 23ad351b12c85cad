"""E1/E4 — Theorems 2.1 & 2.4 on generic leveled networks.

E1: permutation routing time on degree-d, L-level butterfly-style leveled
networks with L = Θ(d); the claim is Õ(ℓ): normalized time (steps / 2L)
stays flat as the network grows, queues O(ℓ).

E4: partial cℓ-relation routing under the same normalization.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import require_completed, rows_to_table, run_sweep
from repro.routing.leveled_router import LeveledRouter
from repro.topology.leveled import DAryButterflyLeveled
from repro.util.tables import Table


def _permutation_trial(rng, *, d: int, levels: int, mode: str) -> dict:
    net = DAryButterflyLeveled(d, levels)
    router = LeveledRouter(net, intermediate=mode, seed=rng)
    stats = router.route_permutation(rng.permutation(net.column_size))
    require_completed(stats)
    return {
        "time": stats.steps,
        "time/2L": stats.steps / (2 * levels),
        "max_queue": stats.max_queue,
        "queue/L": stats.max_queue / levels,
        "max_delay": stats.max_delay,
    }


def run_e1(
    settings=((2, 4), (2, 6), (2, 8), (3, 4), (3, 5), (4, 4)),
    *,
    trials: int = 3,
    seed=11,
    mode: str = "coin",
) -> Table:
    grid = [{"d": d, "levels": L, "mode": mode} for d, L in settings]
    rows = run_sweep(_permutation_trial, grid, trials=trials, seed=seed)
    table = rows_to_table(
        rows,
        ["d", "levels"],
        [("time", "mean"), ("time/2L", "mean"), ("max_queue", "max"), ("queue/L", "max"),
         ("time", "max")],
        title="E1  Theorem 2.1: permutation routing on leveled networks (Algorithm 2.1)",
        caption=(
            "Claim: Õ(ℓ) time with FIFO queues of size O(ℓ).  Check: "
            "time/2L flat in network size; queue/L bounded."
        ),
    )
    return table


def _relation_trial(rng, *, d: int, levels: int, h: int) -> dict:
    net = DAryButterflyLeveled(d, levels)
    router = LeveledRouter(net, seed=rng)
    n = net.column_size
    sources = np.repeat(np.arange(n), h)
    dests = np.concatenate([rng.permutation(n) for _ in range(h)])
    stats = router.route_h_relation(sources, dests)
    require_completed(stats)
    return {
        "time": stats.steps,
        "time/2L": stats.steps / (2 * levels),
        "time/(h*2L)": stats.steps / (h * 2 * levels),
        "max_queue": stats.max_queue,
    }


def run_e4(
    settings=((2, 5, 5), (2, 6, 6), (3, 4, 4), (2, 6, 12)),
    *,
    trials: int = 3,
    seed=13,
) -> Table:
    grid = [{"d": d, "levels": L, "h": h} for d, L, h in settings]
    rows = run_sweep(_relation_trial, grid, trials=trials, seed=seed)
    return rows_to_table(
        rows,
        ["d", "levels", "h"],
        [("time", "mean"), ("time/(h*2L)", "mean"), ("max_queue", "max"), ("time", "max")],
        title="E4  Theorem 2.4: partial ℓ-relation routing (h = cℓ packets per node)",
        caption=(
            "Claim: any partial ℓ-relation finishes in Õ(ℓ).  Check: time "
            "scales with h·ℓ, normalized time/(h·2L) roughly constant."
        ),
    )
