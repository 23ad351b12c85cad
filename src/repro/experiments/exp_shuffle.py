"""E3/E12 — Theorem 2.3 / Corollary 2.2 on the d-way shuffle, plus the
Valiant-model comparison the paper highlights in §2.3.4.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import require_completed, rows_to_table, run_sweep
from repro.routing.shuffle_router import ShuffleRouter
from repro.routing.valiant import valiant_shuffle_route
from repro.topology.shuffle import DWayShuffle
from repro.util.tables import Table


def run_e3(settings=((2, 4), (2, 6), (3, 3), (2, 8), (3, 4)), *, trials: int = 3, seed=23) -> Table:
    def trial(rng, *, d: int, n: int) -> dict:
        sh = DWayShuffle(d, n)
        router = ShuffleRouter(sh, seed=rng)
        stats = router.route_permutation(rng.permutation(sh.num_nodes))
        require_completed(stats)
        return {
            "N": sh.num_nodes,
            "time": stats.steps,
            "time/n": stats.steps / n,
            "max_queue": stats.max_queue,
        }

    grid = [{"d": d, "n": n} for d, n in settings]
    rows = run_sweep(trial, grid, trials=trials, seed=seed)
    return rows_to_table(
        rows,
        ["d", "n"],
        [("N", "max"), ("time", "mean"), ("time/n", "mean"), ("max_queue", "max"), ("time", "max")],
        title="E3  Theorem 2.3: permutation routing on the d-way shuffle (Algorithm 2.3)",
        caption="Claim: Õ(n) — time a constant multiple of the diameter n.",
    )


def run_e3_relation(settings=((2, 4), (3, 3)), *, trials: int = 3, seed=24) -> Table:
    def trial(rng, *, d: int, n: int) -> dict:
        sh = DWayShuffle(d, n)
        router = ShuffleRouter(sh, seed=rng)
        stats = router.route_n_relation(h=n)
        require_completed(stats)
        return {"time": stats.steps, "time/n": stats.steps / n, "max_queue": stats.max_queue}

    grid = [{"d": d, "n": n} for d, n in settings]
    rows = run_sweep(trial, grid, trials=trials, seed=seed)
    return rows_to_table(
        rows,
        ["d", "n"],
        [("time", "mean"), ("time/n", "mean"), ("max_queue", "max")],
        title="E3b  Corollary 2.2: partial n-relation routing on the d-way shuffle",
        caption="Claim: partial n-relations route in Õ(n).",
    )


def run_e12(ns=(2, 3, 4), *, trials: int = 3, seed=25) -> Table:
    """Algorithm 2.3 (parallel-link model) vs Valiant's scheme under the
    serialized node model, on the n-way shuffle.

    §2.3.4: "For the n-way shuffle graph, Valiant's algorithm runs in time
    Õ(n log n / log log n) and hence is not optimal."  The measured ratio
    serialized/parallel should grow with n.
    """

    def trial(rng, *, n: int) -> dict:
        sh = DWayShuffle.n_way(n)
        perm = rng.permutation(sh.num_nodes)
        ours = ShuffleRouter(sh, seed=rng).route_permutation(perm)
        ser = valiant_shuffle_route(
            sh, np.arange(sh.num_nodes), perm, seed=rng
        )
        require_completed(ours, ser)
        import math

        predicted = math.log(max(3, n)) / math.log(math.log(max(3, n)) + 1e-9) if n >= 3 else 1.0
        return {
            "N": sh.num_nodes,
            "ours": ours.steps,
            "valiant": ser.steps,
            "ratio": ser.steps / ours.steps,
        }

    rows = run_sweep(trial, [{"n": n} for n in ns], trials=trials, seed=seed)
    return rows_to_table(
        rows,
        ["n"],
        [("N", "max"), ("ours", "mean"), ("valiant", "mean"), ("ratio", "mean")],
        title="E12  §2.3.4: optimal Õ(n) routing vs Valiant's Õ(n log n / log log n)",
        caption=(
            "Serialized-node Valiant routing falls behind Algorithm 2.3 "
            "as n grows (ratio tracks log n / log log n)."
        ),
    )
