"""E2 — Theorem 2.2: routing on the n-star graph.

Measured on the physical star graph (both phases share links) and on the
logical leveled network of Figure 3.  Includes the deterministic-greedy
ablation showing why the Valiant phase matters on structured inputs.
"""

from __future__ import annotations

from repro.experiments.harness import require_completed, rows_to_table, run_sweep
from repro.routing.leveled_router import LeveledRouter
from repro.routing.star_router import StarRouter, adversarial_star_permutation
from repro.topology.leveled import StarLogicalLeveled
from repro.topology.star import StarGraph
from repro.util.tables import Table


def _star_trial(rng, *, n: int, randomized: bool, workload: str) -> dict:
    star = StarGraph(n)
    router = StarRouter(star, seed=rng, randomized=randomized)
    if workload == "random":
        perm = rng.permutation(star.num_nodes)
    elif workload == "adversarial":
        perm = adversarial_star_permutation(star)
    else:
        raise ValueError(workload)
    stats = router.route_permutation(perm)
    require_completed(stats)
    diam = star.diameter
    return {
        "N": star.num_nodes,
        "diam": diam,
        "time": stats.steps,
        "time/diam": stats.steps / diam,
        "max_queue": stats.max_queue,
    }


def run_e2(
    ns=(4, 5, 6),
    *,
    trials: int = 3,
    seed=17,
) -> Table:
    grid = [{"n": n, "randomized": True, "workload": "random"} for n in ns]
    rows = run_sweep(_star_trial, grid, trials=trials, seed=seed)
    return rows_to_table(
        rows,
        ["n"],
        [("N", "max"), ("diam", "max"), ("time", "mean"), ("time/diam", "mean"),
         ("max_queue", "max"), ("time", "max")],
        title="E2  Theorem 2.2: randomized permutation routing on the n-star (Algorithm 2.2)",
        caption=(
            "Claim: Õ(n) — time within a constant factor of the diameter "
            "⌊3(n-1)/2⌋, FIFO queues O(n)."
        ),
    )


def run_e2_ablation(n: int = 5, *, trials: int = 3, seed=19) -> Table:
    grid = [
        {"n": n, "randomized": True, "workload": "random"},
        {"n": n, "randomized": False, "workload": "random"},
        {"n": n, "randomized": True, "workload": "adversarial"},
        {"n": n, "randomized": False, "workload": "adversarial"},
    ]
    rows = run_sweep(_star_trial, grid, trials=trials, seed=seed)
    return rows_to_table(
        rows,
        ["randomized", "workload"],
        [("time", "mean"), ("time/diam", "mean"), ("max_queue", "max")],
        title="E2c  Ablation: Valiant randomization vs deterministic greedy on the star",
        caption=(
            "At these sizes the star's greedy paths are short and "
            "low-contention, so randomization's ~2x path cost is visible "
            "while its worst-case insurance is not; the hypercube "
            "transpose row of benchmarks/bench_paper.py shows the "
            "failure mode randomization exists to prevent."
        ),
    )


def run_e2_logical(ns=(4, 5), *, trials: int = 3, seed=20) -> Table:
    def trial(rng, *, n: int) -> dict:
        net = StarLogicalLeveled(n)
        router = LeveledRouter(net, intermediate="node", seed=rng)
        stats = router.route_permutation(rng.permutation(net.column_size))
        require_completed(stats)
        return {
            "levels": net.num_levels,
            "time": stats.steps,
            "time/2L": stats.steps / (2 * net.num_levels),
            "max_queue": stats.max_queue,
        }

    rows = run_sweep(trial, [{"n": n} for n in ns], trials=trials, seed=seed)
    return rows_to_table(
        rows,
        ["n"],
        [("levels", "max"), ("time", "mean"), ("time/2L", "mean"), ("max_queue", "max")],
        title="E2d  Figure 3: routing on the star's logical leveled network",
        caption="The logical network realizes Theorem 2.1 with ℓ = 2(n-1), d = n.",
    )
