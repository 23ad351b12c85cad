"""Paper-claims benchmark: the E1-E12 tables and the bounds they check -> BENCH_paper.json.

The paper proves bounds rather than reporting measurements, so the
reproduction's evidence is one table per claim (``repro.experiments``,
Theorems 2.1-2.6 and 3.1-3.3, Lemmas 2.1-2.2, Corollaries 3.1-3.3).
This script runs each registered experiment once, at laptop sizes,
plus the measurements no table makes (the Karlin-Upfal / ours ratio,
the Ranade buffer sweep, Lemma 2.1's restarts, the hash's description
bits and overflow draws, the rehash-factor ablation, bitonic vs
Valiant, the hypercube transpose, and the figures' invariants).

Every table becomes one row per (experiment, table row, column): its
``value`` is the rendered cell and its ``raw`` the cell to 9 significant
digits (a last-bit libm difference between hosts does not move it).
Cells are pure functions of the committed seeds, so the baseline gate
compares both forms of every cell exactly against the committed
``BENCH_paper.json``, and ``structural_gates`` checks the paper's bounds
on the ``raw`` cells, one ``check`` per claim.  A bound on one run reads
a ``(max)`` column: it holds for every trial of the table.

Not collected by pytest (file name is not ``test_*``); run directly:

    PYTHONPATH=src python benchmarks/bench_paper.py --out BENCH_paper.json
    PYTHONPATH=src python benchmarks/bench_paper.py \
        --check-baseline BENCH_paper.json
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

import gate
from repro.analysis import (
    MESH_EMULATION_CLAIM,
    MESH_LOCALITY_CLAIM,
    fitted_constant,
    flatness,
    star_diameter,
)
from repro.emulation import (
    KarlinUpfalMeshEmulator,
    LeveledEmulator,
    MeshEmulator,
    RanadeEmulator,
    locality_slice_rows,
)
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.exp_figures import (
    all_figures,
    figure1_leveled_template,
    figure2_star_graphs,
    figure3_star_logical,
)
from repro.hashing import HashFamily, empirical_overflow_rate, lemma22_bound, max_load
from repro.pram import (
    RequestColumns,
    local_step_for_mesh,
    permutation_step,
    random_trace,
)
from repro.routing import (
    GreedyRouter,
    LeveledRouter,
    ShuffleRouter,
    StarRouter,
    ValiantHypercubeRouter,
    bitonic_route,
    default_slice_rows,
    transpose_permutation,
)
from repro.routing.batcher import bitonic_vs_valiant_times
from repro.topology import (
    DAryButterflyLeveled,
    DWayShuffle,
    Hypercube,
    Mesh2D,
    StarGraph,
)
from repro.util.tables import Table


def _registered(name: str, **sizes):
    return partial(ALL_EXPERIMENTS[name], **sizes)


#: (label, table builder, key columns): each registered experiment at
#: its sizes and seeds; a table's first *key columns* name its rows
EXPERIMENTS = (
    ("E1", _registered("E1", settings=((2, 4), (2, 6), (2, 8), (3, 4)), trials=2, seed=11), 2),
    ("E1-node", _registered("E1", settings=((2, 6),), trials=2, seed=11, mode="node"), 2),
    ("E2", _registered("E2", ns=(4, 5, 6), trials=2, seed=17), 1),
    ("E2c", _registered("E2c", n=5, trials=2, seed=19), 2),
    ("E2d", _registered("E2d", ns=(4,), trials=2, seed=20), 1),
    ("E3", _registered("E3", settings=((2, 4), (2, 6), (3, 3), (3, 4), (4, 3)),
                       trials=2, seed=23), 2),
    ("E3b", _registered("E3b", settings=((2, 4), (3, 3)), trials=2, seed=24), 2),
    ("E4", _registered("E4", settings=((2, 5, 5), (2, 6, 6), (2, 4, 4), (2, 6, 12)),
                       trials=2, seed=13), 3),
    ("E5", _registered("E5", settings=((256, 16, 8), (1024, 64, 8)), trials=25, seed=31), 3),
    ("E5b", _registered("E5b", trials=20, seed=35), 1),
    ("E6", _registered("E6", settings=(("star", 4), ("shuffle", 3), ("butterfly", 6),
                                       ("star", 5)), trials=2, seed=51), 2),
    ("E6b", _registered("E6b", settings=(("butterfly", 5), ("star", 4), ("butterfly", 6)),
                        trials=2, seed=52), 2),
    ("E6c", _registered("E6c", size=5, trials=2, seed=53), 1),
    ("E7", _registered("E7", ns=(8, 16, 24), trials=2, seed=41), 1),
    ("E7b", _registered("E7b", n=16, trials=2, seed=44), 1),
    ("E7c", _registered("E7c", n=16, trials=2, seed=45), 1),
    ("E7d", _registered("E7d", n=16, trials=2, seed=46), 1),
    ("E7e", _registered("E7e", ns=(32, 64), trials=2, seed=47), 1),
    ("E8", _registered("E8", ns=(8, 16, 24), trials=2, seed=42), 1),
    ("E9", _registered("E9", deltas=(2, 4, 8), n=24, trials=2, seed=43), 1),
    ("E10", _registered("E10", n=12, trials=2, seed=54), 1),
    ("E11a", _registered("E11a", trials=3), 1),
    ("E11b", _registered("E11b", trials=3), 1),
    ("E11c", _registered("E11c", trials=3), 1),
    ("E12", _registered("E12", ns=(2, 3), trials=2, seed=25), 1),
)


def _table(title: str, columns: list[str], rows: list[list]) -> Table:
    table = Table(columns, title=title)
    for row in rows:
        table.add_row(row)
    return table


def ku_ratio() -> Table:
    n = 16
    m = 4 * n * n
    step = permutation_step(n * n, m, seed=24)
    ours = MeshEmulator(Mesh2D.square(n), m, seed=25).emulate_step(step)
    ku = KarlinUpfalMeshEmulator(Mesh2D.square(n), m, seed=25).emulate_step(step)
    return _table(
        "§3.3: ours (2 phases) vs Karlin-Upfal (4 phases) on one mesh step",
        ["n", "ours", "karlin-upfal"],
        [[n, ours.total_steps, ku.total_steps]],
    )


def ranade_buffers() -> Table:
    """Smaller merge buffers stall more: the mechanism behind Ranade's
    large constant."""
    k, h = 5, 4
    rows = 1 << k
    m = 16 * rows
    addrs = np.random.default_rng(28).choice(m, size=h * rows, replace=False)
    step = RequestColumns.of(reads=[(i % rows, a) for i, a in enumerate(addrs.tolist())])
    return _table(
        "Ablation: Ranade merge-buffer size (k=5, 4 reads per processor)",
        ["buffer", "time"],
        [
            [buf, RanadeEmulator(k, address_space=m, buffer_size=buf, seed=29)
             .emulate_step(step).total_steps]
            for buf in (1, 2, 8)
        ],
    )


def lemma21_restarts() -> Table:
    """Retrying the stragglers completes a permutation under an
    allotment too tight for one pass."""
    net = DAryButterflyLeveled(2, 6)
    perm = np.random.default_rng(14).permutation(net.column_size)
    allotment = 2 * net.num_levels + 1
    stats, rounds = LeveledRouter(net, seed=13).route_with_restarts(
        np.arange(net.column_size), perm, allotment=allotment
    )
    return _table(
        "Lemma 2.1: restarts on a butterfly (d=2, L=6)",
        ["levels", "allotment", "completed", "rounds", "time"],
        [[net.num_levels, allotment, stats.completed, rounds, stats.steps]],
    )


def many_one() -> Table:
    """Every packet to one destination: Õ(ℓ) only because combining
    collapses the flow (§2.2.1)."""
    net = DAryButterflyLeveled(2, 6)
    n = net.column_size
    # one address, one destination: every packet carries the same key
    stats = LeveledRouter(net, seed=9).route(
        np.arange(n), np.zeros(n, dtype=int), combine_keys=np.zeros(n, dtype=int)
    )
    return _table(
        "§2.2.1: many-one routing with combining (d=2, L=6)",
        ["levels", "completed", "combines", "time"],
        [[net.num_levels, stats.completed, stats.combines, stats.steps]],
    )


#: (d, n) of the shuffle hop-count run
SHUFFLE_HOPS = ((2, 6), (3, 3), (3, 4), (4, 3))


def shuffle_hops() -> Table:
    rows = []
    for d, n in SHUFFLE_HOPS:
        stats = ShuffleRouter(DWayShuffle(d, n), seed=4).route_random_permutation()
        rows.append([d, n, len(stats.hops), sum(h == 2 * n for h in stats.hops)])
    return _table(
        "Theorem 2.3: every packet takes its unique 2n-hop path",
        ["d", "n", "packets", "hops=2n"],
        rows,
    )


def star_relation() -> Table:
    star = StarGraph(5)
    stats = StarRouter(star, seed=3).route_n_relation()
    return _table(
        "Corollary 2.1: n-relation on the 5-star",
        ["n", "diam", "completed", "time"],
        [[5, star.diameter, stats.completed, stats.steps]],
    )


def star_diameters() -> Table:
    """§1's headline: the star's diameter is below log2 N, the reason
    Theorem 2.6 beats the O(log N) emulations."""
    return _table(
        "§1: star diameter vs log2(N), N = n!",
        ["n", "diam", "log2N"],
        [[n, star_diameter(n), math.log2(math.factorial(n))] for n in range(4, 10)],
    )


def hash_map() -> Table:
    """A full request wave (N addresses) hashed in one vectorized call."""
    family = HashFamily(2**20, 4096, degree_param=16)
    mapped = family.sample(seed=1).map(np.arange(4096))
    return _table(
        "§2.1: one hash call over a wave of N = 4096 addresses (M = 2^20, S = 16)",
        ["N", "mapped", "max_module"],
        [[4096, mapped.shape[0], int(mapped.max())]],
    )


#: (L, M) of the description-size run
HASH_BITS = ((6, 2**12), (9, 2**16), (12, 2**20))


def hash_bits() -> Table:
    return _table(
        "§2.1: each hash function needs O(L log M) bits",
        ["L", "M", "bits"],
        [[L, M, HashFamily(M, 1024, degree_param=L).sample(seed=0).description_bits()]
         for L, M in HASH_BITS],
    )


def lemma22() -> Table:
    """Measured overflow rate against the Lemma 2.2 counting bound: the
    γ = 2S row of E5, and a row where overflows occur."""
    family = HashFamily(1024, 64, degree_param=8)
    rows = []
    for live, gamma in ((64, 16), (256, 12)):
        measured = empirical_overflow_rate(family, s_size=live, gamma=gamma, trials=60, seed=5)
        bound = lemma22_bound(live, 64, delta=8, gamma=gamma, p=family.p)
        rows.append([live, gamma, 8, measured, bound])
    return _table(
        "Lemma 2.2: Pr(some module gets >= γ of |S| requests), M=1024, N=64, 60 draws",
        ["live", "gamma", "delta", "measured_Pr", "lemma22_bound"],
        rows,
    )


def rehash_rarity() -> Table:
    """§2.1: 'rehashings hardly happen' — with γ = 2S headroom no draw
    in a long sequence overflows."""
    family = HashFamily(4096, 256, degree_param=10)
    addrs = np.arange(256)
    overflows = sum(max_load(family.sample(seed=s), addrs) >= 20 for s in range(40))
    return _table(
        "§2.1: hash draws with a module load >= γ (M=4096, N=256, S=10)",
        ["draws", "gamma", "overflows"],
        [[40, 20, overflows]],
    )


def rehash_factor() -> Table:
    """§2.1's rehash-on-timeout loop: the request allotment is
    rehash_factor · 2L steps, and a missed one rehashes and retries."""
    net = DAryButterflyLeveled(2, 6)
    m = 16 * net.column_size
    rows = []
    for factor in (1.2, 1.5, 8.0):
        costs = [
            LeveledEmulator(net, address_space=m, rehash_factor=factor, seed=s)
            .emulate_step(permutation_step(net.column_size, m, seed=s))
            for s in range(5)
        ]
        rows.append([
            factor,
            sum(c.rehashes for c in costs),
            max(c.rehashes for c in costs),
            sum(c.stall_steps for c in costs),
            max(c.total_steps for c in costs),
        ])
    return _table(
        "§2.1: rehash_factor ablation, one EREW step on a butterfly (d=2, L=6), seeds 0-4",
        ["rehash_factor", "rehashes(total)", "rehashes(max)", "stall_steps(total)", "time(max)"],
        rows,
    )


def mesh_trace() -> Table:
    n = 12
    m = 4 * n * n
    report = MeshEmulator(Mesh2D.square(n), address_space=m, seed=17).emulate_trace(
        random_trace(n * n, m, 4, seed=16)
    )
    return _table(
        "Theorem 3.2: a 4-step EREW trace on the 12x12 mesh",
        ["n", "pram_steps", "mean_step_time", "rehashes"],
        [[n, report.pram_steps, report.mean_step_time, report.total_rehashes]],
    )


def mesh_writes() -> Table:
    """Writes need no reply phase: ≈ 2n + o(n), not 4n."""
    n = 12
    m = 4 * n * n
    cost = MeshEmulator(Mesh2D.square(n), address_space=m, seed=18).emulate_step(
        permutation_step(n * n, m, seed=19, kind="write")
    )
    return _table(
        "Theorem 3.2: a write-only step on the 12x12 mesh",
        ["n", "reply", "time"],
        [[n, cost.reply_steps, cost.total_steps]],
    )


def locality_vs_n() -> Table:
    """The same δ on two mesh sizes costs the same."""
    delta = 4
    rows = []
    for n in (16, 32):
        emu = MeshEmulator(
            Mesh2D.square(n),
            address_space=n * n,
            placement="direct",
            slice_rows=locality_slice_rows(delta),
            seed=22,
        )
        rows.append([n, emu.emulate_step(local_step_for_mesh(n, delta, seed=23)).total_steps])
    return _table("Theorem 3.3: δ = 4 on two mesh sizes", ["n", "time"], rows)


def bitonic_vs_valiant() -> Table:
    """§2.2.1: Batcher's routing is queue-free but Θ(log² N); Valiant's
    randomized routing stays Õ(log N)."""
    rows = []
    for k in (4, 6, 8, 10):
        cube = Hypercube(k)
        perm = np.random.default_rng(k).permutation(cube.num_nodes)
        bitonic = bitonic_route(cube, perm)
        val = ValiantHypercubeRouter(cube, seed=k).route(np.arange(cube.num_nodes), perm)
        times = bitonic_vs_valiant_times(k, val.steps)
        rows.append([k, bitonic.completed, bitonic.steps, times["batcher_steps"],
                     bitonic.max_queue, val.completed, val.steps, times["ratio"]])
    return _table(
        "§2.2.1: bitonic (Batcher) vs Valiant routing on the hypercube",
        ["log2N", "bitonic_completed", "bitonic", "stages k(k+1)/2", "bitonic_max_queue",
         "valiant_completed", "valiant", "ratio"],
        rows,
    )


def hypercube_transpose() -> Table:
    """Deterministic e-cube routing hits the transpose permutation's
    hot spots; Valiant's randomization stays near the diameter."""
    cube = Hypercube(12)
    perm = transpose_permutation(cube)
    sources = np.arange(cube.num_nodes)
    rows = []
    for name, router in (("greedy", GreedyRouter(cube)),
                         ("valiant", ValiantHypercubeRouter(cube, seed=36))):
        stats = router.route(sources, perm)
        rows.append([name, stats.completed, stats.steps, stats.max_queue])
    return _table(
        "§2.2.1: the transpose permutation on the 12-cube",
        ["router", "completed", "time", "max_queue"],
        rows,
    )


def _slices_cover_rows(n: int) -> bool:
    mesh = Mesh2D.square(n)
    sr = default_slice_rows(n)
    rows = []
    for s in range((n + sr - 1) // sr):
        rows.extend(mesh.slice_row_range(s, sr))
    return rows == list(range(n))


def figure_invariants() -> Table:
    """The figures are diagrams: each one's label, and the invariant it
    draws, as a cell."""
    butterfly = DAryButterflyLeveled(2, 3)
    shuffle = DWayShuffle.n_way(2)
    f1, f2, f3 = figure1_leveled_template(), figure2_star_graphs(), figure3_star_logical()
    return _table(
        "F1-F5: the figures' defining invariants",
        ["invariant", "value"],
        [
            ["F1 labels 'unique path'", "unique path" in f1],
            ["F1 unique paths ending at their destination", sum(
                butterfly.unique_path(s, d)[-1] == d
                for s in range(butterfly.column_size) for d in range(butterfly.column_size))],
            ["F2 labels '3-star' and '4-star'", "3-star" in f2 and "4-star" in f2],
            ["F2 3-star eccentricity", StarGraph(3).bfs_eccentricity(0)],
            ["F2 4-star eccentricity", StarGraph(4).bfs_eccentricity(0)],
            ["F3 labels 'logical leveled network'", "logical leveled network" in f3],
            ["F4 2-way shuffle unique paths ending at their destination", sum(
                shuffle.unique_path(u, v)[-1] == v for u in range(4) for v in range(4))],
            ["F5 slices of the 16x16 mesh cover its rows in order", _slices_cover_rows(16)],
            ["figures rendered", all_figures().count("Figure")],
        ],
    )


#: the measurements no registered experiment makes
MEASUREMENTS = (
    ("KU-ratio", ku_ratio, 1),
    ("ranade-buffers", ranade_buffers, 1),
    ("lemma21-restarts", lemma21_restarts, 1),
    ("many-one", many_one, 1),
    ("shuffle-hops", shuffle_hops, 2),
    ("star-relation", star_relation, 1),
    ("star-diameter", star_diameters, 1),
    ("hash-map", hash_map, 1),
    ("hash-bits", hash_bits, 2),
    ("lemma22", lemma22, 2),
    ("rehash-rarity", rehash_rarity, 2),
    ("rehash-factor", rehash_factor, 1),
    ("mesh-trace", mesh_trace, 1),
    ("mesh-writes", mesh_writes, 1),
    ("locality-vs-n", locality_vs_n, 1),
    ("bitonic-vs-valiant", bitonic_vs_valiant, 1),
    ("hypercube-transpose", hypercube_transpose, 1),
    ("figures", figure_invariants, 1),
)


def _raw(value) -> str:
    return f"{value:.9g}" if isinstance(value, float) else str(value)


def run_suite() -> list[dict]:
    rows: list[dict] = []
    for label, build, keys in EXPERIMENTS + MEASUREMENTS:
        table = build()
        print(f"[{label}] {table.render()}\n")
        for cells, values in zip(table.rows, table.values):
            row = " ".join(f"{c}={v}" for c, v in zip(table.columns[:keys], cells))
            rows.extend(
                {"experiment": label, "row": row, "column": column, "value": cell,
                 "raw": _raw(value)}
                for column, cell, value in zip(table.columns[keys:], cells[keys:], values[keys:])
            )
    return rows


def structural_gates(rows: list[dict], check) -> None:
    """The paper's bounds on the measured cells, one ``check`` per claim.

    A table row exists only for routes that completed: the experiments'
    trials raise ``RoutingTimeout`` otherwise, so "completed" is checked
    here only where a measurement records it as a cell.
    """
    cells = {(r["experiment"], r["row"], r["column"]): r["raw"] for r in rows}

    def num(label: str, row: str, column: str) -> float:
        return float(cells[label, row, column])

    def true(label: str, row: str, column: str) -> bool:
        return cells[label, row, column] == "True"

    # Theorem 2.1 / Lemma 2.1: leveled routing in Õ(ℓ), queues O(ℓ)
    for d, L in ((2, 4), (2, 6), (2, 8), (3, 4)):
        row = f"d={d} levels={L}"
        check(num("E1", row, "time(max)") <= 16 * L, f"E1 {row}: every trial's time <= 8·2L")
        check(num("E1", row, "max_queue(max)") <= 4 * L, f"E1 {row}: max queue <= 4L")
    check(num("E1-node", "d=2 levels=6", "time(max)") <= 96,
          "E1-node d=2 levels=6: every trial's random-node phase 1 time <= 8·2L")
    check(flatness([num("E1", f"d=2 levels={L}", "time/2L(mean)") for L in (4, 6, 8)],
                   tolerance=0.8), "E1 d=2: time/2L flat over L = 4, 6, 8")
    restarts = "levels=6"
    check(true("lemma21-restarts", restarts, "completed"), "lemma21-restarts: completed")
    check(num("lemma21-restarts", restarts, "rounds") >= 2,
          "lemma21-restarts: the tight allotment forces a restart")
    check(num("lemma21-restarts", restarts, "time") <= 10 * 2 * 6,
          "lemma21-restarts: time <= 10·2L overall")

    # Theorem 2.2 / Corollary 2.1: the n-star
    for n in (4, 5, 6):
        check(num("E2", f"n={n}", "time(max)") < 8 * num("E2", f"n={n}", "diam(max)"),
              f"E2 n={n}: every trial's time < 8·diam")
        check(num("E2", f"n={n}", "max_queue(max)") <= 6 * n, f"E2 n={n}: max queue <= 6n")
    diam = num("star-relation", "n=5", "diam")
    check(true("star-relation", "n=5", "completed"), "star-relation n=5: completed")
    check(num("star-relation", "n=5", "time") <= 12 * diam,
          "star-relation n=5: time <= 12·diam")
    for n in range(5, 10):
        check(num("star-diameter", f"n={n}", "diam") < num("star-diameter", f"n={n}", "log2N"),
              f"star-diameter n={n}: diameter < log2(n!)")

    # Theorem 2.3 / Corollary 2.2: the d-way shuffle
    for d, n in ((2, 4), (2, 6), (3, 3), (3, 4), (4, 3)):
        check(num("E3", f"d={d} n={n}", "time(max)") < 10 * n,
              f"E3 d={d} n={n}: every trial's time < 10n")
    for d, n in SHUFFLE_HOPS:
        row = f"d={d} n={n}"
        check(num("shuffle-hops", row, "hops=2n") == num("shuffle-hops", row, "packets"),
              f"shuffle-hops {row}: every packet takes exactly 2n hops")

    # Theorem 2.4: partial ℓ-relations
    for d, L, h in ((2, 5, 5), (2, 6, 6), (2, 4, 4), (2, 6, 12)):
        row = f"d={d} levels={L} h={h}"
        check(num("E4", row, "time/(h*2L)(mean)") < 4.0, f"E4 {row}: time/(h·2L) < 4")
        check(num("E4", row, "time(max)") <= 6 * h * L + 10 * L,
              f"E4 {row}: every trial's time <= 6hL + 10L")
    check(true("many-one", "levels=6", "completed"), "many-one: completed")
    check(num("many-one", "levels=6", "combines") > 0, "many-one: combining collapses the flow")
    check(num("many-one", "levels=6", "time") <= 8 * 2 * 6, "many-one: time <= 8·2L")

    # §2.1 + Lemma 2.2: the hash family
    check(num("hash-map", "N=4096", "mapped") == 4096, "hash-map: one module per address")
    check(num("hash-map", "N=4096", "max_module") < 4096, "hash-map: modules in range")
    for L, M in HASH_BITS:
        check(num("hash-bits", f"L={L} M={M}", "bits") <= 2 * L * math.log2(M) + L,
              f"hash-bits L={L} M={M}: bits <= 2L·log2(M) + L")
    for m, n_mod, s in ((256, 16, 8), (1024, 64, 8)):
        row = f"M={m} N={n_mod} S={s}"
        check(num("E5", row, "measured_Pr") <= num("E5", row, "lemma22_bound") + 0.05,
              f"E5 {row}: measured overflow rate <= Lemma 2.2 bound + 0.05")
    measured = num("lemma22", "live=64 gamma=16", "measured_Pr")
    bound = num("lemma22", "live=64 gamma=16", "lemma22_bound")
    check(measured <= bound + 0.05, "lemma22 |S|=64 γ=16: measured <= bound + 0.05")
    measured = num("lemma22", "live=256 gamma=12", "measured_Pr")
    bound = num("lemma22", "live=256 gamma=12", "lemma22_bound")
    check(0 < measured < bound < 1, "lemma22 |S|=256 γ=12: 0 < measured < bound < 1")
    check(num("E5b", "S=1", "worst_max_load") >= num("E5b", "S=16", "worst_max_load"),
          "E5b: the S=1 worst max load is no better than S=16's")
    check(num("rehash-rarity", "draws=40 gamma=20", "overflows") == 0,
          "rehash-rarity: no overflowing draw in 40")
    check(num("rehash-factor", "rehash_factor=8", "rehashes(total)") == 0,
          "rehash-factor 8.0 (default): no rehash in 5 seeds")
    check(num("rehash-factor", "rehash_factor=1.2", "rehashes(total)") > 0,
          "rehash-factor 1.2: a missed allotment rehashes and retries")

    # Theorems 2.5 / 2.6: leveled emulation in Õ(diameter)
    for kind, size in (("star", 4), ("shuffle", 3), ("butterfly", 6), ("star", 5)):
        row = f"kind={kind} size={size}"
        check(num("E6", row, "time(max)") < 10 * num("E6", row, "diam(2L)(max)"),
              f"E6 {row}: every trial's time < 10·diam")
        check(num("E6", row, "rehashes(max)") == 0, f"E6 {row}: no rehash")
    check(num("E6", "kind=star size=5", "time(mean)") > 0, "E6 star n=5: the step costs time")
    hot = "kind=butterfly size=6"
    check(num("E6b", hot, "combines(mean)") > 0, "E6b butterfly L=6: the hot spot combines")
    check(num("E6b", hot, "time/diam(max)") <= 12,
          "E6b butterfly L=6: every trial's time/diam <= 12")
    check(num("E6b", hot, "time(max)") < num("E6b", hot, "N(max)"),
          "E6b butterfly L=6: every trial's time < N, the no-combining Ω(N)")
    check(num("E6c", "combining=False", "time(mean)")
          > 2 * num("E6c", "combining=True", "time(mean)"),
          "E6c: without combining the hot spot costs > 2x")

    # Theorem 3.1: mesh routing in 2n + o(n), queues O(log n)
    for n in (8, 16, 24):
        check(num("E7", f"n={n}", "time(max)") <= num("E7", f"n={n}", "bound(2n+o)(mean)"),
              f"E7 n={n}: every trial's time <= 2n + o(n)")
        check(num("E7", f"n={n}", "max_queue(max)") <= 6 * math.log2(n),
              f"E7 n={n}: max queue <= 6·log2(n)")
        check(num("E7", f"n={n}", "time/n(mean)") < 2.5, f"E7 n={n}: time/n < 2.5")
    check(num("E7", "n=24", "time/n(mean)") < 2.2, "E7 n=24: time/n < 2.2")
    for n in (32, 64):
        check(num("E7e", f"n={n}", "time(max)") <= n + 6 * n**0.75,
              f"E7e n={n}: every trial's linear array time <= n + 6n^(3/4)")
    check(num("E7c", "slice_rows=16", "time(mean)") >= num("E7c", "slice_rows=4", "time(mean)") - 1,
          "E7c: ε = 1 pays at least the paper's ε = 1/log n")
    for cap in (8, 4):
        check(num("E7d", f"cap={cap}", "max_node_load(max)") <= cap + 1,
              f"E7d cap={cap}: node load <= cap + 1")

    # Theorem 3.2: mesh emulation in 4n + o(n)
    for n in (8, 16, 24):
        check(num("E8", f"n={n}", "time(max)") <= num("E8", f"n={n}", "bound(4n+o)(mean)"),
              f"E8 n={n}: every trial's time <= 4n + o(n)")
        check(num("E8", f"n={n}", "rehashes(max)") == 0, f"E8 n={n}: no rehash")
    slope = fitted_constant([8.0, 16.0, 24.0],
                            [num("E8", f"n={n}", "time(mean)") for n in (8, 16, 24)])
    check(2.0 <= slope <= 6.0, f"E8: fitted leading constant {slope:.2f} in [2, 6]")
    check(num("mesh-trace", "n=12", "pram_steps") == 4, "mesh-trace: 4 PRAM steps emulated")
    check(num("mesh-trace", "n=12", "mean_step_time") <= MESH_EMULATION_CLAIM.bound(12),
          "mesh-trace: mean step time <= 4n + o(n)")
    check(num("mesh-trace", "n=12", "rehashes") == 0, "mesh-trace: no rehash")
    check(num("mesh-writes", "n=12", "reply") == 0, "mesh-writes: no reply phase")
    check(num("mesh-writes", "n=12", "time") <= 0.75 * MESH_EMULATION_CLAIM.bound(12),
          "mesh-writes: time <= 0.75·(4n + o(n))")

    # Theorem 3.3: δ-local requests in 6δ + o(δ)
    for delta in (2, 4, 8):
        row = f"delta={delta}"
        check(num("E9", row, "time(max)") <= num("E9", row, "bound(6d+o)(mean)"),
              f"E9 {row}: every trial's time <= 6δ + o(δ)")
        check(num("E9", row, "time(max)") < num("E9", row, "global_4n(mean)"),
              f"E9 {row}: every trial's time < the global 4n")
    check(num("E9", "delta=2", "time(mean)") < num("E9", "delta=8", "time(mean)"),
          "E9: time grows with δ")
    check(abs(num("locality-vs-n", "n=32", "time") - num("locality-vs-n", "n=16", "time"))
          <= 0.5 * MESH_LOCALITY_CLAIM.bound(4),
          "locality-vs-n: δ = 4 costs the same on n = 16 and 32")

    # Corollaries 3.1-3.3: hashing loads
    for label in ("E11a", "E11b", "E11c"):
        check(len({r["row"] for r in rows if r["experiment"] == label}) >= 3,
              f"{label}: at least 3 sizes")
    check(num("E11a", "n=4096", "max_load(max)") <= 6 * num("E11a", "n=4096", "reference(mean)"),
          "E11a n=4096: max load <= 6·log N / log log N")
    check(num("E11b", "n=64", "max_load(max)") <= 1.5 * num("E11b", "n=64", "bound(mean)"),
          "E11b n=64: max load <= 1.5·(n/β + n^(3/4))")
    check(num("E11b", "n=64", "max_load(max)") >= num("E11b", "n=64", "n/beta(mean)"),
          "E11b n=64: max load >= the mean n/β")
    check(num("E11c", "n=4096", "collection_load(max)") <= 6 * math.log(4096),
          "E11c n=4096: a log N collection gets <= 6·ln N")

    # §1 / §3.3 / §2.3.4 / §2.2.1: the baselines
    ours, ku = num("KU-ratio", "n=16", "ours"), num("KU-ratio", "n=16", "karlin-upfal")
    check(1.4 <= ku / ours <= 3.0, f"KU-ratio n=16: karlin-upfal / ours = {ku / ours:.2f} ≈ 2")
    check(num("E10", "scheme=karlin-upfal", "time(mean)") > num("E10", "scheme=ours", "time(mean)"),
          "E10: karlin-upfal slower than ours")
    check(num("E10", "scheme=ranade-butterfly", "norm_const(mean)")
          > 1.3 * num("E10", "scheme=leveled-butterfly", "norm_const(mean)"),
          "E10: Ranade's time/diam > 1.3x the leveled emulator's")
    check(num("ranade-buffers", "buffer=1", "time") >= num("ranade-buffers", "buffer=8", "time"),
          "ranade-buffers: buffer 1 stalls at least as long as buffer 8")
    for n in (2, 3):
        check(num("E12", f"n={n}", "valiant(mean)") >= num("E12", f"n={n}", "ours(mean)"),
              f"E12 n={n}: serialized Valiant no faster than ours")
    check(num("E12", "n=3", "ratio(mean)") >= 0.9 * num("E12", "n=2", "ratio(mean)"),
          "E12: the gap does not shrink from n=2 to n=3")
    for k in (4, 6, 8, 10):
        row = f"log2N={k}"
        check(true("bitonic-vs-valiant", row, "bitonic_completed"),
              f"bitonic-vs-valiant {row}: bitonic completed")
        check(num("bitonic-vs-valiant", row, "bitonic")
              == num("bitonic-vs-valiant", row, "stages k(k+1)/2"),
              f"bitonic-vs-valiant {row}: bitonic takes k(k+1)/2 steps")
        check(num("bitonic-vs-valiant", row, "bitonic_max_queue") == 1,
              f"bitonic-vs-valiant {row}: bitonic is queue-free")
        check(true("bitonic-vs-valiant", row, "valiant_completed"),
              f"bitonic-vs-valiant {row}: valiant completed")
    gap = [num("bitonic-vs-valiant", f"log2N={k}", "stages k(k+1)/2")
           / num("bitonic-vs-valiant", f"log2N={k}", "valiant") for k in (4, 10)]
    check(gap[1] > gap[0], "bitonic-vs-valiant: the gap widens from k=4 to k=10")
    greedy, valiant = "router=greedy", "router=valiant"
    check(true("hypercube-transpose", greedy, "completed")
          and true("hypercube-transpose", valiant, "completed"),
          "hypercube-transpose: both routers completed")
    check(num("hypercube-transpose", greedy, "time")
          > 1.5 * num("hypercube-transpose", valiant, "time"),
          "hypercube-transpose: greedy time > 1.5x valiant's")
    check(num("hypercube-transpose", greedy, "max_queue")
          > 2 * num("hypercube-transpose", valiant, "max_queue"),
          "hypercube-transpose: greedy max queue > 2x valiant's")

    # F1-F5
    fig = "figures"
    check(true(fig, "invariant=F1 labels 'unique path'", "value"), "F1: labelled")
    check(num(fig, "invariant=F1 unique paths ending at their destination", "value") == 64,
          "F1: all 64 unique paths end at their destination")
    check(true(fig, "invariant=F2 labels '3-star' and '4-star'", "value"), "F2: labelled")
    check(num(fig, "invariant=F2 3-star eccentricity", "value") == 3, "F2: 3-star eccentricity 3")
    check(num(fig, "invariant=F2 4-star eccentricity", "value") == 4, "F2: 4-star eccentricity 4")
    check(true(fig, "invariant=F3 labels 'logical leveled network'", "value"), "F3: labelled")
    check(num(fig, "invariant=F4 2-way shuffle unique paths ending at their destination",
              "value") == 16, "F4: all 16 unique paths end at their destination")
    check(true(fig, "invariant=F5 slices of the 16x16 mesh cover its rows in order", "value"),
          "F5: the slices partition the rows")
    check(num(fig, "invariant=figures rendered", "value") >= 5, "F1-F5: every figure rendered")


def main(argv=None) -> int:
    return gate.main(
        argv,
        description=__doc__.splitlines()[0],
        out="BENCH_paper.json",
        run_suite=run_suite,
        structural_gates=structural_gates,
        baseline_gate=gate.BaselineGate(
            key=("experiment", "row", "column"),
            head=(("experiment", 19), ("row", 30), ("column", 20)),
            metrics=("value", "raw"),
            metric_width=5,
            value_format="12s",
            tolerance=None,
        ),
        benchmark="paper",
        note=(
            "the paper's claims as seeded tables (E1-E12 and the measurements "
            "no table makes), one row per cell: value as rendered, raw to 9 "
            "significant digits; every raw is exact under the committed seeds"
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
