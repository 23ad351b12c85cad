"""Tests for the paper's routing algorithms (Algorithms 2.1-2.3, §3.4)."""

import dataclasses
import zlib

import numpy as np
import pytest
from conftest import deadline, forced_run_lane

from repro.routing import (
    GreedyMeshRouter,
    GreedyRouter,
    LeveledRouter,
    MeshRouter,
    ShuffleRouter,
    StarRouter,
    ValiantHypercubeRouter,
    adversarial_star_permutation,
    default_slice_rows,
    random_linear_instance,
    route_linear,
    transpose_permutation,
    valiant_shuffle_route,
)
from repro.topology import (
    DAryButterflyLeveled,
    DWayShuffle,
    Hypercube,
    LinearArray,
    Mesh2D,
    RouteStalledError,
    ShuffleLeveled,
    StarGraph,
    StarLogicalLeveled,
)


class TestLeveledRouter:
    @pytest.mark.parametrize("mode", ["coin", "node"])
    def test_permutation_routing_delivers(self, mode):
        net = DAryButterflyLeveled(3, 3)  # 27 rows
        router = LeveledRouter(net, intermediate=mode, seed=1)
        stats = router.route_random_permutation()
        assert stats.completed
        assert stats.delivered == 27
        # every packet crosses exactly 2L links
        assert all(h == 2 * net.num_levels for h in stats.hops)

    def test_time_linear_in_levels(self):
        # Theorem 2.1 shape check: time/(2L) stays bounded as L grows.
        ratios = []
        for d, L in [(2, 4), (2, 6), (2, 8)]:
            net = DAryButterflyLeveled(d, L)
            router = LeveledRouter(net, seed=2)
            stats = router.route_random_permutation()
            assert stats.completed
            ratios.append(stats.steps / (2 * L))
        assert max(ratios) < 6.0  # Õ(ℓ) with small constant

    def test_star_logical_network_routing(self):
        net = StarLogicalLeveled(4)
        router = LeveledRouter(net, intermediate="node", seed=3)
        stats = router.route_random_permutation()
        assert stats.completed
        assert stats.delivered == 24

    def test_shuffle_leveled_routing(self):
        net = ShuffleLeveled(3, 3)
        router = LeveledRouter(net, intermediate="coin", seed=4)
        stats = router.route_random_permutation()
        assert stats.completed

    def test_h_relation_routing(self):
        # Theorem 2.4: cℓ packets per node still finishes.
        net = DAryButterflyLeveled(2, 4)
        router = LeveledRouter(net, seed=5)
        n = net.column_size
        rng = np.random.default_rng(0)
        h = net.num_levels
        sources = np.repeat(np.arange(n), h)
        dests = np.concatenate([rng.permutation(n) for _ in range(h)])
        stats = router.route_h_relation(sources, dests)
        assert stats.completed
        assert stats.delivered == h * n

    def test_bad_permutation_rejected(self):
        net = DAryButterflyLeveled(2, 2)
        router = LeveledRouter(net, seed=0)
        with pytest.raises(ValueError):
            router.route_permutation([0, 0, 1, 2])

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            LeveledRouter(DAryButterflyLeveled(2, 2), intermediate="magic")

    def test_seeded_runs_reproduce(self):
        net = DAryButterflyLeveled(2, 5)
        s1 = LeveledRouter(net, seed=11).route_random_permutation()
        s2 = LeveledRouter(net, seed=11).route_random_permutation()
        assert s1.steps == s2.steps
        assert s1.max_queue == s2.max_queue


class TestStarRouter:
    def test_permutation_routing_delivers(self):
        star = StarGraph(4)
        router = StarRouter(star, seed=1)
        stats = router.route_random_permutation()
        assert stats.completed
        assert stats.delivered == 24

    def test_time_order_of_diameter(self):
        # Theorem 2.2: Õ(n) — check time within a small multiple of diameter.
        star = StarGraph(5)
        router = StarRouter(star, seed=2)
        stats = router.route_random_permutation()
        assert stats.completed
        assert stats.steps <= 8 * star.diameter

    def test_n_relation(self):
        star = StarGraph(4)
        router = StarRouter(star, seed=3)
        stats = router.route_n_relation()
        assert stats.completed

    def test_deterministic_variant(self):
        star = StarGraph(4)
        router = StarRouter(star, seed=4, randomized=False)
        stats = router.route_random_permutation()
        assert stats.completed
        # hop counts are exact star distances for the greedy variant
        assert max(stats.hops) <= star.diameter

    def test_adversarial_permutation_is_valid(self):
        star = StarGraph(5)
        perm = adversarial_star_permutation(star)
        assert sorted(perm.tolist()) == list(range(star.num_nodes))

    def test_bad_permutation_rejected(self):
        star = StarGraph(3)
        with pytest.raises(ValueError):
            StarRouter(star, seed=0).route_permutation([0, 1])


class TestShuffleRouter:
    def test_permutation_routing_delivers(self):
        sh = DWayShuffle(3, 3)
        router = ShuffleRouter(sh, seed=1)
        stats = router.route_random_permutation()
        assert stats.completed
        assert stats.delivered == 27
        assert all(h == 2 * sh.n for h in stats.hops)

    def test_n_way_shuffle(self):
        sh = DWayShuffle.n_way(3)
        router = ShuffleRouter(sh, seed=2)
        stats = router.route_random_permutation()
        assert stats.completed
        assert stats.steps <= 10 * sh.n

    def test_n_relation(self):
        sh = DWayShuffle(3, 3)
        stats = ShuffleRouter(sh, seed=3).route_n_relation()
        assert stats.completed

    def test_deterministic_single_pass(self):
        sh = DWayShuffle(3, 3)
        router = ShuffleRouter(sh, seed=4, randomized=False)
        stats = router.route_random_permutation()
        assert stats.completed
        assert all(h == sh.n for h in stats.hops)

    def test_bad_permutation_rejected(self):
        sh = DWayShuffle(2, 2)
        with pytest.raises(ValueError):
            ShuffleRouter(sh, seed=0).route_permutation([0, 1, 2, 0])


class TestMeshRouter:
    def test_permutation_routing_delivers(self):
        mesh = Mesh2D.square(8)
        router = MeshRouter(mesh, seed=1)
        stats = router.route_random_permutation()
        assert stats.completed
        assert stats.delivered == 64

    def test_time_close_to_2n(self):
        # Theorem 3.1 shape: 2n + o(n).
        n = 16
        mesh = Mesh2D.square(n)
        router = MeshRouter(mesh, seed=2)
        stats = router.route_random_permutation()
        assert stats.completed
        assert stats.steps <= 3.5 * n

    def test_fifo_discipline_also_works(self):
        mesh = Mesh2D.square(8)
        router = MeshRouter(mesh, seed=3, discipline="fifo")
        stats = router.route_random_permutation()
        assert stats.completed

    def test_bad_discipline_rejected(self):
        with pytest.raises(ValueError):
            MeshRouter(Mesh2D.square(4), discipline="lifo")

    def test_node_capacity_variant_completes(self):
        mesh = Mesh2D.square(8)
        router = MeshRouter(mesh, seed=4, node_capacity=8)
        stats = router.route_random_permutation()
        assert stats.completed

    def test_slice_rows_default(self):
        assert default_slice_rows(2) == 1
        assert default_slice_rows(16) == 4
        assert default_slice_rows(64) == 11  # 64/log2(64) rounded

    def test_explicit_slice_rows(self):
        mesh = Mesh2D.square(8)
        router = MeshRouter(mesh, seed=5, slice_rows=8)
        stats = router.route_random_permutation()
        assert stats.completed
        with pytest.raises(ValueError):
            MeshRouter(mesh, slice_rows=0)

    def test_many_one_pattern_completes(self):
        # many-one routing (§2.2.1): all packets to one node, combining off.
        mesh = Mesh2D.square(6)
        router = MeshRouter(mesh, seed=6)
        sources = np.arange(36)
        dests = np.zeros(36, dtype=int)
        stats = router.route(sources, dests, max_steps=5000)
        assert stats.completed

    def test_greedy_baseline(self):
        mesh = Mesh2D.square(6)
        router = GreedyMeshRouter(mesh)
        stats = router.route(np.arange(36), np.random.default_rng(0).permutation(36))
        assert stats.completed


class TestLinearRouting:
    def test_single_line_routing(self):
        stats = route_linear(10, [0, 9], [9, 0])
        assert stats.completed
        assert stats.steps == 9

    def test_random_instance_bound(self):
        # §3.4.1: n' random packets finish in about n' + o(n) steps.
        n, total = 40, 40
        origins, dests = random_linear_instance(n, total, seed=7)
        stats = route_linear(n, origins, dests)
        assert stats.completed
        assert stats.steps <= 2 * n

    def test_fifo_vs_furthest_first(self):
        n, total = 30, 60
        origins, dests = random_linear_instance(n, total, seed=8)
        ff = route_linear(n, origins, dests, discipline="furthest_first")
        fifo = route_linear(n, origins, dests, discipline="fifo")
        assert ff.completed and fifo.completed

    def test_validates_nodes(self):
        with pytest.raises(ValueError):
            route_linear(5, [6], [0])

    def test_bad_discipline(self):
        with pytest.raises(ValueError):
            route_linear(5, [0], [1], discipline="magic")


class TestValiantBaselines:
    def test_hypercube_random_permutation(self):
        cube = Hypercube(5)
        router = ValiantHypercubeRouter(cube, seed=1)
        stats = router.route_random_permutation()
        assert stats.completed
        assert stats.steps <= 8 * cube.n

    def test_transpose_perm_valid(self):
        cube = Hypercube(6)
        perm = transpose_permutation(cube)
        assert sorted(perm.tolist()) == list(range(64))

    def test_transpose_hurts_deterministic_routing(self):
        # The classic Valiant motivation: deterministic e-cube on the
        # transpose needs far longer than the randomized router.
        cube = Hypercube(6)
        perm = transpose_permutation(cube)
        det = GreedyRouter(cube).route(np.arange(64), perm)
        rnd = ValiantHypercubeRouter(cube, seed=2).route(np.arange(64), perm)
        assert det.completed and rnd.completed
        assert det.steps > cube.n  # congestion delay visible
        assert rnd.steps <= det.steps * 2  # randomization competitive

    def test_serialized_shuffle_route_completes(self):
        sh = DWayShuffle(3, 3)
        rng = np.random.default_rng(3)
        stats = valiant_shuffle_route(
            sh, np.arange(27), rng.permutation(27), seed=4
        )
        assert stats.completed

    def test_serialized_slower_than_parallel(self):
        sh = DWayShuffle.n_way(3)
        rng = np.random.default_rng(5)
        perm = rng.permutation(sh.num_nodes)
        ser = valiant_shuffle_route(sh, np.arange(sh.num_nodes), perm, seed=6)
        par = ShuffleRouter(sh, seed=6).route(np.arange(sh.num_nodes), perm)
        assert ser.completed and par.completed
        assert ser.steps >= par.steps


class TestGreedyRouter:
    def test_routes_on_star(self):
        star = StarGraph(4)
        router = GreedyRouter(star)
        rng = np.random.default_rng(9)
        stats = router.route(np.arange(24), rng.permutation(24))
        assert stats.completed

    def test_stall_detection(self):
        class Broken(StarGraph):
            def route_next(self, cur, dest):
                return cur  # never advances

        router = GreedyRouter(Broken(3))
        with pytest.raises(RuntimeError):
            router.route([0], [5])
        # one guarded walk serves every greedy router on both engines;
        # under a deadline, because an unguarded walk spins forever on
        # this topology instead of failing
        for cls, kwargs in (
            (GreedyRouter, {}),
            (StarRouter, {"randomized": False}),
            (StarRouter, {"seed": 1}),
            (ValiantHypercubeRouter, {"randomized": False}),
        ):
            for engine in ("fast", "reference"):
                router = cls(Broken(3), engine=engine, **kwargs)
                with deadline(5), pytest.raises(RouteStalledError) as err:
                    router.route([0], [5])
                stalled = err.value
                assert (stalled.packet, stalled.node) == (0, 0), (cls, engine)
                assert stalled.dest == 5 or kwargs.get("seed"), (cls, engine)


# ----------------------------------------------------------------------
# The router contract: every router class on both engines.
#
# GOLDEN holds each seeded case's RoutingStats as recorded at the commit
# before the routers were folded onto one base (`Router`): the numbers a
# refactor of the routing layer may not move.  Both engines must
# reproduce a row, so the table is the fast ≡ reference contract too.
# ----------------------------------------------------------------------

BFLY = DAryButterflyLeveled(2, 4)
MESH = Mesh2D.square(6)
CUBE = Hypercube(4)
STAR = StarGraph(4)
SHUFFLE = DWayShuffle(2, 4)
CREDIT = dict(node_capacity=2, flow_control="credit")
TIGHT = dict(node_capacity=1, flow_control="credit")


def _seeded_permutation(router, n):
    """A fixed permutation for the routers that hold no seed."""
    return router.route(np.arange(n), np.random.default_rng(5).permutation(n))


def _hot_reads(engine):
    # CRCW combining: 16 reads of 3 addresses, each address one row
    addrs = [i % 3 for i in range(16)]
    return LeveledRouter(BFLY, seed=11, engine=engine).route(
        range(16), [5 * a for a in addrs], combine_keys=addrs
    )


def _valiant_shuffle(_engine):
    perm = np.random.default_rng(5).permutation(16)
    return valiant_shuffle_route(SHUFFLE, np.arange(16), perm, seed=11)


#: case -> engine -> RoutingStats
CASES = {
    "leveled-coin": lambda e: LeveledRouter(
        BFLY, seed=11, engine=e
    ).route_random_permutation(),
    "leveled-node": lambda e: LeveledRouter(
        BFLY, intermediate="node", seed=11, engine=e
    ).route_random_permutation(),
    "leveled-coin-credit": lambda e: LeveledRouter(
        BFLY, seed=11, engine=e, **CREDIT
    ).route_random_permutation(),
    "leveled-node-credit": lambda e: LeveledRouter(
        BFLY, intermediate="node", seed=11, engine=e, **TIGHT
    ).route_random_permutation(),
    "leveled-coin-combine": _hot_reads,
    "leveled-star-logical": lambda e: LeveledRouter(
        StarLogicalLeveled(4), seed=11, engine=e
    ).route_random_permutation(),
    "mesh": lambda e: MeshRouter(MESH, seed=11, engine=e).route_random_permutation(),
    "mesh-fifo": lambda e: MeshRouter(
        MESH, seed=11, discipline="fifo", engine=e
    ).route_random_permutation(),
    "mesh-capacity": lambda e: MeshRouter(
        MESH, seed=11, node_capacity=2, engine=e
    ).route_random_permutation(),
    "mesh-credit": lambda e: MeshRouter(
        MESH, seed=11, engine=e, **CREDIT
    ).route_random_permutation(),
    "greedy-mesh": lambda e: _seeded_permutation(GreedyMeshRouter(MESH, engine=e), 36),
    "greedy-mesh-credit": lambda e: _seeded_permutation(
        GreedyMeshRouter(MESH, engine=e, **CREDIT), 36
    ),
    "greedy-on-mesh": lambda e: _seeded_permutation(GreedyRouter(MESH, engine=e), 36),
    "greedy-on-mesh-credit": lambda e: _seeded_permutation(
        GreedyRouter(MESH, engine=e, **CREDIT), 36
    ),
    "greedy-on-cube": lambda e: _seeded_permutation(GreedyRouter(CUBE, engine=e), 16),
    "greedy-on-cube-credit": lambda e: _seeded_permutation(
        GreedyRouter(CUBE, engine=e, **CREDIT), 16
    ),
    "greedy-on-line": lambda e: _seeded_permutation(
        GreedyRouter(LinearArray(12), engine=e), 12
    ),
    "greedy-on-star": lambda e: _seeded_permutation(GreedyRouter(STAR, engine=e), 24),
    "greedy-on-star-credit": lambda e: _seeded_permutation(
        GreedyRouter(STAR, engine=e, **TIGHT), 24
    ),
    "star": lambda e: StarRouter(STAR, seed=11, engine=e).route_random_permutation(),
    "star-greedy": lambda e: StarRouter(
        STAR, seed=11, randomized=False, engine=e
    ).route_random_permutation(),
    "star-n-relation": lambda e: StarRouter(STAR, seed=11, engine=e).route_n_relation(),
    "shuffle": lambda e: ShuffleRouter(
        SHUFFLE, seed=11, engine=e
    ).route_random_permutation(),
    "shuffle-single-pass": lambda e: ShuffleRouter(
        SHUFFLE, seed=11, randomized=False, engine=e
    ).route_random_permutation(),
    "shuffle-n-relation": lambda e: ShuffleRouter(
        SHUFFLE, seed=11, engine=e
    ).route_n_relation(),
    "valiant-cube": lambda e: ValiantHypercubeRouter(
        CUBE, seed=11, engine=e
    ).route_random_permutation(),
    "valiant-cube-greedy": lambda e: ValiantHypercubeRouter(
        CUBE, seed=11, randomized=False, engine=e
    ).route(np.arange(16), transpose_permutation(CUBE)),
    "route-linear": lambda e: route_linear(
        12, *random_linear_instance(12, 30, seed=11), engine=e
    ),
    "route-linear-fifo": lambda e: route_linear(
        12, *random_linear_instance(12, 30, seed=11), discipline="fifo", engine=e
    ),
    "valiant-shuffle": _valiant_shuffle,
}


def stats_row(stats):
    """The fields the theorems bound, plus a checksum that pins the
    per-packet ``delays`` / ``hops`` lists including their order."""
    assert stats.completed and stats.delivered == stats.total_packets
    return (
        stats.steps,
        stats.max_queue,
        stats.max_node_load,
        stats.combines,
        stats.credits_stalled,
        stats.escape_hops,
        sum(stats.delays),
        sum(stats.hops),
        zlib.crc32(repr((stats.delays, stats.hops)).encode()),
    )


#: case -> (fast run_mode, stats_row) at the parent commit
GOLDEN = {
    "leveled-coin": ("batch", (10, 2, 3, 0, 0, 0, 9, 128, 904534325)),
    "leveled-node": ("batch", (9, 2, 2, 0, 0, 0, 6, 128, 2853675100)),
    "leveled-coin-credit": ("batch-constrained", (10, 2, 2, 0, 1, 3, 9, 128, 2792245301)),
    "leveled-node-credit": ("batch-constrained", (9, 1, 1, 0, 6, 30, 6, 128, 823048237)),
    "leveled-coin-combine": ("batch", (9, 2, 2, 8, 0, 0, 23, 108, 479110915)),
    "leveled-star-logical": ("batch", (15, 3, 4, 0, 0, 0, 16, 288, 1711641123)),
    "mesh": ("batch", (9, 2, 3, 0, 0, 0, 2, 156, 644822661)),
    "mesh-fifo": ("batch", (9, 2, 3, 0, 0, 0, 2, 156, 3524081040)),
    "mesh-capacity": ("batch-constrained", (9, 2, 2, 0, 0, 0, 12, 156, 588251203)),
    "mesh-credit": ("batch-constrained", (9, 2, 2, 0, 1, 8, 2, 156, 3964792595)),
    "greedy-mesh": ("batch", (10, 2, 3, 0, 0, 0, 3, 150, 1852064477)),
    "greedy-mesh-credit": ("batch-constrained", (10, 2, 2, 0, 0, 12, 3, 150, 1852064477)),
    "greedy-on-mesh": ("batch", (10, 2, 3, 0, 0, 0, 3, 150, 1852064477)),
    "greedy-on-mesh-credit": ("batch-constrained", (10, 2, 2, 0, 0, 12, 3, 150, 1852064477)),
    "greedy-on-cube": ("batch", (3, 1, 2, 0, 0, 0, 0, 30, 3080070604)),
    "greedy-on-cube-credit": ("batch-constrained", (3, 1, 2, 0, 0, 0, 0, 30, 3080070604)),
    "greedy-on-line": ("batch", (10, 1, 2, 0, 0, 0, 0, 40, 425674012)),
    "greedy-on-star": ("batch", (4, 2, 2, 0, 0, 0, 1, 62, 2387631493)),
    "greedy-on-star-credit": ("batch-constrained", (5, 1, 1, 0, 1, 20, 1, 62, 4173800149)),
    "star": ("batch", (9, 2, 3, 0, 0, 0, 13, 146, 1001990166)),
    "star-greedy": ("batch", (5, 2, 2, 0, 0, 0, 1, 58, 3539206716)),
    "star-n-relation": ("batch", (14, 4, 6, 0, 0, 0, 269, 516, 3271901132)),
    "shuffle": ("batch", (10, 3, 3, 0, 0, 0, 15, 128, 3348744408)),
    "shuffle-single-pass": ("batch", (5, 2, 2, 0, 0, 0, 2, 64, 1593001892)),
    "shuffle-n-relation": ("batch", (22, 6, 7, 0, 0, 0, 569, 512, 2660712646)),
    "valiant-cube": ("batch", (7, 1, 2, 0, 0, 0, 0, 80, 2728664663)),
    "valiant-cube-greedy": ("batch", (4, 1, 2, 0, 0, 0, 0, 32, 3023442712)),
    "route-linear": ("batch", (11, 5, 5, 0, 0, 0, 56, 105, 3444350474)),
    "route-linear-fifo": ("batch", (14, 5, 5, 0, 0, 0, 49, 105, 681849716)),
    "valiant-shuffle": ("reference", (13, 3, 3, 0, 0, 0, 45, 128, 4232337647)),
}


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("case", CASES)
def test_seeded_stats_equal_the_recorded_goldens(case, engine, run_lane):
    fast_mode, row = GOLDEN[case]
    stats = CASES[case](engine)
    assert stats_row(stats) == row
    assert stats.run_mode == (fast_mode if engine == "fast" else "reference")


@pytest.mark.parametrize("case", CASES)
def test_seeded_stats_equal_the_recorded_goldens_on_the_vector_lane(case):
    """The goldens above run the fast engine's small runs on the scalar
    lane (``run_lane``); every one of them again on the vector lane."""
    with forced_run_lane("vector"):
        stats = CASES[case]("fast")
    assert stats_row(stats) == GOLDEN[case][1]


#: the seven router classes on a small instance, as engine -> router
ROUTERS = {
    "LeveledRouter": lambda e: LeveledRouter(BFLY, seed=3, engine=e),
    "MeshRouter": lambda e: MeshRouter(MESH, seed=3, engine=e),
    "StarRouter": lambda e: StarRouter(STAR, seed=3, engine=e),
    "ShuffleRouter": lambda e: ShuffleRouter(SHUFFLE, seed=3, engine=e),
    "ValiantHypercubeRouter": lambda e: ValiantHypercubeRouter(CUBE, seed=3, engine=e),
    "GreedyRouter": lambda e: GreedyRouter(STAR, engine=e),
    "GreedyMeshRouter": lambda e: GreedyMeshRouter(MESH, engine=e),
}


@pytest.mark.parametrize("name", ROUTERS)
def test_inherited_random_permutation_agrees_across_engines(name):
    runs = []
    for engine in ("fast", "reference"):
        router = ROUTERS[name](engine)
        router.rng = np.random.default_rng(3)  # the greedy classes take no seed
        # every field read through the instance: a fast run's deferred
        # max_node_load resolves to its number, as attribute access does
        runs.append(dataclasses.asdict(router.route_random_permutation()))
    fast, reference = runs
    assert fast.pop("run_mode") == "batch"
    assert reference.pop("run_mode") == "reference"
    assert fast == reference and fast["completed"]


@pytest.mark.parametrize("name", ROUTERS)
def test_route_permutation_rejects_a_non_permutation(name):
    router = ROUTERS[name]("fast")
    n = router.num_endpoints
    router.route_permutation(np.arange(n)[::-1])
    for bad in (np.zeros(n, dtype=int), np.arange(n - 1), np.arange(n + 1)):
        with pytest.raises(ValueError, match="permutation"):
            router.route_permutation(bad)
