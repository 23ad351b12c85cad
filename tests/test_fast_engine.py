"""Differential tests: the compiled fast path vs. the reference engine.

The fast engine's contract is *exact* equivalence: under a fixed seed it
must produce the same RoutingStats — steps, delivered, max_queue,
combines, max_node_load, and the per-packet delay/hop lists — as the
readable reference engine, on every supported network family and router
configuration.  These tests pin that contract on star, shuffle, and
butterfly networks (logical leveled views and physical routers), for
both phase-1 flavors, with and without CRCW combining, and through the
full emulation pipeline including reply fan-out — each scenario class
once per lane of the fast engine (``repro.routing.fast_scalar``): as
written on the scalar lane, and again as its ``...VectorLane``
subclass.
"""

import dataclasses

import numpy as np
import pytest
from conftest import RUN_LANES, forced_run_lane

from repro.emulation.leveled import LeveledEmulator
from repro.emulation.mesh import MeshEmulator
from repro.faults import FaultSchedule
from repro.faults.runtime import LinkFaultTimeline
from repro.obs import Observer
from repro.pram.trace import RequestColumns, hotspot_step, permutation_step
from repro.routing import (
    DeadlockError,
    FastPathEngine,
    GreedyMeshRouter,
    GreedyRouter,
    LeveledRouter,
    MeshRouter,
    RoutingTimeout,
    ShuffleRouter,
    StarRouter,
    SynchronousEngine,
    ValiantHypercubeRouter,
    fast_engine,
    fast_scalar,
    resolve_engine_mode,
)
from repro.routing.fast_engine import ENGINE_ENV_VAR
from repro.routing.fast_phases import Replies
from repro.topology import (
    DAryButterflyLeveled,
    DWayShuffle,
    Hypercube,
    LinearArray,
    Mesh2D,
    ShuffleLeveled,
    StarGraph,
    StarLogicalLeveled,
)
from repro.topology.compiled import FlatPaths

STAT_FIELDS = (
    "steps",
    "delivered",
    "total_packets",
    "max_queue",
    "completed",
    "combines",
    "max_node_load",
    "credits_stalled",
    "escape_hops",
    "fault_stalls",
)


def h_relation_step(n_procs: int, address_space: int, h: int, seed: int) -> RequestColumns:
    """*h* reads per processor, each round a fresh random partial
    permutation of the addresses: an h-relation (stresses Theorem 2.4)."""
    rng = np.random.default_rng(seed)
    reads: list[tuple[int, int]] = []
    for _rep in range(h):
        reads += enumerate(rng.choice(address_space, size=n_procs, replace=False).tolist())
    return RequestColumns.of(reads=reads)


def assert_stats_equal(fast, ref):
    for field in STAT_FIELDS:
        assert getattr(fast, field) == getattr(ref, field), field
    assert fast.delays == ref.delays
    assert fast.hops == ref.hops


def combine_groups(addresses, dests):
    """The fast engine's combine-key column for rows whose reference
    packets carry *addresses* and exit at *dests*: two rows share a key
    iff their packets' ``combine_key`` matches, and a keyless row has
    one of its own."""
    keys: dict = {}
    return [
        keys.setdefault((i,) if a is None else (a, d), len(keys))
        for i, (a, d) in enumerate(zip(addresses, dests))
    ]


def assert_absorptions_equal(arrays, packets):
    """A fast run's absorptions are the reference packets' combining
    trees: the same children under each host, in absorption order."""
    fast: dict = {}
    for h, c in zip(arrays.absorbed_by.tolist(), arrays.absorbed.tolist()):
        fast.setdefault(h, []).append(c)
    ref = {p.pid: [c.pid for c in p.children] for p in packets if p.children}
    assert fast == ref


def fast_traces(arrays):
    """Each row's visited node ids in a fast run: its itinerary up to
    the hop it stopped at (the reference engine's ``packet.trace``)."""
    nodes, offsets = arrays.paths
    return [
        nodes[a : a + k + 1].tolist()
        for a, k in zip(offsets[:-1].tolist(), arrays.hops.tolist())
    ]


def leveled_nets():
    return [
        DAryButterflyLeveled(2, 6),
        DAryButterflyLeveled(3, 4),
        ShuffleLeveled(3, 4),
        StarLogicalLeveled(5),
    ]


@pytest.mark.usefixtures("run_lane")
class TestLeveledDifferential:
    @pytest.mark.parametrize("net", leveled_nets(), ids=lambda n: repr(n))
    @pytest.mark.parametrize("intermediate", ["coin", "node"])
    def test_permutation_matches(self, net, intermediate):
        perm = np.random.default_rng(7).permutation(net.column_size)
        fast = LeveledRouter(
            net, intermediate=intermediate, seed=42, engine="fast"
        ).route_permutation(perm)
        ref = LeveledRouter(
            net, intermediate=intermediate, seed=42, engine="reference"
        ).route_permutation(perm)
        assert fast.completed
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("net", leveled_nets(), ids=lambda n: repr(n))
    def test_crcw_combining_matches(self, net):
        """Hotspot traffic with combining: counts and queues must agree."""
        n = net.column_size
        rng = np.random.default_rng(5)
        sources = np.arange(n)
        addresses = rng.integers(8, size=n)  # few addresses -> heavy combining
        dests = addresses % n
        keys = addresses * n + dests  # one per (address, dest)
        fast = LeveledRouter(net, engine="fast", seed=9).route(
            sources, dests, combine_keys=keys
        )
        ref = LeveledRouter(net, engine="reference", seed=9).route(
            sources, dests, combine_keys=keys
        )
        assert fast.combines > 0
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("net", leveled_nets(), ids=lambda n: repr(n))
    def test_traces_match(self, net):
        """Every reference packet's recorded trace is the fast run's
        itinerary."""
        n = net.column_size
        perm = np.random.default_rng(3).permutation(n)
        fast = LeveledRouter(net, seed=1, engine="fast")
        ref = LeveledRouter(net, seed=1, engine="reference")
        fast.route(range(n), perm)
        ref.route(range(n), perm)
        L, N = net.num_levels, net.column_size
        for trace, b in zip(fast_traces(fast.last_fast_run), ref.last_packets):
            assert trace == b.trace
            assert trace[-1] == b.node == b.dest
            # one id per position, the identified columns (position L)
            # included: the trace is the unrolled walk
            assert [v // N for v in trace] == list(range(2 * L + 1))

    def test_timeout_matches(self):
        net = DAryButterflyLeveled(2, 6)
        perm = np.random.default_rng(11).permutation(net.column_size)
        budget = 2 * net.num_levels + 1  # too tight: some packets miss it
        fast = LeveledRouter(net, seed=2, engine="fast").route_permutation(
            perm, max_steps=budget
        )
        ref = LeveledRouter(net, seed=2, engine="reference").route_permutation(
            perm, max_steps=budget
        )
        assert not fast.completed
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("seed", [3, 5, 8])
    @pytest.mark.parametrize(
        "allotment, rounds",
        # 2L = 12 hops a round: a loose allotment, one that only
        # contention-free packets make, and one below the path length
        [(120, "one"), (13, "several"), (11, "timeout")],
    )
    def test_restarts_match(self, seed, allotment, rounds):
        """Lemma 2.1's restarts, round by round on either engine: the
        same rounds, the same aggregate (or, when every round falls
        short, the same last round in the ``RoutingTimeout``)."""
        net = DAryButterflyLeveled(2, 6)
        perm = np.random.default_rng(seed + 1).permutation(net.column_size)

        def run(engine):
            router = LeveledRouter(net, seed=seed, engine=engine)
            try:
                return router.route_with_restarts(
                    np.arange(net.column_size), perm, allotment=allotment, max_rounds=4
                )
            except RoutingTimeout as err:
                return err.stats, None

        (sf, rf), (sr, rr) = run("fast"), run("reference")
        assert rf == rr
        assert {"one": rf == 1, "several": (rf or 0) > 1, "timeout": rf is None}[rounds]
        assert sf.completed == (rf is not None)
        assert_stats_equal(sf, sr)


@pytest.mark.usefixtures("run_lane")
class TestPhysicalRouterDifferential:
    def test_star_permutation_matches(self):
        star = StarGraph(5)
        perm = np.random.default_rng(1).permutation(star.num_nodes)
        fast = StarRouter(star, seed=8, engine="fast").route_permutation(perm)
        ref = StarRouter(star, seed=8, engine="reference").route_permutation(perm)
        assert fast.completed
        assert (fast.run_mode, ref.run_mode) == ("batch", "reference")
        assert_stats_equal(fast, ref)

    def test_star_nonrandomized_matches(self):
        star = StarGraph(4)
        perm = np.random.default_rng(2).permutation(star.num_nodes)
        fast = StarRouter(star, randomized=False, engine="fast").route_permutation(perm)
        ref = StarRouter(star, randomized=False, engine="reference").route_permutation(
            perm
        )
        assert (fast.run_mode, ref.run_mode) == ("batch", "reference")
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("randomized", [True, False])
    def test_star_n_relation_matches(self, n, randomized):
        """Ragged greedy walks (zero-hop packets included: a partial
        n-relation may send a node to itself) pad into the batch mode."""
        star = StarGraph(n)

        def run(engine):
            return StarRouter(
                star, seed=n, randomized=randomized, engine=engine
            ).route_n_relation(h=2)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert (fast.run_mode, ref.run_mode) == ("batch", "reference")
        assert_stats_equal(fast, ref)

    def test_shuffle_permutation_matches(self):
        sh = DWayShuffle(3, 4)
        perm = np.random.default_rng(3).permutation(sh.num_nodes)
        fast = ShuffleRouter(sh, seed=6, engine="fast").route_permutation(perm)
        ref = ShuffleRouter(sh, seed=6, engine="reference").route_permutation(perm)
        assert fast.completed
        assert_stats_equal(fast, ref)

    def test_shuffle_n_relation_matches(self):
        sh = DWayShuffle(3, 3)
        fast = ShuffleRouter(sh, seed=13, engine="fast").route_n_relation(h=3)
        ref = ShuffleRouter(sh, seed=13, engine="reference").route_n_relation(h=3)
        assert_stats_equal(fast, ref)


@pytest.mark.usefixtures("run_lane")
class TestMeshStackDifferential:
    """The §3.3–3.4 mesh stack: routers and emulator, both engines."""

    @pytest.mark.parametrize("discipline", ["furthest_first", "fifo"])
    @pytest.mark.parametrize("capacity", [None, 4])
    def test_mesh_router_permutation_matches(self, discipline, capacity):
        mesh = Mesh2D.square(10)
        perm = np.random.default_rng(2).permutation(mesh.num_nodes)

        def run(engine):
            return MeshRouter(
                mesh,
                seed=11,
                discipline=discipline,
                node_capacity=capacity,
                engine=engine,
            ).route_permutation(perm)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert_stats_equal(fast, ref)

    def test_mesh_router_many_one_matches(self):
        mesh = Mesh2D.square(9)
        rng = np.random.default_rng(4)
        dests = rng.integers(0, mesh.num_nodes, size=mesh.num_nodes)

        def run(engine):
            return MeshRouter(mesh, seed=7, engine=engine).route(
                np.arange(mesh.num_nodes), dests, max_steps=5000
            )

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert_stats_equal(fast, ref)

    def test_mesh_router_traces_match(self):
        mesh = Mesh2D.square(6)
        perm = np.random.default_rng(6).permutation(mesh.num_nodes)

        def run(engine):
            router = MeshRouter(mesh, seed=3, engine=engine)
            router.route(range(mesh.num_nodes), perm)
            return router

        fast, ref = run("fast"), run("reference")
        for trace, b in zip(fast_traces(fast.last_fast_run), ref.last_packets):
            assert trace == b.trace
            assert trace[-1] == b.node

    def test_mesh_router_timeout_matches(self):
        mesh = Mesh2D.square(10)
        perm = np.random.default_rng(9).permutation(mesh.num_nodes)
        budget = 6  # below the diameter: many packets miss it

        def run(engine):
            return MeshRouter(mesh, seed=5, engine=engine).route_permutation(
                perm, max_steps=budget
            )

        fast, ref = run("fast"), run("reference")
        assert not fast.completed
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("capacity", [None, 3])
    def test_greedy_mesh_matches(self, capacity):
        mesh = Mesh2D.square(9)
        rng = np.random.default_rng(8)
        dests = rng.integers(0, mesh.num_nodes, size=mesh.num_nodes)

        def run(engine):
            return GreedyMeshRouter(
                mesh, node_capacity=capacity, engine=engine
            ).route(np.arange(mesh.num_nodes), dests)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize(
        "topology",
        [Mesh2D.square(7), LinearArray(40), Hypercube(6), StarGraph(4)],
        ids=lambda t: type(t).__name__,
    )
    def test_greedy_router_matches(self, topology):
        """GreedyRouter fast paths: vectorized builders for mesh, linear
        array and hypercube; generic (ragged) route_next walk otherwise."""
        rng = np.random.default_rng(12)
        n = topology.num_nodes
        sources = np.arange(n)
        dests = rng.permutation(n)

        def run(engine):
            return GreedyRouter(topology, engine=engine).route(sources, dests)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert (fast.run_mode, ref.run_mode) == ("batch", "reference")
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("flow", ["none", "credit"])
    @pytest.mark.parametrize(
        "topology", [StarGraph(4), DWayShuffle(2, 4)], ids=lambda t: type(t).__name__
    )
    def test_greedy_router_ragged_capacity_matches(self, topology, flow):
        """Ragged route_next walks under node_capacity take the
        constrained batch mode.  Three hot destinations behind
        capacity-1 nodes make the bound bind: credits stall and escape
        buffers fill, and the star's cyclic greedy paths deadlock
        without credits — then both engines must, with equal stats."""
        n = topology.num_nodes
        sources = np.arange(n)
        dests = np.random.default_rng(12).integers(0, 3, size=n)

        def run(engine):
            router = GreedyRouter(
                topology, node_capacity=1, flow_control=flow, engine=engine
            )
            try:
                return router.route(sources, dests), False
            except DeadlockError as err:
                return err.stats, True

        (fast, fast_dead), (ref, ref_dead) = run("fast"), run("reference")
        assert fast_dead == ref_dead
        assert fast_dead == (flow == "none" and isinstance(topology, StarGraph))
        assert (fast.run_mode, ref.run_mode) == ("batch-constrained", "reference")
        assert_stats_equal(fast, ref)
        if flow == "credit":
            assert fast.escape_hops > 0 and fast.max_node_load == 1

    @pytest.mark.parametrize("randomized", [True, False])
    def test_valiant_hypercube_matches(self, randomized):
        cube = Hypercube(7)
        perm = np.random.default_rng(14).permutation(cube.num_nodes)

        def run(engine):
            return ValiantHypercubeRouter(
                cube, seed=15, randomized=randomized, engine=engine
            ).route(np.arange(cube.num_nodes), perm)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("mode", ["erew", "crcw"])
    def test_mesh_emulator_step_costs_match(self, mode):
        n_side = 6
        n = n_side * n_side
        space = 128
        steps = [
            permutation_step(n, space, seed=2),
            permutation_step(n, space, seed=4, kind="write"),
        ]
        if mode == "crcw":
            # Concurrent-access patterns are only legal in CRCW mode.
            steps.insert(0, hotspot_step(n, space, seed=1))
            steps.append(h_relation_step(n, space, 2, seed=3))

        def run(engine):
            em = MeshEmulator(
                Mesh2D.square(n_side), space, mode=mode, seed=21, engine=engine
            )
            costs = []
            for s in steps:
                c = em.emulate_step(s)
                costs.append(
                    (c.request_steps, c.reply_steps, c.rehashes, c.combines, c.max_queue)
                )
            mem = [em.memory.read(a) for a in range(space)]
            return costs, mem

        fast_costs, fast_mem = run("fast")
        ref_costs, ref_mem = run("reference")
        assert fast_costs == ref_costs
        assert fast_mem == ref_mem

    @pytest.mark.parametrize("mode", ["erew", "crcw"])
    def test_mesh_emulator_capacity_variant_matches(self, mode):
        """Corollary 3.3's O(1)-queue emulation, differentially.

        The CRCW case pins the combine-with-capacity interaction in the
        fast engine's constrained batch mode (combine-code release on
        transmit, stalled-head checks across priority classes)."""
        n_side = 6
        n = n_side * n_side
        step = (
            permutation_step(n, 128, seed=5)
            if mode == "erew"
            else hotspot_step(n, 128, seed=5)
        )

        def run(engine):
            em = MeshEmulator(
                Mesh2D.square(n_side),
                128,
                mode=mode,
                node_capacity=8,
                seed=23,
                engine=engine,
            )
            c = em.emulate_step(step)
            return (
                c.request_steps,
                c.reply_steps,
                c.rehashes,
                c.combines,
                c.max_queue,
            )

        costs_fast = run("fast")
        costs_ref = run("reference")
        assert costs_fast == costs_ref
        if mode == "crcw":
            assert costs_fast[3] > 0  # combining actually exercised

    def test_mesh_router_combining_with_capacity_matches(self):
        """Combine keys + node_capacity: the constrained fast loop must
        release combine-index residency and stall exactly like the
        reference priority queues."""
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        rng = np.random.default_rng(18)
        addresses = rng.integers(6, size=n)
        dests = (addresses * 7) % n

        def run(engine):
            router = MeshRouter(mesh, seed=19, node_capacity=6, engine=engine)
            return router.route(
                range(n), dests, max_steps=4000, combine_keys=addresses * n + dests
            )

        fast, ref = run("fast"), run("reference")
        assert fast.combines > 0
        assert fast.max_node_load <= 6
        assert_stats_equal(fast, ref)


@pytest.mark.usefixtures("run_lane")
class TestEmulatorDifferential:
    @pytest.mark.parametrize(
        "net", [DAryButterflyLeveled(2, 5), StarLogicalLeveled(4)], ids=lambda n: repr(n)
    )
    def test_step_costs_match(self, net):
        n = net.column_size
        space = 128
        steps = [
            hotspot_step(n, space, seed=1),
            permutation_step(n, space, seed=2),
            h_relation_step(n, space, 2, seed=3),
            permutation_step(n, space, seed=4, kind="write"),
        ]

        def run(engine):
            em = LeveledEmulator(net, space, mode="crcw", seed=21, engine=engine)
            costs = []
            for s in steps:
                c = em.emulate_step(s)
                costs.append(
                    (c.request_steps, c.reply_steps, c.rehashes, c.combines, c.max_queue)
                )
            mem = [em.memory.read(a) for a in range(space)]
            return costs, mem

        fast_costs, fast_mem = run("fast")
        ref_costs, ref_mem = run("reference")
        assert fast_costs == ref_costs
        assert fast_mem == ref_mem

    def test_nonuniform_degree_falls_back_to_reference(self):
        """A net that cannot pre-draw coins must still emulate correctly
        in fast mode: the router silently falls back to the reference
        engine, so the reply phase needs traces recorded."""

        class OddButterfly(DAryButterflyLeveled):
            uniform_out_degree = False

        net = OddButterfly(2, 4)
        step = hotspot_step(net.column_size, 64, seed=6)
        fast = LeveledEmulator(net, 64, mode="crcw", seed=17, engine="fast")
        cost_fast = fast.emulate_step(step)
        ref = LeveledEmulator(net, 64, mode="crcw", seed=17, engine="reference")
        cost_ref = ref.emulate_step(step)
        assert (cost_fast.request_steps, cost_fast.reply_steps) == (
            cost_ref.request_steps,
            cost_ref.reply_steps,
        )

    def test_nonuniform_degree_node_mode_uses_fast_path(self):
        """Node-mode trajectories need no out-neighbor tables, so the
        fast path must work even on non-uniform-degree networks."""

        class OddButterfly(DAryButterflyLeveled):
            uniform_out_degree = False

        net = OddButterfly(2, 5)
        perm = np.random.default_rng(8).permutation(net.column_size)
        fast = LeveledRouter(
            net, intermediate="node", seed=12, engine="fast"
        ).route_permutation(perm)
        ref = LeveledRouter(
            net, intermediate="node", seed=12, engine="reference"
        ).route_permutation(perm)
        assert fast.completed
        assert_stats_equal(fast, ref)

        step = hotspot_step(net.column_size, 64, seed=6)
        costs = []
        for engine in ("fast", "reference"):
            em = LeveledEmulator(
                net, 64, mode="crcw", intermediate="node", seed=19, engine=engine
            )
            c = em.emulate_step(step)
            costs.append((c.request_steps, c.reply_steps, c.combines))
        assert costs[0] == costs[1]

    def test_rehash_storm_matches(self):
        """Impossibly tight allotments force rehashes on both engines."""
        net = DAryButterflyLeveled(2, 4)
        step = hotspot_step(net.column_size, 64, seed=5)

        def run(engine):
            em = LeveledEmulator(
                net, 64, mode="crcw", seed=33, rehash_factor=0.4, engine=engine
            )
            cost = em.emulate_step(step)
            return cost.rehashes, cost.request_steps, em.rehash_count

        assert run("fast") == run("reference")


class TestEngineSelection:
    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert resolve_engine_mode("auto") == "reference"
        monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
        assert resolve_engine_mode("auto") == "fast"
        monkeypatch.delenv(ENGINE_ENV_VAR)
        assert resolve_engine_mode("auto") == "fast"

    def test_typoed_env_var_raises(self, monkeypatch):
        # A typo must not silently run the engine under suspicion.
        monkeypatch.setenv(ENGINE_ENV_VAR, "refernce")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            resolve_engine_mode("auto")
        monkeypatch.setenv(ENGINE_ENV_VAR, "")
        assert resolve_engine_mode("auto") == "fast"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert resolve_engine_mode("fast") == "fast"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine_mode("warp")
        with pytest.raises(ValueError):
            LeveledRouter(DAryButterflyLeveled(2, 2), engine="warp")


@pytest.mark.usefixtures("run_lane")
class TestFastPathEngineUnit:
    def test_shared_link_serializes(self):
        # Two packets crossing the same link: second waits one step.
        stats = FastPathEngine().run(
            [[0, 1, 2], [0, 1, 2]], num_nodes=3, max_steps=10
        )
        assert stats.completed
        assert stats.steps == 3
        assert sorted(stats.delays) == [0, 1]

    def test_combining_on_shared_queue(self):
        stats = FastPathEngine().run(
            [[0, 1, 2]] * 3, num_nodes=3, max_steps=10, combine_groups=[7, 7, 7]
        )
        assert stats.completed
        assert stats.combines == 2
        assert stats.steps == 2  # combined flow behaves as one packet

    def test_mismatched_paths_rejected(self):
        with pytest.raises(ValueError, match="one combine group per packet"):
            FastPathEngine().run(
                [[0, 1]], num_nodes=2, max_steps=5, combine_groups=[3, 3]
            )

    @pytest.mark.parametrize(
        "paths, offsets, message, extra",
        [
            # with offsets, paths are the nodes of a FlatPaths
            ([0, 1, 0, 1], [1, 2, 4], "offsets must run from 0 to the number of nodes", {}),
            ([0, 1, 0, 1], [0, 2, 3], "offsets must run from 0 to the number of nodes", {}),
            ([0, 1, 0, 1], [0, 2, 2, 4], r"paths\[1\] is empty", {}),
            (np.zeros(3, dtype=np.int64), None, r"ndarray paths must be 2-D", {}),
            ([[0, 1], [], [0]], None, r"paths\[1\] is empty", {}),
            (np.zeros((3, 0), dtype=np.int64), None, r"paths\[0\] is empty", {}),
            # these used to surface as IndexErrors from inside the step loop
            ([[0, 1], [0, 5], [0, 1]], None, r"paths name node id 5", {}),
            ([[0, 1], [-1, 1], [0, 1]], None, r"paths name node id -1", {}),
            ([[0, 1]] * 3, None, "priorities must be one per link position", {"priorities": np.array([1, 2])}),
            (
                [[0, 1]] * 3,
                None,
                r"links matrix names link id 5 is outside \[0, 2\)",
                {"links": (np.full((3, 1), 5), np.zeros(2, int), np.ones(2, int))},
            ),
            (
                [[0, 1]] * 3,
                None,
                "links must be the .* triple",
                {"links": (np.zeros((3, 1), int), np.zeros(1, int))},
            ),
            # a 2-D table is not the flat form
            (
                [[0, 1]] * 3,
                None,
                "priorities must be one per link position",
                {"priorities": np.array([[5], [6], [7]])},
            ),
        ],
    )
    def test_malformed_paths_rejected(self, paths, offsets, message, extra):
        if offsets is not None:
            paths = FlatPaths(np.asarray(paths), np.asarray(offsets))
        with pytest.raises(ValueError, match=message):
            FastPathEngine().run(paths, num_nodes=2, max_steps=5, **extra)

    def test_reference_only_options_are_plain_type_errors(self):
        """node_service_rate and the on_arrival hook live on the
        reference engine only; the fast engine has no such parameters."""
        with pytest.raises(TypeError):
            FastPathEngine(node_service_rate=1)
        for hook in ({"on_arrival": lambda *a: None}, {"hook_filter": bool}):
            with pytest.raises(TypeError):
                FastPathEngine().run([[0, 1]], num_nodes=2, max_steps=5, **hook)

    def test_single_packet_delivers(self):
        stats = FastPathEngine().run([[0, 1]], num_nodes=2, max_steps=5)
        assert stats.completed
        assert stats.steps == 1
        assert stats.hops == [1]

    def test_timeout_raises_when_asked(self):
        """The timeout is in the stats; ``require_completed``, the check
        a caller that needs a completed route makes, raises it."""
        from repro.experiments.harness import require_completed
        from repro.routing import RoutingTimeout

        stats = FastPathEngine().run([[0, 1, 2], [0, 1, 2]], num_nodes=3, max_steps=2)
        with pytest.raises(RoutingTimeout) as err:
            require_completed(stats)
        assert err.value.stats is stats
        assert (stats.steps, stats.delivered, stats.completed) == (2, 1, False)
        require_completed(FastPathEngine().run([[0, 1, 2]], num_nodes=3, max_steps=2))


# The scenario classes once more with every fast run on the vector
# lane: the ``run_lane`` fixture (``tests/conftest.py``) reads
# ``RUN_LANE``, and the classes above run on the scalar lane.


class TestLeveledDifferentialVectorLane(TestLeveledDifferential):
    RUN_LANE = "vector"


class TestPhysicalRouterDifferentialVectorLane(TestPhysicalRouterDifferential):
    RUN_LANE = "vector"


class TestMeshStackDifferentialVectorLane(TestMeshStackDifferential):
    RUN_LANE = "vector"


class TestEmulatorDifferentialVectorLane(TestEmulatorDifferential):
    RUN_LANE = "vector"


class TestFastPathEngineUnitVectorLane(TestFastPathEngineUnit):
    RUN_LANE = "vector"


def engine_runs(monkeypatch, call, *, jump=True) -> list[list]:
    """``[stats, arrival log, arrival phases after step 0]`` of every
    engine run *call* makes, in order, every fast run on the vector lane
    (a reference run has no log or phase count: ``None``); *jump* False
    turns the free-flow jump off, so every step is stepped."""
    seen: list[list] = []
    admit, run, reference = fast_engine.admit, FastPathEngine.run, SynchronousEngine.run

    def counted(s, batch, t):
        seen[-1][2] += t > 0
        admit(s, batch, t)

    def fast(self, *args, **kwargs):
        seen.append([None, None, 0])
        stats = run(self, *args, **kwargs)
        seen[-1][:2] = stats, self.last_arrays.arrival_log
        return stats

    def oracle(self, *args, **kwargs):
        stats = reference(self, *args, **kwargs)
        seen.append([stats, None, None])
        return stats

    with monkeypatch.context() as patch, forced_run_lane("vector"):
        patch.setattr(fast_engine, "admit", counted)
        patch.setattr(FastPathEngine, "run", fast)
        patch.setattr(SynchronousEngine, "run", oracle)
        if not jump:
            patch.setattr(fast_engine, "free_flow", lambda s, t, max_steps, rec=None: t)
        call()
    return seen


def numbers(stats) -> dict:
    """A run's stats under ``dataclasses.asdict``, less the engine's name."""
    fields = dataclasses.asdict(stats)
    del fields["run_mode"]
    return fields


@pytest.mark.usefixtures("checked_steps")
class TestFreeFlowRuns:
    """Whole runs in which the vector lane's free-flow jump fires
    (:func:`~repro.routing.fast_phases.free_flow`, checked after every
    jump): each run equals the reference engine's under
    ``dataclasses.asdict``, logs the arrivals of the same run stepped
    step by step, and runs fewer arrival phases than it has steps — so
    the jump cannot silently stop firing."""

    @staticmethod
    def assert_jumps(monkeypatch, call, jumping):
        """*call(engine)* on both engines: every run matches, and the
        runs at the indices *jumping* skip steps."""
        fast = engine_runs(monkeypatch, lambda: call("fast"))
        stepped = engine_runs(monkeypatch, lambda: call("fast"), jump=False)
        ref = engine_runs(monkeypatch, lambda: call("reference"))
        assert len(fast) == len(stepped) == len(ref) > max(jumping)
        for k, ((stats, log, phases), (plain, plain_log, every), (oracle, _, _)) in enumerate(
            zip(fast, stepped, ref)
        ):
            assert numbers(stats) == numbers(plain) == numbers(oracle), k
            assert np.array_equal(log, plain_log), k
            assert every == stats.steps, k
            assert (phases < stats.steps) == (k in jumping), k

    @pytest.mark.parametrize("pattern", ["permutation", "hot spot"])
    def test_mesh_tails(self, monkeypatch, pattern):
        mesh = Mesh2D.square(12)
        rng = np.random.default_rng(3)
        if pattern == "permutation":
            dests = rng.permutation(mesh.num_nodes)
        else:  # a third of the packets head for four nodes
            dests = rng.integers(0, mesh.num_nodes, mesh.num_nodes)
            dests[::3] = rng.choice([13, 50, 77, 130], dests[::3].size)

        def call(engine):
            MeshRouter(mesh, seed=5, engine=engine).route(np.arange(mesh.num_nodes), dests)

        self.assert_jumps(monkeypatch, call, jumping={0})

    @pytest.mark.parametrize("mode", ["erew", "crcw"])
    def test_mesh_emulator_replies(self, monkeypatch, mode):
        """An EREW step's replies — a ``Replies`` population without
        triggers — and a CRCW hot spot's, whose combining trees fan out
        through triggers inside the tail."""
        n = 100
        if mode == "erew":
            step = permutation_step(n, 512, seed=6)
        else:
            step = hotspot_step(n, 512, hot_addresses=3, hot_fraction=0.6, seed=6)

        def call(engine):
            MeshEmulator(Mesh2D.square(10), 512, mode=mode, seed=4, engine=engine).emulate_step(step)

        self.assert_jumps(monkeypatch, call, jumping={0, 1})

    def test_triggers_inside_a_reply_tail(self, monkeypatch):
        """Reply 1 spawns six hops into reply 0's free tail, and reply 2
        three hops into reply 1's: each jump lands one step short of a
        trigger, and the stepped step fires it."""
        from test_reply_phase import reference_replies, reply_population

        forest = (
            [list(range(10)), [6, 10, 11, 12, 13], [12, 14, 15], [20, 21]],
            [-1, 0, 1, -1],
        )

        def call(engine):
            requests, packets, hosts = reply_population(*forest)
            if engine == "reference":
                return reference_replies(packets, hosts)
            FastPathEngine().run(Replies(requests, hosts), num_nodes=22, max_steps=200)

        self.assert_jumps(monkeypatch, call, jumping={0})


class TestRunLanes:
    """The two lanes of ``FastPathEngine.run`` (``fast_scalar``): which
    runs take the scalar one, and that an observer sees the same run on
    either."""

    @staticmethod
    def _lane_of(monkeypatch, **kwargs):
        calls = []
        inner = fast_scalar.run_steps
        monkeypatch.setattr(
            fast_scalar, "run_steps", lambda *a, **k: calls.append(1) or inner(*a, **k)
        )
        n = kwargs.pop("n")
        FastPathEngine(**kwargs.pop("engine", {})).run(
            [[0, 1, 2]] * n, num_nodes=3, max_steps=4 * n, **kwargs
        )
        return "scalar" if calls else "vector"

    def test_the_lane_follows_the_size_and_the_configuration(self, monkeypatch):
        most = fast_scalar.SCALAR_RUN_MAX
        timeline = LinkFaultTimeline(FaultSchedule().link_down(0, (1, 2)).link_events)
        down = timeline.view(lambda spec: [spec])
        cases = [
            ({"n": most}, "scalar"),
            ({"n": most + 1}, "vector"),
            ({"n": 2, "engine": {"observer": Observer()}}, "scalar"),
            ({"n": 2, "engine": {"node_capacity": 4}}, "vector"),
            ({"n": 2, "link_faults": down}, "vector"),
        ]
        for kwargs, lane in cases:
            assert self._lane_of(monkeypatch, **kwargs) == lane, kwargs

    RUNS = {
        # packets 0 and 2 share a key and their first link, 1 meets 0 at
        # node 2 with another key
        "crcw contended": (
            {},
            [[0, 2, 3], [1, 2, 3], [0, 2, 3]],
            dict(combine_groups=[5, 6, 5]),
        ),
        "crcw solo": (
            {},
            [[0, 3, 6], [1, 4, 6], [2, 5, 6]],
            dict(combine_groups=[1, 1, 1]),
        ),
        # a reply forest: reply 1 spawns at node 1 of 0's, 2 at node 4 of 1's
        "spawn": ({}, ([[0, 1, 2, 3], [1, 4], [4, 5]], [-1, 0, 1]), {}),
        # no queue is ever shared: the vector lane jumps from step 1 on
        "free flow": ({}, [[0, 1, 2, 3, 4, 5, 6], [1, 2, 3], [4, 5, 6]], {}),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_an_observer_sees_the_same_run_on_both_lanes(self, monkeypatch, name):
        """The same profile buckets — ``combining`` only where arrivals
        of a combining run meet — and the same flight-recorder events,
        one per step, the steps a free-flow jump skips included."""
        landed = []
        jump = fast_engine.free_flow

        def spied(*args):
            landed.append(jump(*args))
            return landed[-1]

        monkeypatch.setattr(fast_engine, "free_flow", spied)
        engine_kwargs, paths, run_kwargs = self.RUNS[name]
        if name == "spawn":  # routed as its Replies population
            from test_reply_phase import reply_population  # imports this module

            requests, _, hosts = reply_population(*paths)
            paths = Replies(requests, hosts)
        seen = {}
        for lane in RUN_LANES:
            obs = Observer(metrics=False, tracing=False)
            with forced_run_lane(lane):
                stats = FastPathEngine(observer=obs, **engine_kwargs).run(
                    paths, num_nodes=7, max_steps=20, **run_kwargs
                )
            profile = obs.profile.to_dict()
            seen[lane] = (stats, sorted(profile["phases"]), obs.flight_tail())
        (scalar, buckets, events), (vector, *rest) = seen["scalar"], seen["vector"]
        assert_stats_equal(scalar, vector)
        assert [buckets, events] == rest
        assert ("combining" in buckets) == (name == "crcw contended")
        assert {"setup", "arrival", "transmission", "finish"} <= set(buckets)
        assert [e["kind"] for e in events] == ["engine_step"] * scalar.steps
        if name == "free flow":  # one jump, from step 1 to the end
            assert landed == [scalar.steps] == [6]
