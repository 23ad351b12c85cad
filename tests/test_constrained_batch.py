"""The vectorized constrained-batch mode (batch credit accounting).

Capacity-bounded runs take the fast engine's vectorized constrained
batch mode, which must stay bit-identical to the reference engine.
This suite pins that contract:

* differential sweeps over (capacity, flow_control, topology) — mesh
  greedy and 3-stage (priority classes), leveled coin/node (wrap
  aliasing), linear arrays — including the hub-star and crossing-flow
  regressions;
* mode dispatch: ``engine="fast"`` on a capacity run must take the
  constrained *batch* path (``last_run_mode == "batch-constrained"``)
  for routers and emulators alike;
* constrained-specific details: staggered injections, combining with
  credits, deadlock parity under ``flow_control="none"``.
"""

import numpy as np
import pytest

from repro.emulation.leveled import LeveledEmulator
from repro.emulation.mesh import MeshEmulator
from repro.pram.trace import hotspot_step, permutation_step
from repro.routing import (
    DeadlockError,
    FastPathEngine,
    GreedyMeshRouter,
    GreedyRouter,
    LeveledRouter,
    MeshRouter,
    SynchronousEngine,
    make_packets,
)
from repro.topology import DAryButterflyLeveled, LinearArray, Mesh2D
from conftest import delay_lines
from test_fast_engine import assert_stats_equal

#: every step of every engine run is checked (``tests/conftest.py``)
pytestmark = pytest.mark.usefixtures("checked_steps")


def _routed_modes(monkeypatch):
    """Record FastPathEngine.last_run_mode for every run() call."""
    modes: list[str] = []
    orig = FastPathEngine.run

    def spy(self, *args, **kwargs):
        stats = orig(self, *args, **kwargs)
        modes.append(self.last_run_mode)
        return stats

    monkeypatch.setattr(FastPathEngine, "run", spy)
    return modes


class TestDispatch:
    """Capacity runs take the constrained batch mode, by name."""

    def test_engine_reports_constrained_batch(self):
        engine = FastPathEngine(node_capacity=1)
        paths = [[s, 5, 6] for s in range(5)]
        engine.run(paths, num_nodes=7, max_steps=50)
        assert engine.last_run_mode == "batch-constrained"

    def test_engine_reports_batch_when_unconstrained(self):
        engine = FastPathEngine()
        paths = [[s, 5, 6] for s in range(5)]
        engine.run(paths, num_nodes=7, max_steps=50)
        assert engine.last_run_mode == "batch"

    @pytest.mark.parametrize(
        "capacity, mode", [(None, "batch"), (1, "batch-constrained")]
    )
    def test_ragged_paths_concatenate_into_the_batch_modes(self, capacity, mode):
        engine = FastPathEngine(node_capacity=capacity)
        paths = [[0, 2, 3], [1, 2, 3, 4]]
        stats = engine.run(paths, num_nodes=5, max_steps=50)
        assert engine.last_run_mode == stats.run_mode == mode
        assert stats.hops == [2, 3]
        # the rows laid end to end, nothing appended: one link id per
        # hop on the vector lane; the scalar lane (no capacity) keys its
        # hops by their (src, dst) codes and leaves no ids
        arrays = engine.last_arrays
        assert arrays.paths.nodes.tolist() == [0, 2, 3, 1, 2, 3, 4]
        assert arrays.paths.offsets.tolist() == [0, 3, 7]
        if capacity is None:
            assert arrays.links is None
        else:
            assert arrays.links[0].shape == (5,)

    @pytest.mark.parametrize("flow", ["none", "credit"])
    def test_mesh_routers_take_constrained_batch(self, monkeypatch, flow):
        modes = _routed_modes(monkeypatch)
        mesh = Mesh2D.square(6)
        n = mesh.num_nodes
        dests = np.random.default_rng(0).permutation(n)
        MeshRouter(
            mesh, seed=1, node_capacity=3, flow_control=flow, engine="fast"
        ).route(np.arange(n), dests, max_steps=4000)
        GreedyMeshRouter(
            mesh, node_capacity=3, flow_control=flow, engine="fast"
        ).route(np.arange(n), dests, max_steps=4000)
        assert modes == ["batch-constrained", "batch-constrained"]

    @pytest.mark.parametrize("intermediate", ["coin", "node"])
    def test_leveled_router_takes_constrained_batch(self, monkeypatch, intermediate):
        modes = _routed_modes(monkeypatch)
        net = DAryButterflyLeveled(2, 4)
        LeveledRouter(
            net,
            intermediate=intermediate,
            seed=2,
            node_capacity=2,
            flow_control="credit",
            engine="fast",
        ).route_random_permutation(max_steps=4000)
        assert modes == ["batch-constrained"]

    def test_emulator_requests_take_constrained_batch(self, monkeypatch):
        modes = _routed_modes(monkeypatch)
        mesh = Mesh2D.square(4)
        n = mesh.num_nodes
        em = MeshEmulator(
            mesh,
            4 * n,
            mode="crcw",
            node_capacity=3,
            flow_control="credit",
            seed=3,
            engine="fast",
        )
        em.emulate_step(hotspot_step(n, 4 * n, hot_addresses=2, seed=4))
        # Request phase(s) constrained-batch; CRCW replies unconstrained.
        assert set(modes) == {"batch-constrained", "batch"}


class TestPinnedRegressions:
    """The named workloads from the backpressure/flow-control suites,
    re-pinned through the constrained-batch dispatch."""

    def test_hub_star(self):
        """Five sources through one capacity-1 hub: max_node_load == 1."""
        hub, sink = 5, 6
        paths = [[s, hub, sink] for s in range(5)]

        def route(p):
            if p.node == sink:
                return None
            return sink if p.node == hub else hub

        fast = FastPathEngine(node_capacity=1)
        f = fast.run(paths, num_nodes=7, max_steps=100)
        assert fast.last_run_mode == "batch-constrained"
        r = SynchronousEngine(node_capacity=1).run(
            make_packets(range(5), [sink] * 5), route, max_steps=100
        )
        assert_stats_equal(f, r)
        assert f.completed and f.max_node_load == 1

    def test_crossing_flow(self):
        """The canonical wedge: deadlock under "none", completes under
        "credit" via the escape channel, identically in both engines."""
        paths = [[1, 2, 3], [2, 1, 0]]

        def route(p):
            row = paths[p.pid]
            return None if p.node == p.dest else row[row.index(p.node) + 1]

        with pytest.raises(DeadlockError) as fast_exc:
            FastPathEngine(node_capacity=1).run(paths, num_nodes=4, max_steps=10**9)
        with pytest.raises(DeadlockError) as ref_exc:
            SynchronousEngine(node_capacity=1).run(
                make_packets([1, 2], [3, 0]), route, max_steps=10**9
            )
        assert_stats_equal(fast_exc.value.stats, ref_exc.value.stats)
        assert fast_exc.value.stats.steps == 0  # detected immediately

        engine = FastPathEngine(node_capacity=1, flow_control="credit")
        f = engine.run(paths, num_nodes=4, max_steps=100)
        assert engine.last_run_mode == "batch-constrained"
        r = SynchronousEngine(node_capacity=1, flow_control="credit").run(
            make_packets([1, 2], [3, 0]), route, max_steps=100
        )
        assert_stats_equal(f, r)
        assert f.completed and f.max_node_load <= 1 and f.escape_hops >= 1


class TestCyclicRoutesWithCredit:
    """Routes that are not rank-monotone void invariant I3; whatever
    happens (completion or a detected wedge), both engines must agree
    exactly — including inside the constrained-batch mode."""

    PATHS = [
        [0, 1, 2, 0, 1],
        [1, 2, 0, 1, 2],
        [2, 0, 1, 2, 0],
    ]

    def _route(self, p):
        path = self.PATHS[p.pid]
        k = p.state = (p.state or 0) + 1
        return path[k] if k < len(path) else None

    def _packets(self):
        return make_packets([p[0] for p in self.PATHS], [p[-1] for p in self.PATHS])

    def test_engines_agree(self):
        fast_engine = FastPathEngine(node_capacity=1, flow_control="credit")
        ref_engine = SynchronousEngine(node_capacity=1, flow_control="credit")
        try:
            f = fast_engine.run(self.PATHS, num_nodes=3, max_steps=500)
            fast_deadlocked = False
        except DeadlockError as exc:
            f = exc.stats
            fast_deadlocked = True
        assert fast_engine.last_run_mode == "batch-constrained"
        try:
            r = ref_engine.run(self._packets(), self._route, max_steps=500)
            ref_deadlocked = False
        except DeadlockError as exc:
            r = exc.stats
            ref_deadlocked = True
        assert fast_deadlocked == ref_deadlocked
        assert_stats_equal(f, r)


def _sweep(make_router, sources, dests, max_steps=20_000):
    runs = [
        make_router(eng).route(sources, dests, max_steps=max_steps)
        for eng in ("fast", "reference")
    ]
    assert_stats_equal(*runs)
    return runs[0]


class TestDifferentialSweep:
    """(capacity, flow_control, topology) grid: field-for-field engine
    agreement plus the capacity invariant on completed runs."""

    @pytest.mark.parametrize("cap", [1, 2, 4])
    @pytest.mark.parametrize("flow", ["none", "credit"])
    def test_linear_hubs(self, cap, flow):
        rng = np.random.default_rng(cap * 7 + len(flow))
        arr = LinearArray(20)
        dests = rng.choice(rng.choice(arr.n, size=2, replace=False), size=arr.n)

        def make(eng):
            return GreedyRouter(
                arr, node_capacity=cap, flow_control=flow, engine=eng
            )

        try:
            stats = _sweep(make, np.arange(arr.n), dests)
        except DeadlockError:
            # "none" may wedge: both engines must agree on that too.
            with pytest.raises(DeadlockError) as fast_exc:
                make("fast").route(np.arange(arr.n), dests, max_steps=20_000)
            with pytest.raises(DeadlockError) as ref_exc:
                make("reference").route(np.arange(arr.n), dests, max_steps=20_000)
            assert_stats_equal(fast_exc.value.stats, ref_exc.value.stats)
            return
        assert stats.completed
        assert stats.max_node_load <= cap

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("cap", [2, 3])
    @pytest.mark.parametrize("flow", ["none", "credit"])
    def test_greedy_mesh_many_to_few(self, seed, cap, flow):
        rng = np.random.default_rng(seed)
        mesh = Mesh2D.square(7)
        n = mesh.num_nodes
        dests = rng.choice(rng.choice(n, size=6, replace=False), size=n)

        def make(eng):
            return GreedyMeshRouter(
                mesh, node_capacity=cap, flow_control=flow, engine=eng
            )

        try:
            stats = _sweep(make, np.arange(n), dests)
        except DeadlockError:
            with pytest.raises(DeadlockError) as fast_exc:
                make("fast").route(np.arange(n), dests, max_steps=20_000)
            with pytest.raises(DeadlockError) as ref_exc:
                make("reference").route(np.arange(n), dests, max_steps=20_000)
            assert_stats_equal(fast_exc.value.stats, ref_exc.value.stats)
            return
        assert stats.completed
        assert stats.max_node_load <= cap

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("cap", [2, 4])
    def test_three_stage_priority_classes(self, seed, cap):
        """Furthest-first arbitration + credits: the multi-class virtual
        link machinery under the constrained transmission phase."""
        rng = np.random.default_rng(seed + 50)
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        dests = rng.choice(rng.choice(n, size=5, replace=False), size=n)

        def make(eng):
            return MeshRouter(
                mesh,
                seed=seed,
                node_capacity=cap,
                flow_control="credit",
                engine=eng,
            )

        stats = _sweep(make, np.arange(n), dests)
        assert stats.completed
        assert stats.max_node_load <= cap

    @pytest.mark.parametrize("intermediate", ["coin", "node"])
    @pytest.mark.parametrize("cap", [1, 2])
    def test_leveled_wrap_aliasing(self, intermediate, cap):
        """(pass, level) rank-monotone routes with the wrap identified:
        capacity accounting must see one physical node per alias pair."""
        net = DAryButterflyLeveled(2, 5)
        n = net.column_size
        rng = np.random.default_rng(9)
        dests = rng.integers(4, size=n)

        def make(eng):
            return LeveledRouter(
                net,
                intermediate=intermediate,
                seed=31,
                node_capacity=cap,
                flow_control="credit",
                engine=eng,
            )

        stats = _sweep(make, np.arange(n), dests)
        assert stats.completed
        assert stats.max_node_load <= cap
        assert stats.escape_hops > 0  # tight caps exercise the channel

    def test_combining_with_credits(self):
        """CRCW combining + capacity: escape landings bypass combining,
        pops release combine residency, identically in both engines."""
        rng = np.random.default_rng(17)
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        addresses = rng.integers(5, size=n)
        dests = (addresses * 11) % n
        runs = []
        for eng in ("fast", "reference"):
            router = MeshRouter(
                mesh,
                seed=23,
                node_capacity=2,
                flow_control="credit",
                engine=eng,
            )
            runs.append(
                router.route(
                    range(n), dests, max_steps=20_000, combine_keys=addresses * n + dests
                )
            )
        assert_stats_equal(*runs)
        assert runs[0].completed
        assert runs[0].combines > 0

    def test_staggered_arrivals(self):
        """Packets that enter later — behind delay lines of 3 and 5 hops
        (:func:`conftest.delay_lines`) — meet the credit protocol
        mid-run and must interleave identically."""
        paths, _ = delay_lines(
            [list(range(0, 12)), list(range(0, 12)), list(range(11, -1, -1)), list(range(4, 10))],
            [0, 3, 5, 0],
        )
        fast_engine = FastPathEngine(node_capacity=1, flow_control="credit")
        f = fast_engine.run(paths, num_nodes=20, max_steps=1000)
        assert fast_engine.last_run_mode == "batch-constrained"
        r = SynchronousEngine(node_capacity=1, flow_control="credit").run(
            make_packets([row[0] for row in paths], [row[-1] for row in paths]),
            lambda p: None if p.hops == len(paths[p.pid]) - 1 else paths[p.pid][p.hops + 1],
            max_steps=1000,
        )
        assert_stats_equal(f, r)
        assert f.completed

    def test_emulator_step_costs_match(self):
        """End-to-end: CRCW leveled emulation with credits, constrained
        requests + unconstrained reply fan-out, equal step costs."""
        net = DAryButterflyLeveled(2, 4)
        n = net.column_size
        space = 4 * n
        steps = [
            hotspot_step(n, space, hot_addresses=3, hot_fraction=0.5, seed=41),
            permutation_step(n, space, seed=42),
        ]
        costs = []
        for eng in ("fast", "reference"):
            em = LeveledEmulator(
                net,
                space,
                mode="crcw",
                node_capacity=2,
                flow_control="credit",
                seed=13,
                engine=eng,
            )
            costs.append([em.emulate_step(s) for s in steps])
        for a, b in zip(*costs):
            assert (a.request_steps, a.reply_steps, a.combines, a.max_queue) == (
                b.request_steps,
                b.reply_steps,
                b.combines,
                b.max_queue,
            )
