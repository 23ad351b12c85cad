"""Application conformance: PRAM algorithms vs oracles through the stack.

The tentpole property: every emulated run of a real algorithm —
connected components, partition refinement — must reproduce its
sequential oracle's answer exactly, on every seeded input family, on
both networks, under both engines, sharded or not.  Layers pinned here:

* **inputs** — the seeded graph/LTS families are deterministic, valid,
  and shaped as advertised (degree bounds, disjoint matchings, total
  transition functions);
* **oracles** — union-find components and coarsest-partition refinement
  agree with hand-computed answers on canonical instances;
* **native** — each PRAM program's own verifier passes and its result
  region equals the oracle across a family sweep;
* **emulated** — ``run_app`` reports ``oracle_match`` and
  ``memory_matches`` on every network x engine x shard-count cell, and
  repeated runs under a fixed seed are bit-identical;
* **faults** — a prolonged mesh link-down window stalls but no longer
  kills EREW reply routing (the retry regression), and a permanent
  window still fails loudly as a rehash storm.
"""

import math

import pytest

from repro.analysis.races import classify_program
from repro.apps import (
    APP_PROGRAM_BUILDERS,
    LTS,
    Graph,
    bisimulation,
    bisimulation_oracle,
    bounded_degree_graph,
    build_emulator,
    connected_components,
    connected_components_oracle,
    cycle_lts,
    gnp_graph,
    leveled_for,
    matching_components,
    matching_graph,
    mesh_for,
    path_graph,
    random_lts,
    run_app,
    star_graph,
)
from repro.emulation.mesh import MeshEmulator
from repro.emulation.replay import replay_program
from repro.faults.plan import FaultSchedule, RehashStormError
from repro.pram.programs import ALL_PROGRAM_BUILDERS
from repro.pram.variants import AccessMode
from repro.topology.mesh import Mesh2D


# ---------------------------------------------------------------------------
# input families
# ---------------------------------------------------------------------------


class TestGraphFamilies:
    def test_graph_validates_vertex_range(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 3),))

    def test_graph_requires_ordered_distinct_endpoints(self):
        with pytest.raises(ValueError):
            Graph(3, ((2, 1),))
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),))

    def test_gnp_deterministic_under_seed(self):
        a = gnp_graph(20, 0.3, seed=9)
        b = gnp_graph(20, 0.3, seed=9)
        assert a == b
        assert a != gnp_graph(20, 0.3, seed=10)

    def test_gnp_edges_valid_and_deduplicated(self):
        g = gnp_graph(15, 0.4, seed=3)
        assert len(set(g.edges)) == g.m
        assert all(0 <= u < v < g.n for u, v in g.edges)

    def test_bounded_degree_respects_bound(self):
        g = bounded_degree_graph(24, 3, seed=7)
        deg = [0] * g.n
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
        assert max(deg) <= 3

    def test_star_and_path_shapes(self):
        s = star_graph(6)
        assert sorted(s.edges) == [(0, i) for i in range(1, 6)]
        p = path_graph(5)
        assert sorted(p.edges) == [(i, i + 1) for i in range(4)]

    def test_matching_edges_are_disjoint(self):
        g = matching_graph(14, seed=2)
        seen: set[int] = set()
        for u, v in g.edges:
            assert u not in seen and v not in seen
            seen.update((u, v))
        assert len(seen) == 14

    def test_random_lts_total_and_deterministic(self):
        a = random_lts(10, 3, seed=4)
        b = random_lts(10, 3, seed=4)
        assert a == b
        assert len(a.delta) == 10
        assert all(len(row) == 3 for row in a.delta)
        assert all(0 <= t < 10 for row in a.delta for t in row)

    def test_lts_validates_targets_and_obs(self):
        with pytest.raises(ValueError):
            LTS(2, 1, ((0,), (5,)), (0, 1))
        with pytest.raises(ValueError):
            LTS(2, 1, ((0,), (1,)), (0,))

    def test_cycle_lts_shape(self):
        lts = cycle_lts(6, marked=2)
        assert lts.n_states == 6
        assert [row[0] for row in lts.delta] == [1, 2, 3, 4, 5, 0]
        assert lts.obs == (1, 1, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class TestOracles:
    def test_cc_oracle_star(self):
        assert connected_components_oracle(star_graph(5)) == [0] * 5

    def test_cc_oracle_disjoint_pieces(self):
        g = Graph(6, ((0, 1), (1, 2), (4, 5)))
        assert connected_components_oracle(g) == [0, 0, 0, 3, 4, 4]

    def test_cc_oracle_empty_graph(self):
        assert connected_components_oracle(Graph(4, ())) == [0, 1, 2, 3]

    def test_cc_oracle_path_single_component(self):
        assert connected_components_oracle(path_graph(7)) == [0] * 7

    def test_bisim_oracle_uniform_cycle_collapses(self):
        # every state marked: one block, representative 0 everywhere
        lts = cycle_lts(5, marked=5)
        assert bisimulation_oracle(lts) == [0] * 5

    def test_bisim_oracle_distinguishes_by_distance_to_mark(self):
        # one marked state on a 4-cycle: blocks = distance to the mark,
        # so all four states end up distinguishable
        lts = cycle_lts(4, marked=1)
        part = bisimulation_oracle(lts)
        assert len(set(part)) == 4

    def test_bisim_oracle_labels_are_min_representatives(self):
        lts = random_lts(12, 2, seed=8)
        part = bisimulation_oracle(lts)
        for s, block in enumerate(part):
            assert part[block] == block
            assert block <= s


# ---------------------------------------------------------------------------
# native PRAM runs vs oracle (family sweeps)
# ---------------------------------------------------------------------------

GRAPH_FAMILIES = [
    ("gnp-sparse", lambda seed: gnp_graph(12, 0.12, seed=seed)),
    ("gnp-dense", lambda seed: gnp_graph(10, 0.5, seed=seed)),
    ("bounded-degree", lambda seed: bounded_degree_graph(12, 2, seed=seed)),
    ("star", lambda seed: star_graph(9 + (seed % 3))),
    ("path", lambda seed: path_graph(8 + (seed % 4))),
]

LTS_FAMILIES = [
    ("random", lambda seed: random_lts(8, 2, seed=seed)),
    ("random-3label", lambda seed: random_lts(6, 3, seed=seed)),
    ("cycle", lambda seed: cycle_lts(6, marked=1 + (seed % 5))),
]


class TestNativePrograms:
    @pytest.mark.parametrize("family,make", GRAPH_FAMILIES, ids=[f[0] for f in GRAPH_FAMILIES])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_connected_components_matches_oracle(self, family, make, seed):
        g = make(seed)
        spec = connected_components(g)
        pram = spec.run()
        got = [pram.memory.read(i) for i in range(g.n)]
        assert got == connected_components_oracle(g)

    @pytest.mark.parametrize("family,make", LTS_FAMILIES, ids=[f[0] for f in LTS_FAMILIES])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_bisimulation_matches_oracle(self, family, make, seed):
        lts = make(seed)
        spec = bisimulation(lts)
        pram = spec.run()
        got = [pram.memory.read(i) for i in range(lts.n_states)]
        assert got == bisimulation_oracle(lts)

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_matching_components_matches_oracle(self, seed):
        g = matching_graph(12, seed=seed)
        spec = matching_components(g)
        pram = spec.run()
        got = [pram.memory.read(i) for i in range(g.n)]
        assert got == connected_components_oracle(g)

    def test_matching_components_rejects_nonmatching(self):
        with pytest.raises(ValueError):
            matching_components(path_graph(4))

    def test_registered_builders_present_and_runnable(self):
        for name in ("connected-components", "matching-components", "bisimulation"):
            assert name in APP_PROGRAM_BUILDERS
            assert name in ALL_PROGRAM_BUILDERS
            spec = ALL_PROGRAM_BUILDERS[name]()
            spec.run()  # ProgramSpec.run invokes the spec's own verifier

    @pytest.mark.parametrize(
        "name", ["connected-components", "matching-components", "bisimulation"]
    )
    def test_classification_is_exact(self, name):
        assert classify_program(APP_PROGRAM_BUILDERS[name]()).verdict == "exact"


# ---------------------------------------------------------------------------
# emulated runs (the tentpole matrix)
# ---------------------------------------------------------------------------


def _assert_good(run):
    assert run.oracle_match
    assert run.memory_matches
    assert run.slowdown > 0
    assert run.normalized_slowdown > 0
    assert 0.0 <= run.combining_hit_rate <= 1.0


class TestEmulatedRuns:
    @pytest.mark.parametrize("network", ["leveled", "mesh"])
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_connected_components_emulated(self, network, engine):
        g = gnp_graph(12, 0.25, seed=7)
        run = run_app(
            connected_components(g),
            connected_components_oracle(g),
            network=network,
            engine=engine,
            seed=0,
        )
        _assert_good(run)

    @pytest.mark.parametrize("network", ["leveled", "mesh"])
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_bisimulation_emulated(self, network, engine):
        lts = random_lts(8, 2, seed=11)
        run = run_app(
            bisimulation(lts),
            bisimulation_oracle(lts),
            network=network,
            engine=engine,
            seed=0,
        )
        _assert_good(run)

    @pytest.mark.parametrize("network", ["leveled", "mesh"])
    @pytest.mark.parametrize("emulator_mode", ["erew", "crcw"])
    def test_matching_components_emulated_both_modes(self, network, emulator_mode):
        g = matching_graph(12, seed=5)
        run = run_app(
            matching_components(g),
            connected_components_oracle(g),
            network=network,
            emulator_mode=emulator_mode,
            seed=0,
        )
        _assert_good(run)
        assert run.emulator_mode == emulator_mode

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_connected_components_sharded_leveled(self, n_shards):
        g = gnp_graph(12, 0.25, seed=7)
        run = run_app(
            connected_components(g),
            connected_components_oracle(g),
            network="leveled",
            n_shards=n_shards,
            seed=0,
        )
        _assert_good(run)
        assert run.n_shards == n_shards

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_bisimulation_sharded_mesh(self, n_shards):
        lts = random_lts(8, 2, seed=11)
        run = run_app(
            bisimulation(lts),
            bisimulation_oracle(lts),
            network="mesh",
            n_shards=n_shards,
            seed=0,
        )
        _assert_good(run)

    @pytest.mark.parametrize("network", ["leveled", "mesh"])
    def test_fixed_seed_is_bit_identical(self, network):
        g = gnp_graph(12, 0.25, seed=7)
        oracle = connected_components_oracle(g)
        runs = [
            run_app(connected_components(g), oracle, network=network, seed=42)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_engines_agree_on_slowdown(self):
        g = gnp_graph(12, 0.25, seed=7)
        oracle = connected_components_oracle(g)
        fast = run_app(connected_components(g), oracle, network="mesh", engine="fast", seed=0)
        ref = run_app(
            connected_components(g), oracle, network="mesh", engine="reference", seed=0
        )
        assert fast.slowdown == ref.slowdown
        assert fast.requests == ref.requests
        assert fast.combines == ref.combines

    def test_crcw_apps_actually_combine(self):
        g = star_graph(12)  # all leaves hook onto the center: heavy combining
        run = run_app(
            connected_components(g),
            connected_components_oracle(g),
            network="leveled",
            seed=0,
        )
        _assert_good(run)
        assert run.combines > 0

    def test_slowdown_tracks_network_scale(self):
        g = gnp_graph(12, 0.25, seed=7)
        oracle = connected_components_oracle(g)
        run = run_app(connected_components(g), oracle, network="leveled", seed=0)
        # the paper's O(log n) claim: slowdown within a constant factor
        # of the diameter (generous constant; pinned tight in the bench)
        assert run.slowdown <= 16 * run.scale
        assert run.predicted_log == math.log2(run.n_processors)


# ---------------------------------------------------------------------------
# harness plumbing
# ---------------------------------------------------------------------------


class TestHarness:
    def test_leveled_for_capacity(self):
        for n in (2, 3, 12, 16, 33):
            net = leveled_for(n)
            assert net.column_size >= max(2, n)

    def test_mesh_for_capacity(self):
        for n in (1, 2, 5, 12, 16, 17):
            mesh = mesh_for(n)
            assert mesh.num_nodes >= max(2, n)

    def test_build_emulator_rejects_unknown_network(self):
        with pytest.raises(ValueError):
            build_emulator("hypercube", 4, 64)

    def test_build_emulator_rejects_sharded_faults(self):
        with pytest.raises(ValueError):
            build_emulator("mesh", 4, 64, n_shards=2, faults=FaultSchedule())

    def test_run_app_defaults_mode_from_spec(self):
        g = matching_graph(8, seed=1)
        run = run_app(
            matching_components(g), connected_components_oracle(g), network="leveled"
        )
        assert run.emulator_mode == "erew"
        spec = connected_components(g)
        assert spec.mode is AccessMode.CRCW


# ---------------------------------------------------------------------------
# fault regression: prolonged link-down window on EREW mesh replies
# ---------------------------------------------------------------------------


def _node_links_down(mesh, node, start, stop=None):
    """Down every directed link touching *node* at *start* (up at *stop*)."""
    sched = FaultSchedule()
    for w in mesh.neighbors(node):
        for link in ((node, w), (w, node)):
            sched = sched.link_down(start, link)
            if stop is not None:
                sched = sched.link_up(stop, link)
    return sched


class TestMeshReplyRetry:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_recoverable_window_completes(self, engine):
        g = matching_graph(12, seed=5)
        spec = matching_components(g)
        mesh = Mesh2D.square(4)
        # the window opens mid-run and outlasts one full routing budget,
        # so the first reply attempt must fail and a retry must land
        sched = _node_links_down(mesh, 0, start=4, stop=4 + 6500)
        emulator = MeshEmulator(
            mesh, spec.memory_size, mode="erew", seed=123, engine=engine, faults=sched
        )
        result = replay_program(spec, emulator)
        assert result.memory_matches
        got = [emulator.memory.read(i) for i in range(g.n)]
        assert got == connected_components_oracle(g)
        report = result.report
        assert sum(c.stall_steps for c in report.costs) >= 6000  # >= one exhausted budget
        assert any(c.fault_stalls > 0 for c in report.costs)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_recoverable_window_engine_identical(self, engine):
        # pin the exact accounting so fast and reference can never drift
        g = matching_graph(12, seed=5)
        spec = matching_components(g)
        mesh = Mesh2D.square(4)
        sched = _node_links_down(mesh, 0, start=4, stop=4 + 6500)
        emulator = MeshEmulator(
            mesh, spec.memory_size, mode="erew", seed=123, engine=engine, faults=sched
        )
        report = replay_program(spec, emulator).report
        stalled = [c for c in report.costs if c.stall_steps]
        assert len(stalled) == 1
        assert stalled[0].stall_steps == 6000
        assert stalled[0].fault_stalls == 19494
        assert stalled[0].reply_steps == 503

    def test_permanent_window_raises_rehash_storm(self):
        g = matching_graph(12, seed=5)
        spec = matching_components(g)
        mesh = Mesh2D.square(4)
        sched = _node_links_down(mesh, 0, start=4)  # never comes back up
        emulator = MeshEmulator(
            mesh, spec.memory_size, mode="erew", seed=123, engine="fast", faults=sched
        )
        with pytest.raises(RehashStormError):
            replay_program(spec, emulator)

    def test_fast_engine_blocks_duplicate_coded_links(self):
        # mesh corner links carry duplicated arithmetic codes; a down
        # wire must block every slot that crosses it (regression: the
        # fast path used to keep only one slot per code and let packets
        # sail through the other)
        from repro.routing.mesh_router import MeshRouter
        from repro.faults.runtime import LinkFaultTimeline

        mesh = Mesh2D.square(4)
        timeline = LinkFaultTimeline(_node_links_down(mesh, 0, start=0).link_events)
        stats = {}
        for engine in ("fast", "reference"):
            router = MeshRouter(mesh, seed=1, engine=engine, link_faults=timeline)
            stats[engine] = router.route([7, 5], [0, 3], max_steps=50)
        assert not stats["fast"].completed
        assert not stats["reference"].completed
        assert stats["fast"].steps == stats["reference"].steps
        assert stats["fast"].fault_stalls == stats["reference"].fault_stalls
