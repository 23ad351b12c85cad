"""Tests for hypercube, mesh, and linear array topologies,
and the lifetime of the compiled tables a topology caches on itself."""

import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import LeveledRouter, MeshRouter
from repro.topology import (
    Hypercube,
    LinearArray,
    Mesh2D,
    RouteStalledError,
    StarLogicalLeveled,
    Topology,
    compile_leveled,
    compile_mesh,
)


class _Ring(Topology):
    """A 6-node ring whose greedy next hop is the test's *step*, so
    ``Topology.distance`` walks it (the ring keeps the default)."""

    def __init__(self, step) -> None:
        self._step = step

    num_nodes = property(lambda self: 6)
    diameter = property(lambda self: 3)

    def neighbors(self, v):
        return [(v - 1) % 6, (v + 1) % 6]

    def route_next(self, cur, dest):
        return self._step(cur, dest)


class TestDistanceWalkFailures:
    """A greedy walk that cannot reach its target raises the typed
    ``RouteStalledError`` — as ``greedy_path`` does — not a bare
    ``RuntimeError``."""

    def test_a_walk_that_stops_advancing(self):
        with pytest.raises(RouteStalledError) as err:
            _Ring(lambda cur, dest: cur).distance(0, 3)
        assert (err.value.node, err.value.dest, err.value.packet) == (0, 3, None)

    def test_a_walk_past_any_possible_path_length(self):
        # bounces between 0 and 1 forever: always moving, never arriving
        with pytest.raises(RouteStalledError) as err:
            _Ring(lambda cur, dest: 1 - cur).distance(0, 3)
        assert err.value.node in (0, 1) and err.value.dest == 3

    def test_a_sound_walk_still_counts_its_hops(self):
        assert _Ring(lambda cur, dest: (cur + 1) % 6).distance(1, 4) == 3


class TestHypercube:
    def test_counts(self):
        h = Hypercube(4)
        assert h.num_nodes == 16
        assert h.diameter == 4

    def test_neighbors_are_bit_flips(self):
        h = Hypercube(3)
        assert set(h.neighbors(0b000)) == {0b001, 0b010, 0b100}

    def test_distance_is_hamming(self):
        h = Hypercube(5)
        assert h.distance(0b10101, 0b01010) == 5
        assert h.distance(7, 7) == 0

    def test_ecube_route_fixes_lowest_bit_first(self):
        h = Hypercube(4)
        assert h.route_next(0b0000, 0b1010) == 0b0010

    def test_greedy_path_length_equals_distance(self):
        h = Hypercube(4)
        for u, v in [(0, 15), (3, 12), (9, 9)]:
            assert len(h.greedy_path(u, v)) - 1 == h.distance(u, v)

    def test_diameter_matches_bfs(self):
        h = Hypercube(4)
        assert h.bfs_eccentricity(0) == 4


class TestMesh:
    def test_counts(self):
        m = Mesh2D.square(5)
        assert m.num_nodes == 25
        assert m.diameter == 8

    def test_rect(self):
        m = Mesh2D(2, 7)
        assert m.num_nodes == 14
        assert m.diameter == 7

    def test_pack_unpack(self):
        m = Mesh2D(3, 4)
        assert m.unpack(m.pack(2, 3)) == (2, 3)
        with pytest.raises(ValueError):
            m.pack(3, 0)

    def test_corner_and_center_degree(self):
        m = Mesh2D.square(4)
        assert len(m.neighbors(m.pack(0, 0))) == 2
        assert len(m.neighbors(m.pack(1, 1))) == 4
        assert len(m.neighbors(m.pack(0, 1))) == 3

    def test_distance_manhattan(self):
        m = Mesh2D.square(6)
        assert m.distance(m.pack(0, 0), m.pack(5, 5)) == 10

    def test_route_next_column_first(self):
        m = Mesh2D.square(4)
        cur = m.pack(0, 0)
        dest = m.pack(3, 3)
        assert m.unpack(m.route_next(cur, dest)) == (0, 1)

    def test_greedy_path_is_shortest(self):
        m = Mesh2D.square(5)
        for u, v in [(0, 24), (7, 13), (20, 4)]:
            assert len(m.greedy_path(u, v)) - 1 == m.distance(u, v)

    def test_slices_partition_rows(self):
        m = Mesh2D.square(8)
        rows = []
        for s in range(4):
            rows.extend(m.slice_row_range(s, 2))
        assert rows == list(range(8))

    def test_slice_validation(self):
        m = Mesh2D.square(4)
        with pytest.raises(ValueError):
            m.slice_row_range(9, 2)

    @given(st.integers(0, 35), st.integers(0, 35))
    @settings(max_examples=40, deadline=None)
    def test_route_decreases_distance(self, u, v):
        m = Mesh2D.square(6)
        if u == v:
            assert m.route_next(u, v) == u
        else:
            assert m.distance(m.route_next(u, v), v) == m.distance(u, v) - 1


class TestLinearArray:
    def test_basic(self):
        a = LinearArray(10)
        assert a.num_nodes == 10
        assert a.diameter == 9
        assert a.neighbors(0) == [1]
        assert a.neighbors(9) == [8]
        assert set(a.neighbors(5)) == {4, 6}

    def test_route(self):
        a = LinearArray(8)
        assert a.route_next(2, 6) == 3
        assert a.route_next(6, 2) == 5
        assert a.route_next(4, 4) == 4

    def test_distance(self):
        a = LinearArray(8)
        assert a.distance(1, 7) == 6


class TestCompiledTopologyLifetime:
    """A topology caches its compiled tables on itself; the tables must
    not point back strongly, or every finished topology is cyclic
    garbage that only a collector pass frees — and a front end that
    allocates no per-request objects almost never triggers one."""

    @staticmethod
    def _leveled():
        net = StarLogicalLeveled(4)
        compiled = compile_leveled(net)
        router = LeveledRouter(net, seed=1, engine="fast")
        return net, compiled, router, net.column_size

    @staticmethod
    def _mesh():
        mesh = Mesh2D.square(6)
        compiled = compile_mesh(mesh)
        router = MeshRouter(mesh, seed=1, engine="fast")
        return mesh, compiled, router, mesh.num_nodes

    @pytest.mark.parametrize("build", ["_leveled", "_mesh"])
    def test_a_routed_compiled_topology_dies_with_its_last_reference(self, build):
        gc.collect()
        gc.disable()
        try:
            topo, compiled, router, n = getattr(self, build)()
            stats = router.route(np.arange(n), np.arange(n)[::-1].copy())
            assert stats.completed and stats.run_mode == "batch"
            kinds = (type(topo), type(compiled))
            alive = weakref.ref(topo)
            del topo, compiled, router, stats
            assert alive() is None
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            assert not [o for o in gc.garbage if isinstance(o, kinds)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

    def test_a_pickled_net_brings_its_tables_and_no_second_net(self):
        net = StarLogicalLeveled(4)
        table = compile_leveled(net).out_table(0)
        clone = pickle.loads(pickle.dumps(net))
        compiled = compile_leveled(clone)
        assert compiled.net is clone and compiled.net is not net
        assert np.array_equal(compiled.out_table(0), table)
        alive = weakref.ref(clone)
        del clone
        assert alive() is None and compiled.net is None
