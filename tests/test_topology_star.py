"""Tests for the n-star graph (Definitions 2.4-2.6, §2.3.4)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import StarGraph
from repro.topology.star import (
    greedy_move_to_identity,
    perm_rank,
    perm_unrank,
    star_distance_to_identity,
    swap_j,
)


class TestPermCodec:
    def test_rank_unrank_roundtrip_n4(self):
        for r in range(math.factorial(4)):
            assert perm_rank(perm_unrank(r, 4)) == r

    def test_rank_identity_is_zero(self):
        assert perm_rank((0, 1, 2, 3, 4)) == 0

    def test_rank_reverse_is_max(self):
        assert perm_rank((4, 3, 2, 1, 0)) == math.factorial(5) - 1

    def test_unrank_out_of_range(self):
        with pytest.raises(ValueError):
            perm_unrank(math.factorial(4), 4)

    @given(st.permutations(list(range(6))))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, perm):
        perm = tuple(perm)
        assert perm_unrank(perm_rank(perm), 6) == perm


class TestSwap:
    def test_swap_matches_definition(self):
        # SWAP_2 of (a b c d) = (c b a d)
        assert swap_j((0, 1, 2, 3), 2) == (2, 1, 0, 3)

    def test_swap_is_involution(self):
        p = (3, 1, 0, 2)
        for j in range(1, 4):
            assert swap_j(swap_j(p, j), j) == p

    def test_swap_bad_index(self):
        with pytest.raises(ValueError):
            swap_j((0, 1, 2), 0)
        with pytest.raises(ValueError):
            swap_j((0, 1, 2), 3)


class TestStarStructure:
    def test_counts(self):
        s = StarGraph(4)
        assert s.num_nodes == 24
        assert s.degree == 3
        assert s.diameter == 4  # floor(3*(4-1)/2)

    def test_diameter_formula_matches_bfs(self):
        for n in (3, 4, 5):
            s = StarGraph(n)
            assert s.bfs_eccentricity(0) == s.diameter

    def test_vertex_degree(self):
        s = StarGraph(5)
        for v in (0, 17, 100):
            nbrs = s.neighbors(v)
            assert len(nbrs) == 4
            assert len(set(nbrs)) == 4
            assert v not in nbrs

    def test_adjacency_symmetric(self):
        s = StarGraph(4)
        for v in range(s.num_nodes):
            for w in s.neighbors(v):
                assert v in s.neighbors(w)

    def test_three_star_is_six_cycle(self):
        # Figure 2(a): the 3-star is a 6-cycle.
        s = StarGraph(3)
        assert s.num_nodes == 6
        assert all(len(s.neighbors(v)) == 2 for v in range(6))
        assert s.bfs_eccentricity(0) == 3

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            StarGraph(1)


class TestStarDistance:
    def test_distance_formula_identity(self):
        assert star_distance_to_identity((0, 1, 2, 3)) == 0

    def test_distance_formula_front_cycle(self):
        # (1 0 2 3): one 2-cycle involving position 0: m=2,k=1 -> 2+1-2=1
        assert star_distance_to_identity((1, 0, 2, 3)) == 1

    def test_distance_formula_disjoint_cycle(self):
        # (0 2 1 3): 2-cycle not involving position 0: m=2,k=1 -> 3
        assert star_distance_to_identity((0, 2, 1, 3)) == 3

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_formula_matches_bfs_from_identity(self, n):
        s = StarGraph(n)
        for v in range(1, s.num_nodes):
            perm = perm_unrank(v, n)
            bfs = s.bfs_distance(0, v)
            assert star_distance_to_identity(perm) == bfs
            assert s.distance(v, 0) == bfs
        assert s.distance(0, 0) == 0

    def test_distance_symmetric_pairs(self):
        s = StarGraph(4)
        for u, v in [(0, 5), (3, 17), (10, 23), (7, 7)]:
            assert s.distance(u, v) == s.distance(v, u)
            if u != v:
                assert s.distance(u, v) == s.bfs_distance(u, v)

    def test_distance_bounded_by_diameter(self):
        s = StarGraph(5)
        rngpairs = [(0, 100), (17, 83), (54, 54), (119, 1)]
        for u, v in rngpairs:
            assert 0 <= s.distance(u, v) <= s.diameter


class TestStarRouting:
    def test_greedy_move_identity_returns_zero(self):
        assert greedy_move_to_identity((0, 1, 2)) == 0

    def test_route_next_fixed_point(self):
        s = StarGraph(4)
        assert s.route_next(7, 7) == 7

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_greedy_path_is_minimal(self, n):
        s = StarGraph(n)
        pairs = [(0, s.num_nodes - 1), (1, s.num_nodes // 2), (5 % s.num_nodes, 0)]
        for u, v in pairs:
            path = s.greedy_path(u, v)
            assert path[0] == u and path[-1] == v
            assert len(path) - 1 == s.distance(u, v)
            # consecutive nodes adjacent
            for a, b in zip(path, path[1:]):
                assert b in s.neighbors(a)

    @given(st.integers(min_value=0, max_value=119), st.integers(min_value=0, max_value=119))
    @settings(max_examples=60, deadline=None)
    def test_greedy_path_minimal_property(self, u, v):
        s = StarGraph(5)
        path = s.greedy_path(u, v)
        assert len(path) - 1 == s.distance(u, v)
