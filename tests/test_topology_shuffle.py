"""Tests for the d-way shuffle network (§2.3.5, Figure 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import DWayShuffle


def node(s: DWayShuffle, digits) -> int:
    """The node whose label is *digits* (most significant first)."""
    return int("".join(map(str, digits)), s.d)


class TestShuffleStructure:
    def test_counts(self):
        s = DWayShuffle(3, 4)
        assert s.num_nodes == 81
        assert s.diameter == 4

    def test_n_way_constructor(self):
        s = DWayShuffle.n_way(3)
        assert s.d == 3 and s.n == 3
        assert s.num_nodes == 27

    def test_label_roundtrip(self):
        s = DWayShuffle(4, 3)
        for v in range(s.num_nodes):
            assert node(s, s.label(v)) == v

    def test_label_msb_first(self):
        s = DWayShuffle(10, 3)
        assert s.label(123) == (1, 2, 3)

    def test_shuffle_edges_match_definition(self):
        # Node d_n..d_1 -> l d_n..d_2 for every l.
        s = DWayShuffle(3, 3)
        v = node(s, (2, 1, 0))
        expected = {node(s, (l, 2, 1)) for l in range(3)}
        assert set(s.shuffle_neighbors(v)) == expected

    def test_figure4_two_way_shuffle(self):
        # Figure 4: n = 2 (2-way shuffle on 4 nodes).
        s = DWayShuffle.n_way(2)
        assert s.num_nodes == 4
        # 00 -> 00, 10 ; 01 -> 00, 10 ; 10 -> 01, 11 ; 11 -> 01, 11
        assert set(s.shuffle_neighbors(0b00)) == {0b00, 0b10}
        assert set(s.shuffle_neighbors(0b01)) == {0b00, 0b10}
        assert set(s.shuffle_neighbors(0b10)) == {0b01, 0b11}
        assert set(s.shuffle_neighbors(0b11)) == {0b01, 0b11}

    def test_neighbors_bidirectional_closure(self):
        s = DWayShuffle(3, 3)
        for v in range(s.num_nodes):
            for w in s.neighbors(v):
                assert v in s.neighbors(w)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DWayShuffle(1, 3)
        with pytest.raises(ValueError):
            DWayShuffle(3, 0)


class TestShuffleUniquePath:
    def test_unique_path_length_and_endpoint(self):
        s = DWayShuffle(3, 4)
        path = s.unique_path(5, 77)
        assert len(path) == 5
        assert path[0] == 5 and path[-1] == 77
        for a, b in zip(path, path[1:]):
            assert b in s.shuffle_neighbors(a)

    def test_unique_path_is_unique(self):
        # Exactly one n-hop forward walk between every ordered pair.
        s = DWayShuffle(2, 3)
        for src in range(s.num_nodes):
            # count length-3 forward walks ending at each node
            counts = {src: 1}
            for _ in range(3):
                nxt: dict[int, int] = {}
                for node, c in counts.items():
                    for w in s.shuffle_neighbors(node):
                        nxt[w] = nxt.get(w, 0) + c
                counts = nxt
            assert all(c == 1 for c in counts.values())
            assert len(counts) == s.num_nodes

    def test_hop_inserts_at_front(self):
        s = DWayShuffle(3, 3)
        v = node(s, (0, 1, 2))
        assert s.label(s.hop(v, 2)) == (2, 0, 1)

    def test_hop_validates_digit(self):
        s = DWayShuffle(3, 3)
        with pytest.raises(ValueError):
            s.hop(0, 3)

    def test_unique_path_next_range(self):
        s = DWayShuffle(3, 3)
        with pytest.raises(ValueError):
            s.unique_path_next(0, 1, 3)


class TestShuffleDistance:
    def test_self_distance(self):
        s = DWayShuffle(3, 3)
        assert s.distance(13, 13) == 0

    def test_distance_overlap_shortcut(self):
        s = DWayShuffle(2, 4)
        # u = 0b1010; v with low 3 digits = u's high 3 digits (101): one hop.
        u = node(s, (1, 0, 1, 0))
        v = node(s, (1, 1, 0, 1))
        assert s.distance(u, v) == 1

    def test_distance_at_most_n(self):
        s = DWayShuffle(3, 3)
        for u in (0, 13, 26):
            for v in (0, 7, 25):
                assert 0 <= s.distance(u, v) <= 3

    def test_greedy_route_reaches_dest_in_distance_steps(self):
        s = DWayShuffle(3, 4)
        for u, v in [(0, 80), (5, 5), (17, 33), (80, 0)]:
            d = s.distance(u, v)
            cur = u
            for _ in range(d):
                cur = s.route_next(cur, v)
            assert cur == v

    @given(
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_route_next_decreases_distance(self, u, v):
        s = DWayShuffle(3, 4)
        if u == v:
            assert s.route_next(u, v) == u
        else:
            w = s.route_next(u, v)
            assert s.distance(w, v) == s.distance(u, v) - 1
