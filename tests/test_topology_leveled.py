"""Tests for the leveled-network abstraction (§2.3.1, Figures 1, 3, 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    DAryButterflyLeveled,
    RouteStalledError,
    ShuffleLeveled,
    StarLogicalLeveled,
)
from repro.topology.star import perm_unrank


def _count_paths(net, src: int, dst: int) -> int:
    """Number of layered paths from column-0 src to last-column dst."""
    counts = {src: 1}
    for level in range(net.num_levels):
        nxt: dict[int, int] = {}
        for node, c in counts.items():
            for w in net.out_neighbors(level, node):
                nxt[w] = nxt.get(w, 0) + c
        counts = nxt
    return counts.get(dst, 0)


class TestDAryButterfly:
    def test_dimensions(self):
        net = DAryButterflyLeveled(3, 2)
        assert net.column_size == 9
        assert net.num_levels == 2
        assert net.num_columns == 3
        assert net.degree == 3

    def test_out_neighbors_rewrite_one_digit(self):
        net = DAryButterflyLeveled(3, 2)
        # level 0 rewrites the least significant digit
        assert sorted(net.out_neighbors(0, 4)) == [3, 4, 5]
        # level 1 rewrites the next digit
        assert sorted(net.out_neighbors(1, 4)) == [1, 4, 7]

    def test_unique_path_reaches_destination(self):
        net = DAryButterflyLeveled(4, 3)
        for src, dst in [(0, 63), (17, 17), (5, 40)]:
            path = net.unique_path(src, dst)
            assert len(path) == net.num_columns
            assert path[-1] == dst
            for level, (a, b) in enumerate(zip(path, path[1:])):
                assert b in net.out_neighbors(level, a)

    def test_paths_are_graph_theoretically_unique(self):
        net = DAryButterflyLeveled(2, 3)
        for src in range(net.column_size):
            for dst in range(net.column_size):
                assert _count_paths(net, src, dst) == 1

    def test_validates_ranges(self):
        net = DAryButterflyLeveled(2, 2)
        with pytest.raises(ValueError):
            net.out_neighbors(2, 0)
        with pytest.raises(ValueError):
            DAryButterflyLeveled(1, 2)
        with pytest.raises(ValueError):
            DAryButterflyLeveled(2, 0)

    def test_binary_out_neighbors_flip_one_bit(self):
        net = DAryButterflyLeveled(2, 3)
        # the binary butterfly: edge layer l goes straight or flips bit l
        assert sorted(net.out_neighbors(1, 0b000)) == [0b000, 0b010]
        assert sorted(net.out_neighbors(2, 0b101)) == [0b001, 0b101]

    def test_last_column_has_no_out_links(self):
        net = DAryButterflyLeveled(2, 3)
        for level in (-1, net.num_levels):
            with pytest.raises(ValueError):
                net.validate_level(level)
            with pytest.raises(ValueError):
                net.out_neighbors(level, 0)

    @given(st.integers(0, 26), st.integers(0, 26))
    @settings(max_examples=40, deadline=None)
    def test_unique_path_property(self, src, dst):
        net = DAryButterflyLeveled(3, 3)
        assert net.unique_path(src, dst)[-1] == dst


class TestShuffleLeveled:
    def test_dimensions(self):
        net = ShuffleLeveled(3, 3)
        assert net.column_size == 27
        assert net.num_levels == 3
        assert net.degree == 3

    def test_n_way(self):
        net = ShuffleLeveled.n_way(3)
        assert net.column_size == 27

    def test_unique_paths(self):
        net = ShuffleLeveled(2, 3)
        for src in range(net.column_size):
            for dst in range(net.column_size):
                assert _count_paths(net, src, dst) == 1
                assert net.unique_path(src, dst)[-1] == dst

    def test_out_neighbors_are_shuffle_moves(self):
        net = ShuffleLeveled(3, 3)
        v = 2 * 9 + 1 * 3 + 0  # label (2, 1, 0)
        expected = {l * 9 + 2 * 3 + 1 for l in range(3)}  # labels (l, 2, 1)
        for level in range(3):
            assert set(net.out_neighbors(level, v)) == expected


class TestStarLogical:
    def test_dimensions(self):
        net = StarLogicalLeveled(4)
        assert net.column_size == 24
        assert net.num_levels == 6  # 2*(n-1)
        assert net.degree == 4  # n-1 swaps + self link

    def test_out_neighbors_include_self(self):
        net = StarLogicalLeveled(4)
        for level in (0, 3, 5):
            nbrs = net.out_neighbors(level, 7)
            assert 7 in nbrs
            assert len(nbrs) == 4

    def test_canonical_path_reaches_destination(self):
        net = StarLogicalLeveled(4)
        for src in range(net.column_size):
            for dst in (0, 5, 23):
                path = net.unique_path(src, dst)
                assert path[-1] == dst
                for level, (a, b) in enumerate(zip(path, path[1:])):
                    assert b in net.out_neighbors(level, a)

    def test_canonical_path_fixes_positions_in_stage_order(self):
        net = StarLogicalLeveled(5)
        star = net.star
        src, dst = 13, 99
        path = net.unique_path(src, dst)
        dst_perm = star.label(dst)
        # After stage i (level 2(i+1)), positions n-1..n-1-i match dest.
        for stage in range(net.n - 1):
            node = path[2 * (stage + 1)]
            perm = star.label(node)
            for pos in range(net.n - 1 - stage, net.n):
                assert perm[pos] == dst_perm[pos]

    def test_physical_moves_are_star_edges_or_self(self):
        net = StarLogicalLeveled(4)
        path = net.unique_path(3, 20)
        for a, b in zip(path, path[1:]):
            assert a == b or b in net.star.neighbors(a)

    def test_flagged_as_canonical_not_unique(self):
        assert StarLogicalLeveled(4).has_unique_paths is False
        assert DAryButterflyLeveled(2, 2).has_unique_paths is True

    @given(st.integers(0, 119), st.integers(0, 119))
    @settings(max_examples=50, deadline=None)
    def test_canonical_path_property(self, src, dst):
        net = StarLogicalLeveled(5)
        path = net.unique_path(src, dst)
        assert path[-1] == dst
        assert len(path) == net.num_columns

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_unique_next_batch_matches_scalar(self, n):
        """The table-based batch form is the scalar path, level for level.

        Walks random (row, dest) pairs through every level with both the
        scalar ``unique_next`` and the vectorized ``unique_next_batch``
        (advancing along the batch results, so later levels exercise the
        staged-front invariant too) and requires identical hops — ending
        at the destinations.
        """
        net = StarLogicalLeveled(n)
        rng = np.random.default_rng(7 * n)
        N = net.column_size
        rows = rng.integers(N, size=120)
        dests = rng.integers(N, size=120)
        cur = rows.copy()
        for level in range(net.num_levels):
            scalar = np.array(
                [
                    net.unique_next(level, int(r), int(d))
                    for r, d in zip(cur, dests)
                ]
            )
            batch = net.unique_next_batch(level, cur, dests)
            assert np.array_equal(scalar, batch), f"level {level}"
            cur = batch
        assert np.array_equal(cur, dests)

    def test_unique_next_batch_handles_identical_pairs(self):
        """Hotspot shape: many packets sharing one (row, dest) pair."""
        net = StarLogicalLeveled(4)
        rows = np.full(50, 17, dtype=np.int64)
        dests = np.full(50, 3, dtype=np.int64)
        batch = net.unique_next_batch(0, rows, dests)
        expected = net.unique_next(0, 17, 3)
        assert np.array_equal(batch, np.full(50, expected))


FAMILIES = {
    "butterfly": lambda: DAryButterflyLeveled(2, 3),
    "shuffle": lambda: ShuffleLeveled(3, 2),
    "star": lambda: StarLogicalLeveled(4),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_out_neighbor_table_matches_out_neighbors(family):
    """Row r of the dense table lists out_neighbors(level, r) in order,
    so a coin c picks the same bridge in the compiled and scalar forms."""
    net = FAMILIES[family]()
    for level in range(net.num_levels):
        table = net.out_neighbor_table(level)
        assert table.shape == (net.column_size, net.degree)
        for row in range(net.column_size):
            assert table[row].tolist() == list(net.out_neighbors(level, row))


@pytest.mark.parametrize("family", ["butterfly", "shuffle"])
def test_unique_next_batch_matches_scalar(family):
    """Every (row, dest) pair, level by level: the vectorized hop is the
    scalar hop, and the walk ends on the destinations."""
    net = FAMILIES[family]()
    n = net.column_size
    cur = np.repeat(np.arange(n), n)
    dests = np.tile(np.arange(n), n)
    for level in range(net.num_levels):
        scalar = [net.unique_next(level, int(r), int(d)) for r, d in zip(cur, dests)]
        batch = net.unique_next_batch(level, cur, dests)
        assert batch.tolist() == scalar, f"level {level}"
        cur = batch
    assert np.array_equal(cur, dests)


def test_unique_path_ending_on_the_wrong_row_is_a_route_stall():
    """A canonical path that ends anywhere but its destination raises
    the typed ``RouteStalledError`` (the row it ended on, the row it
    was headed for), like the compiled builder, not a bare
    ``RuntimeError``."""

    class Stuck(DAryButterflyLeveled):
        def unique_next(self, level, node, dest):
            return node  # never leaves its row

    with pytest.raises(RouteStalledError) as err:
        Stuck(2, 2).unique_path(0, 3)
    assert (err.value.node, err.value.dest) == (0, 3)


def _unstaged_star_pair(net):
    """A (node, dest) pair that reaches the star's level 1 without its
    symbol staged at the front: only a broken level 0 could hand it on."""
    n = net.n
    for node in range(net.column_size):
        for dest in range(net.column_size):
            sym = perm_unrank(dest, n)[n - 1]
            cur = perm_unrank(node, n)
            if cur[n - 1] != sym and cur[0] != sym:
                return node, dest
    raise AssertionError("no unstaged pair")


def test_star_canonical_step_off_its_invariant_is_a_route_stall():
    """``StarLogicalLeveled.unique_next`` on a node whose symbol is not
    staged raises the typed ``RouteStalledError`` (where it was, where
    it was headed), not a bare ``RuntimeError``."""
    net = StarLogicalLeveled(4)
    node, dest = _unstaged_star_pair(net)
    with pytest.raises(RouteStalledError) as err:
        net.unique_next(1, node, dest)
    assert (err.value.node, err.value.dest, err.value.packet) == (node, dest, None)


def test_star_canonical_batch_off_its_invariant_names_the_first_bad_row():
    """The batch form raises the same type and names the first offending
    row of its input as ``packet``."""
    net = StarLogicalLeveled(4)
    node, dest = _unstaged_star_pair(net)
    # rows 0-2 are settled (already at their destination), row 3 is not
    rows = np.asarray([5, 6, 7, node, node], dtype=np.int64)
    dests = np.asarray([5, 6, 7, dest, dest], dtype=np.int64)
    with pytest.raises(RouteStalledError) as err:
        net.unique_next_batch(1, rows, dests)
    assert (err.value.node, err.value.dest, err.value.packet) == (node, dest, 3)


# ---- closed-form butterfly passes ------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("levels", [1, 2, 3, 5])
@pytest.mark.parametrize("intermediate", ["coin", "node"])
def test_closed_form_butterfly_passes_equal_the_level_loop(
    monkeypatch, d, levels, intermediate
):
    """``DAryButterflyLeveled.pass_rows`` rewrites digits 0..l in one
    broadcast per pass; ``build_paths`` must compile exactly what the
    per-level loop (every other family's, the base class's ``None``)
    compiles, in both intermediate modes."""
    from repro.topology.compiled import CompiledLeveledTopology
    from repro.topology.leveled import LeveledNetwork

    net = DAryButterflyLeveled(d, levels)
    rng = np.random.default_rng(d * 10 + levels)
    n = 3 * net.column_size
    sources = rng.integers(0, net.column_size, n)
    dests = rng.integers(0, net.column_size, n)
    if intermediate == "coin":
        draw = dict(coins=rng.integers(0, d, (n, levels)))
    else:
        draw = dict(inters=rng.integers(0, net.column_size, n))
    closed = CompiledLeveledTopology(net).build_paths(sources, dests, **draw)
    monkeypatch.setattr(DAryButterflyLeveled, "pass_rows", LeveledNetwork.pass_rows)
    looped = CompiledLeveledTopology(net).build_paths(sources, dests, **draw)
    assert closed.shape == (n, 2 * levels + 1)
    assert np.array_equal(closed, looped)
    # every hop is an edge of the network
    N = net.column_size
    for row in closed[:5]:
        for level in range(2 * levels):
            here, there = row[level] % N, row[level + 1] % N
            assert there in net.out_neighbors(level % levels, here)


@pytest.mark.parametrize("bad", [-1, 8])
def test_closed_form_butterfly_pass_off_the_network_is_a_route_stall(bad):
    """A destination outside the column cannot be reached by rewriting
    digits: the closed form keeps the builder's typed stall check."""
    from repro.topology.compiled import CompiledLeveledTopology

    net = DAryButterflyLeveled(2, 3)
    with pytest.raises(RouteStalledError) as err:
        CompiledLeveledTopology(net).build_paths(
            [0, 1], [2, bad], coins=np.zeros((2, 3), dtype=np.int64)
        )
    assert err.value.dest == bad and err.value.packet == 1
