"""The star's closed-form tables against the scalar reference.

``lexicographic_perms`` / ``perm_keys`` / ``perm_rank_batch``
(``repro.topology.star``) build in a few numpy calls what
``perm_unrank`` / ``perm_rank`` / ``StarGraph.neighbors`` compute one
node at a time, and ``StarLogicalLeveled``'s tables and
``adversarial_star_permutation`` are built from them.  Exhaustive for
n <= 7; structural plus sampled at n = 8.
"""

import math

import numpy as np
import pytest

from repro.routing import adversarial_star_permutation
from repro.topology import StarGraph, StarLogicalLeveled
from repro.topology.star import (
    lexicographic_perms,
    perm_keys,
    perm_rank,
    perm_rank_batch,
    perm_unrank,
)


@pytest.mark.parametrize("n", range(2, 8))
def test_star_tables_equal_the_scalar_functions(n):
    net = StarLogicalLeveled(n)
    N = math.factorial(n)
    perm, pos = net._symbol_tables()
    nbr = net.out_neighbor_table(0)
    for table in (perm, pos, nbr):
        assert table.dtype == np.int64 and table.flags.c_contiguous
        assert table.shape == (N, n)
    assert perm.tolist() == [list(perm_unrank(r, n)) for r in range(N)]
    # pos is perm's inverse, row by row
    assert (np.take_along_axis(pos, perm, axis=1) == np.arange(n)).all()
    assert (np.take_along_axis(perm, pos, axis=1) == np.arange(n)).all()
    assert nbr[:, 0].tolist() == list(range(N))  # the self link
    assert nbr[:, 1:].tolist() == [net.star.neighbors(v) for v in range(N)]
    assert perm_rank_batch(perm, perm_keys(perm)).tolist() == list(range(N))
    assert all(net.out_neighbor_table(level) is nbr for level in range(net.num_levels))


def test_star_tables_at_n8_are_involutions_and_match_sampled_rows():
    n, N = 8, math.factorial(8)
    net = StarLogicalLeveled(n)
    perm, _ = net._symbol_tables()
    nbr = net.out_neighbor_table(0)
    ids = np.arange(N)
    for j in range(1, n):
        col = nbr[:, j]
        assert (np.sort(col) == ids).all()  # a permutation of the nodes ...
        assert (col[col] == ids).all()  # ... that SWAP_j twice undoes
    assert (perm_rank_batch(perm, perm_keys(perm)) == ids).all()
    for v in np.random.default_rng(8).integers(0, N, 64).tolist():
        assert tuple(perm[v].tolist()) == perm_unrank(v, n)
        assert perm_rank(perm[v].tolist()) == v
        assert nbr[v, 1:].tolist() == net.star.neighbors(v)


def test_keys_ascend_with_rank_and_rank_any_batch():
    table = lexicographic_perms(6)
    keys = perm_keys(table)
    assert (np.diff(keys) > 0).all()
    rng = np.random.default_rng(3)
    rows = rng.permuted(np.tile(np.arange(6), (50, 1)), axis=1)
    assert perm_rank_batch(rows, keys).tolist() == [perm_rank(r) for r in rows.tolist()]
    assert lexicographic_perms(1).tolist() == [[0]]


@pytest.mark.parametrize("n", range(3, 7))
def test_adversarial_permutation_equals_the_per_node_loop(n):
    star = StarGraph(n)
    loop = np.empty(star.num_nodes, dtype=np.int64)
    for v in range(star.num_nodes):
        loop[v] = perm_rank(tuple(reversed(star.label(v))))
    out = adversarial_star_permutation(star)
    assert out.dtype == np.int64 and out.tolist() == loop.tolist()
