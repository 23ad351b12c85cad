"""Tests for repro.util: rng plumbing, primes, probability bounds, tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import (
    Table,
    as_generator,
    binomial_tail,
    chernoff_upper,
    hoeffding_poisson_tail,
    is_prime,
    next_prime,
    spawn_generators,
)
from repro.util.primes import primes_below
from repro.util.rng import random_h_relation, random_partial_permutation
from repro.util.stats import linear_fit, poisson_tail


class TestRng:
    def test_as_generator_from_int_is_reproducible(self):
        a = as_generator(42).integers(0, 1000, size=10)
        b = as_generator(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_as_generator_passthrough(self):
        g = as_generator(1)
        assert as_generator(g) is g

    def test_spawn_generators_are_independent_and_reproducible(self):
        gens1 = spawn_generators(7, 3)
        gens2 = spawn_generators(7, 3)
        draws1 = [g.integers(0, 10**9) for g in gens1]
        draws2 = [g.integers(0, 10**9) for g in gens2]
        assert draws1 == draws2
        assert len(set(draws1)) == 3  # overwhelmingly likely distinct

    def test_partial_permutation_distinctness(self):
        s, d = random_partial_permutation(as_generator(3), 20, 12)
        assert len(set(s.tolist())) == 12
        assert len(set(d.tolist())) == 12

    def test_partial_permutation_bounds(self):
        with pytest.raises(ValueError):
            random_partial_permutation(as_generator(0), 5, 6)

    def test_h_relation_respects_h(self):
        s, d = random_h_relation(as_generator(1), 30, 3)
        assert len(s) == len(d) == 90
        src_counts = np.bincount(s, minlength=30)
        dst_counts = np.bincount(d, minlength=30)
        assert src_counts.max() <= 3
        assert dst_counts.max() <= 3

    def test_h_relation_rejects_bad_h(self):
        with pytest.raises(ValueError):
            random_h_relation(as_generator(0), 10, 0)


class TestPrimes:
    def test_small_values(self):
        assert not is_prime(0) and not is_prime(1)
        assert is_prime(2) and is_prime(3) and not is_prime(4)

    def test_against_sieve(self):
        sieve = set(primes_below(2000))
        for n in range(2000):
            assert is_prime(n) == (n in sieve), n

    def test_large_known_primes(self):
        assert is_prime(2**31 - 1)  # Mersenne prime
        assert not is_prime(2**32 + 1)  # 641 * 6700417
        assert is_prime(1_000_000_007)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
            assert not is_prime(n), n

    def test_next_prime(self):
        assert next_prime(0) == 2
        assert next_prime(2) == 2
        assert next_prime(14) == 17
        assert next_prime(1_000_000) == 1_000_003

    @given(st.integers(min_value=2, max_value=10**7))
    @settings(max_examples=30, deadline=None)
    def test_next_prime_is_prime_and_geq(self, n):
        p = next_prime(n)
        assert p >= n
        assert is_prime(p)


class TestStats:
    def test_binomial_tail_edges(self):
        assert binomial_tail(0, 10, 0.5) == 1.0
        assert binomial_tail(11, 10, 0.5) == 0.0
        assert binomial_tail(5, 10, 0.0) == 0.0
        assert binomial_tail(5, 10, 1.0) == 1.0

    def test_binomial_tail_symmetric_median(self):
        # P(X >= 5) for Bin(10, 0.5) includes the center term.
        tail = binomial_tail(5, 10, 0.5)
        assert 0.5 < tail < 0.7

    def test_binomial_tail_exact_small(self):
        # P(X >= 2), X~Bin(3, 0.5) = (3 + 1)/8
        assert math.isclose(binomial_tail(2, 3, 0.5), 0.5)

    def test_chernoff_dominates_tail(self):
        for m in range(6, 20):
            assert chernoff_upper(m, 20, 0.25) >= binomial_tail(m, 20, 0.25) - 1e-12

    def test_chernoff_below_mean_is_trivial(self):
        assert chernoff_upper(2, 20, 0.5) == 1.0

    def test_hoeffding_poisson_dominates_empirical(self):
        rng = as_generator(9)
        probs = rng.uniform(0.05, 0.3, size=40)
        m = 20
        bound = hoeffding_poisson_tail(m, probs)
        trials = 4000
        draws = rng.uniform(size=(trials, 40)) < probs
        emp = (draws.sum(axis=1) >= m).mean()
        assert bound >= emp - 0.02

    def test_poisson_tail_monotone(self):
        tails = [poisson_tail(m, 2.0) for m in range(8)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert tails[0] == 1.0

    def test_linear_fit_recovers_line(self):
        xs = [1, 2, 3, 4, 5]
        ys = [4 * x + 1 for x in xs]
        a, b = linear_fit(xs, ys)
        assert math.isclose(a, 4.0, abs_tol=1e-9)
        assert math.isclose(b, 1.0, abs_tol=1e-9)

    def test_linear_fit_needs_points(self):
        with pytest.raises(ValueError):
            linear_fit([1], [2])


class TestTable:
    def test_render_alignment(self):
        t = Table(["a", "value"], title="demo")
        t.add_row([1, 2.0])
        t.add_row(["long-cell", 0.333333])
        out = t.render()
        assert "demo" in out
        assert "long-cell" in out
        assert "0.333" in out

    def test_values_keep_the_cells_before_rendering(self):
        t = Table(["a", "value"])
        t.add_row(iter([1, 2.1996]))
        assert t.rows == [["1", "2.2"]]
        assert t.values == [[1, 2.1996]]

    def test_row_width_mismatch(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table([])

    def test_caption(self):
        t = Table(["x"])
        t.add_row([1])
        t.set_caption("claim: x is small")
        assert "claim: x is small" in t.render()
