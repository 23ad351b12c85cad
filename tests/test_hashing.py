"""Tests for the Karlin–Upfal hash family and load bounds (§2.1, §3.3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    HashFamily,
    PolynomialHash,
    bucket_loads,
    collection_load,
    corollary31_reference,
    corollary32_reference,
    corollary33_reference,
    degree_for_diameter,
    empirical_overflow_rate,
    lemma22_bound,
    max_load,
)
from repro.util.primes import is_prime


class TestPolynomialHash:
    def test_range(self):
        h = PolynomialHash([3, 5, 7], p=101, n_modules=10)
        for x in range(50):
            assert 0 <= h(x) < 10

    def test_map_matches_scalar(self):
        h = PolynomialHash([3, 5, 7, 11], p=1009, n_modules=64)
        xs = np.arange(200)
        vec = h.map(xs)
        assert all(vec[i] == h(i) for i in range(200))

    def test_map_large_p_fallback(self):
        # P above the int64-safe limit: exact Python-int path.
        p = 2**31 + 11  # prime
        assert is_prime(p)
        h = PolynomialHash([123456789, 987654321], p=p, n_modules=100)
        xs = [0, 1, 2, p - 1]
        assert list(h.map(xs)) == [h(x) for x in xs]

    def test_constant_polynomial(self):
        h = PolynomialHash([42], p=101, n_modules=10)
        assert all(h(x) == 42 % 10 for x in range(20))

    def test_description_bits_order_L_log_M(self):
        # S = L, P ≈ M: bits = S * ceil(log2 P) = O(L log M).
        family = HashFamily(address_space=2**16, n_modules=256, degree_param=8)
        h = family.sample(seed=0)
        assert h.description_bits() == 8 * 17  # next_prime(65536) needs 17 bits

    def test_rejects_empty_coeffs(self):
        with pytest.raises(ValueError):
            PolynomialHash([], p=7, n_modules=2)

    def test_rejects_bad_modules(self):
        with pytest.raises(ValueError):
            PolynomialHash([1], p=7, n_modules=0)


class TestHashFamily:
    def test_prime_at_least_M(self):
        family = HashFamily(address_space=1000, n_modules=16, degree_param=4)
        assert family.p >= 1000
        assert is_prime(family.p)

    def test_sample_is_seeded(self):
        family = HashFamily(1000, 16, 4)
        h1 = family.sample(seed=3)
        h2 = family.sample(seed=3)
        assert h1.coeffs == h2.coeffs
        h3 = family.sample(seed=4)
        assert h1.coeffs != h3.coeffs

    def test_validation(self):
        with pytest.raises(ValueError):
            HashFamily(0, 4, 2)
        with pytest.raises(ValueError):
            HashFamily(10, 0, 2)
        with pytest.raises(ValueError):
            HashFamily(10, 4, 0)

    def test_degree_for_diameter(self):
        assert degree_for_diameter(6) == 6
        assert degree_for_diameter(6, c=1.5) == 9
        assert degree_for_diameter(0) == 1

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_hash_stays_in_range(self, x):
        family = HashFamily(10**6, 37, 5)
        h = family.sample(seed=1)
        assert 0 <= h(x) < 37


class TestLoads:
    def test_bucket_loads_sum(self):
        family = HashFamily(4096, 64, 4)
        h = family.sample(seed=0)
        loads = bucket_loads(h, np.arange(512))
        assert loads.sum() == 512
        assert len(loads) == 64

    def test_max_load_consistent(self):
        family = HashFamily(4096, 64, 4)
        h = family.sample(seed=0)
        assert max_load(h, np.arange(512)) == bucket_loads(h, np.arange(512)).max()

    def test_max_load_empty(self):
        family = HashFamily(16, 4, 2)
        h = family.sample(seed=0)
        assert max_load(h, []) == 0

    def test_loads_roughly_balanced(self):
        # With S >= 2 the family is pairwise independent: mean load N/modules.
        family = HashFamily(2**16, 64, 6)
        h = family.sample(seed=5)
        loads = bucket_loads(h, np.arange(4096))
        assert loads.mean() == 4096 / 64
        assert loads.max() < 4 * loads.mean()

    def test_collection_load(self):
        family = HashFamily(1024, 32, 4)
        h = family.sample(seed=2)
        total = sum(
            collection_load(h, np.arange(256), [b]) for b in range(32)
        )
        assert total == 256


class TestLemma22:
    def test_trivial_regimes(self):
        assert lemma22_bound(100, 10, delta=5, gamma=3, p=101) == 1.0
        assert lemma22_bound(10, 10, delta=2, gamma=20, p=101) == 0.0

    def test_bound_decreases_in_gamma(self):
        vals = [
            lemma22_bound(256, 256, delta=4, gamma=g, p=257) for g in (4, 8, 16, 32)
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_bound_dominates_empirical(self):
        # Measured overflow frequency must not exceed the theory bound.
        family = HashFamily(address_space=509, n_modules=32, degree_param=4)
        s_size, gamma = 128, 24
        bound = lemma22_bound(s_size, 32, delta=4, gamma=gamma, p=family.p)
        emp = empirical_overflow_rate(family, s_size, gamma, trials=120, seed=9)
        assert emp <= bound + 0.05
        # and it counts what it sees: every function loads some module once
        assert empirical_overflow_rate(family, s_size, 1, trials=4, seed=9) == 1.0

    def test_paper_regime_is_tiny(self):
        # γ = cℓ with S=cℓ coefficients: the probability the routing
        # problem is NOT a cℓ-relation is negligible (the rehash rate).
        # star graph n=7: N=5040, diameter 9, S=γ=2*9.
        b = lemma22_bound(5040, 5040, delta=18, gamma=18 * 2, p=5051)
        assert b < 1e-6


class TestReferences:
    def test_corollary31_grows_slowly(self):
        assert corollary31_reference(2**10) < corollary31_reference(2**20)
        assert corollary31_reference(2**20) < 6  # log N / log log N is tiny

    def test_corollary32_reference(self):
        assert corollary32_reference(64, beta=2.0) == pytest.approx(
            32 + 64**0.75
        )

    def test_corollary33_reference_is_natural_log_clamped_at_two(self):
        assert corollary33_reference(1024) == pytest.approx(math.log(1024))
        assert corollary33_reference(1) == corollary33_reference(2) == math.log(2)

    def test_corollary33_shape(self):
        # any log N buckets receive O(log N) items: a handful of times
        # the reference, not a constant share of the N items
        n = 1024
        h = HashFamily(4 * n, n, degree_param=8).sample(seed=3)
        k = int(math.log2(n))
        load = collection_load(h, np.arange(n), list(range(0, n, n // k))[:k])
        assert load <= 6 * corollary33_reference(n)

    def test_empirical_max_load_matches_corollary31_shape(self):
        # N items into N buckets: max load should be near log N / log log N,
        # certainly below, say, 6x that reference.
        n = 4096
        family = HashFamily(n * 4, n, degree_param=8)
        h = family.sample(seed=11)
        ml = max_load(h, np.arange(n))
        assert ml <= 6 * corollary31_reference(n)
        assert ml >= 2  # a collision exists w.h.p.

    def test_corollary32_shape(self):
        # n² items into βn buckets: max close to n/β.
        n, beta = 64, 2.0
        family = HashFamily(n * n * 4, int(beta * n), degree_param=8)
        h = family.sample(seed=12)
        ml = max_load(h, np.arange(n * n))
        assert ml <= corollary32_reference(n, beta) * 1.5
