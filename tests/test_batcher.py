"""Tests for Batcher bitonic-sort routing (the §2.2.1 non-oblivious
baseline: Θ(log² N), permutation-only, queue-free)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import ValiantHypercubeRouter, bitonic_route, bitonic_stage_count
from repro.routing.batcher import bitonic_vs_valiant_times
from repro.topology import Hypercube


class TestStageCount:
    def test_formula(self):
        assert bitonic_stage_count(1) == 1
        assert bitonic_stage_count(4) == 10
        assert bitonic_stage_count(10) == 55

    def test_quadratic_growth(self):
        # Θ(log² N): doubling k roughly quadruples the stages.
        assert bitonic_stage_count(8) / bitonic_stage_count(4) > 3

    def test_comparison_record(self):
        rec = bitonic_vs_valiant_times(4, 5)
        assert rec == {"log2N": 4, "batcher_steps": 10, "valiant_steps": 5, "ratio": 2.0}
        # a zero-step Valiant run does not divide by zero
        assert bitonic_vs_valiant_times(4, 0)["ratio"] == 10


class TestBitonicRoute:
    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_routes_random_permutation(self, k):
        cube = Hypercube(k)
        rng = np.random.default_rng(k)
        perm = rng.permutation(cube.num_nodes)
        stats = bitonic_route(cube, perm)
        assert stats.completed
        assert stats.steps == bitonic_stage_count(k)
        assert stats.max_queue == 1  # "need not have queues"
        assert stats.delivered == cube.num_nodes

    def test_identity_permutation(self):
        cube = Hypercube(4)
        stats = bitonic_route(cube, np.arange(16))
        assert stats.steps == bitonic_stage_count(4)  # fixed schedule

    def test_reversal_permutation(self):
        cube = Hypercube(5)
        stats = bitonic_route(cube, np.arange(31, -1, -1))
        assert stats.completed

    def test_rejects_non_permutation(self):
        cube = Hypercube(3)
        with pytest.raises(ValueError):
            bitonic_route(cube, [0] * 8)
        with pytest.raises(ValueError):
            bitonic_route(cube, [0, 1, 2])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_always_sorts_property(self, seed):
        cube = Hypercube(4)
        rng = np.random.default_rng(seed)
        stats = bitonic_route(cube, rng.permutation(16))
        assert stats.completed


class TestPaperComparison:
    def test_batcher_deterministic_time_constant(self):
        """Same input or adversarial input: identical time (oblivious to
        data, fixed schedule) — the flip side of being Θ(log² N)."""
        cube = Hypercube(6)
        rng = np.random.default_rng(1)
        s1 = bitonic_route(cube, rng.permutation(64))
        s2 = bitonic_route(cube, np.arange(63, -1, -1))
        assert s1.steps == s2.steps

    def test_valiant_beats_batcher_at_scale(self):
        """§2.2.1: Batcher is 'not optimal' — Õ(log N) randomized routing
        wins as N grows."""
        k = 8  # 256 nodes: 36 bitonic stages
        cube = Hypercube(k)
        rng = np.random.default_rng(2)
        perm = rng.permutation(cube.num_nodes)
        batcher = bitonic_route(cube, perm)
        valiant = ValiantHypercubeRouter(cube, seed=3).route(
            np.arange(cube.num_nodes), perm
        )
        assert valiant.completed
        assert batcher.steps > valiant.steps
