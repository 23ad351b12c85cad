"""Tests for Lemma 2.1's restart amplification on leveled networks."""

import numpy as np
import pytest

from repro.routing import LeveledRouter, RoutingTimeout
from repro.topology import DAryButterflyLeveled


class TestRouteWithRestarts:
    def test_normal_allotment_single_round(self):
        net = DAryButterflyLeveled(2, 5)
        router = LeveledRouter(net, seed=1)
        perm = np.random.default_rng(2).permutation(net.column_size)
        stats, rounds = router.route_with_restarts(
            np.arange(net.column_size), perm, allotment=20 * net.num_levels
        )
        assert rounds == 1
        assert stats.completed
        assert stats.delivered == net.column_size

    def test_tight_allotment_forces_restart_but_succeeds(self):
        net = DAryButterflyLeveled(2, 6)
        router = LeveledRouter(net, seed=3)
        perm = np.random.default_rng(4).permutation(net.column_size)
        # 2L + 1 steps: only contention-free packets make the first round
        stats, rounds = router.route_with_restarts(
            np.arange(net.column_size), perm, allotment=2 * net.num_levels + 1
        )
        assert rounds > 1
        assert stats.completed
        assert stats.delivered == net.column_size
        # time accounting: each extra round charges allotment + traceback
        assert stats.steps > (rounds - 1) * (2 * net.num_levels + 1)

    def test_impossible_allotment_raises(self):
        net = DAryButterflyLeveled(2, 4)
        router = LeveledRouter(net, seed=5)
        perm = np.random.default_rng(6).permutation(net.column_size)
        with pytest.raises(RoutingTimeout) as err:
            # below the 2L path length nothing can ever arrive
            router.route_with_restarts(
                np.arange(net.column_size), perm, allotment=3, max_rounds=3
            )
        # the last round's stats: every packet still owed, 3 hops made
        stats = err.value.stats
        assert (stats.steps, stats.delivered, stats.completed) == (3, 0, False)
        assert stats.total_packets == net.column_size

    def test_parameter_validation(self):
        net = DAryButterflyLeveled(2, 3)
        router = LeveledRouter(net, seed=7)
        with pytest.raises(ValueError):
            router.route_with_restarts([0], [0], allotment=0)
        with pytest.raises(ValueError):
            router.route_with_restarts([0], [0], allotment=6, max_rounds=0)

    def test_aggregate_stats_cover_all_packets(self):
        net = DAryButterflyLeveled(2, 5)
        router = LeveledRouter(net, seed=8)
        perm = np.random.default_rng(9).permutation(net.column_size)
        stats, _rounds = router.route_with_restarts(
            np.arange(net.column_size), perm, allotment=2 * net.num_levels + 2
        )
        assert len(stats.hops) == net.column_size
        # every delivered packet crossed a multiple of... exactly 2L links
        # in its successful round
        assert all(h == 2 * net.num_levels for h in stats.hops)
