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

    @pytest.mark.parametrize(
        "constraints", [{}, {"node_capacity": 2, "flow_control": "credit"}]
    )
    def test_aggregate_counters_cover_every_round(self, constraints):
        """The aggregate's counters are its rounds' sums and its peaks
        their maxima: the rounds are recomputed with a same-seeded
        router, straggler by straggler."""
        self._check_aggregate_counters(constraints, engine="auto")

    @pytest.mark.parametrize(
        "constraints", [{}, {"node_capacity": 2, "flow_control": "credit"}]
    )
    def test_reference_aggregate_counters_cover_every_round(self, constraints):
        """The same on the reference engine, whose rounds read their
        outcomes from packet objects instead of run arrays."""
        self._check_aggregate_counters(constraints, engine="reference")

    def _check_aggregate_counters(self, constraints, engine):
        net = DAryButterflyLeveled(2, 5)
        perm = np.random.default_rng(0).permutation(net.column_size)
        router = LeveledRouter(net, seed=5, engine=engine, **constraints)
        stats, rounds = router.route_with_restarts(
            np.arange(net.column_size), perm, allotment=11
        )
        if engine == "reference":
            assert stats.run_mode == "reference"
        replay = LeveledRouter(net, seed=5, engine=engine, **constraints)
        sources, dests = np.arange(net.column_size), perm
        runs, hops, delays = [], [], []
        while sources.size:
            runs.append(replay.route(sources, dests, max_steps=11))
            made, arrived = replay.row_outcomes()
            done = arrived >= 0
            hops += made[done].tolist()
            delays += (arrived[done] - made[done]).tolist()
            sources, dests = sources[~done], dests[~done]
        assert rounds == len(runs) == 2
        assert (stats.hops, stats.delays) == (hops, delays)
        assert stats.delivered == stats.total_packets == net.column_size
        assert stats.max_queue == max(r.max_queue for r in runs)
        assert stats.max_node_load == max(r.max_node_load for r in runs) > 0
        for counter in ("combines", "credits_stalled", "escape_hops", "fault_stalls"):
            assert getattr(stats, counter) == sum(getattr(r, counter) for r in runs)
        if constraints:
            assert stats.credits_stalled > 0 and stats.escape_hops > 0
