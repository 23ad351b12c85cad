"""Node-capacity backpressure invariants, in both engines (§3.4 / [6]).

The capacity model's whole point (Corollary 3.3, à la Leighton et al.
and the Karlin–Upfal-style memory emulators) is an O(1) bound on the
packets resident at any node.  Before the fix, the engine checked a
node's load *before* the step's arrivals, so N in-links of a full node
could all transmit in the same step — a capacity-1 hub would reach
``max_node_load == N``.  These tests pin the repaired discipline:

* arrival slots are reserved as links transmit, so ``max_node_load``
  never exceeds ``node_capacity`` (delivered-at-destination heads are
  exempt — they occupy no queue space);
* a capacity-stalled link does not burn one of its node's
  ``node_service_rate`` slots while a ready sibling link idles (the
  service-rate model exists on the reference engine only);
* both engines implement the capacity discipline bit for bit.
"""

import numpy as np
import pytest

from repro.routing import (
    DeadlockError,
    FastPathEngine,
    GreedyMeshRouter,
    GreedyRouter,
    MeshRouter,
    Packet,
    SynchronousEngine,
    make_packets,
)
from repro.topology import LinearArray, Mesh2D

# Shared with the differential suite so both agree on what "engines
# agree" means when RoutingStats grows a field.
from test_fast_engine import assert_stats_equal


class TestHubStarRegression:
    """Five sources feed one hub that forwards to a sink: with capacity 1
    the hub must never hold more than one resident packet."""

    HUB, SINK = 5, 6

    def _route(self, p: Packet):
        if p.node == self.SINK:
            return None
        return self.SINK if p.node == self.HUB else self.HUB

    def _packets(self):
        return make_packets([0, 1, 2, 3, 4], [self.SINK] * 5)

    def test_reference_engine_respects_capacity(self):
        engine = SynchronousEngine(node_capacity=1)
        stats = engine.run(self._packets(), self._route, max_steps=100)
        assert stats.completed
        assert stats.max_node_load == 1

    def test_fast_engine_respects_capacity(self):
        engine = FastPathEngine(node_capacity=1)
        paths = [[s, self.HUB, self.SINK] for s in range(5)]
        stats = engine.run(paths, num_nodes=7, max_steps=100)
        assert stats.completed
        assert stats.max_node_load == 1

    def test_engines_agree_exactly(self):
        ref = SynchronousEngine(node_capacity=1).run(
            self._packets(), self._route, max_steps=100
        )
        fast = FastPathEngine(node_capacity=1).run(
            [[s, self.HUB, self.SINK] for s in range(5)],
            num_nodes=7,
            max_steps=100,
        )
        assert_stats_equal(fast, ref)


class TestServiceSlotInteraction:
    """A capacity-stalled link must not consume a node's service slot.

    Node 0 drives two links: (0,1) with two packets bound past node 1
    (held full forever by a deadlocked pair at nodes 1 and 3) and (0,2)
    with one deliverable packet.  The queue-length sort picks (0,1)
    first; before the fix its stall burned node 0's single slot every
    step and the (0,2) packet never moved.
    """

    # pid -> itinerary (including start)
    PATHS = {
        0: [0, 1, 3, 9],  # stalls at 0: node 1 permanently full
        1: [0, 1, 3, 9],  # second packet, makes (0,1) the longer queue
        2: [0, 2],  # deliverable immediately once it gets a slot
        3: [1, 3, 9],  # deadlocked: waits on node 3
        4: [3, 1, 9],  # deadlocked: waits on node 1
    }

    def _packets(self):
        return make_packets(
            [p[0] for p in self.PATHS.values()],
            [p[-1] for p in self.PATHS.values()],
        )

    def _next_hop(self, p: Packet):
        path = self.PATHS[p.pid]
        if p.node == p.dest:
            return None
        return path[path.index(p.node) + 1]

    def test_reference_ready_link_gets_the_slot(self):
        pkts = self._packets()
        engine = SynchronousEngine(node_capacity=1, node_service_rate=1)
        # The deadlocked pair never resolves: the detector reports it
        # (with the run's stats attached) instead of spinning.
        with pytest.raises(DeadlockError) as exc:
            engine.run(pkts, self._next_hop, max_steps=10)
        assert not exc.value.stats.completed
        assert pkts[2].arrived_at == 1  # but the ready link sent at once


def _run_both(make_router, sources, dests, max_steps):
    fast = make_router("fast").route(sources, dests, max_steps=max_steps)
    ref = make_router("reference").route(sources, dests, max_steps=max_steps)
    assert_stats_equal(fast, ref)
    return fast


class TestCapacityPropertySweep:
    """Random many-to-one workloads: the capacity invariant holds, the
    run completes, and the engines agree field for field.

    Sources are distinct (one injected packet per node, within the
    cap); destinations concentrate on a few random hubs.  Capacities are
    chosen deadlock-free for the crossing-flow patterns — too-tight caps
    can legitimately deadlock (both engines agree on that too, but the
    sweep pins the productive regime).
    """

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_greedy_mesh_single_hub(self, seed, cap):
        rng = np.random.default_rng(seed)
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        hub = int(rng.integers(n))
        stats = _run_both(
            lambda eng: GreedyMeshRouter(mesh, node_capacity=cap, engine=eng),
            np.arange(n),
            [hub] * n,
            8000,
        )
        assert stats.completed
        assert stats.max_node_load <= cap

    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_mesh_many_to_few(self, seed):
        cap = 6
        rng = np.random.default_rng(seed)
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        dests = rng.choice(rng.choice(n, size=4, replace=False), size=n)
        stats = _run_both(
            lambda eng: GreedyMeshRouter(mesh, node_capacity=cap, engine=eng),
            np.arange(n),
            dests,
            8000,
        )
        assert stats.completed
        assert stats.max_node_load <= cap

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("cap", [4, 8])
    def test_three_stage_mesh_many_to_few(self, seed, cap):
        rng = np.random.default_rng(seed)
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        dests = rng.choice(rng.choice(n, size=4, replace=False), size=n)
        stats = _run_both(
            lambda eng: MeshRouter(
                mesh, seed=seed, node_capacity=cap, engine=eng
            ),
            np.arange(n),
            dests,
            8000,
        )
        assert stats.completed
        assert stats.max_node_load <= cap

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("cap", [1, 2])
    def test_linear_array_single_hub(self, seed, cap):
        rng = np.random.default_rng(seed)
        arr = LinearArray(24)
        hub = int(rng.integers(arr.n))
        stats = _run_both(
            lambda eng: GreedyRouter(arr, node_capacity=cap, engine=eng),
            np.arange(arr.n),
            [hub] * arr.n,
            8000,
        )
        assert stats.completed
        assert stats.max_node_load <= cap

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("cap", [3, 4])
    def test_linear_array_two_hubs(self, seed, cap):
        rng = np.random.default_rng(seed)
        arr = LinearArray(24)
        hubs = rng.choice(arr.n, size=2, replace=False)
        dests = rng.choice(hubs, size=arr.n)
        stats = _run_both(
            lambda eng: GreedyRouter(arr, node_capacity=cap, engine=eng),
            np.arange(arr.n),
            dests,
            8000,
        )
        assert stats.completed
        assert stats.max_node_load <= cap

    def test_tight_caps_deadlock_detected_and_agree(self):
        """Too-tight capacity wedges crossing flows; both engines must
        raise the deadlock diagnostic with identical attached stats
        (instead of spinning to max_steps, the pre-detector behavior)."""
        rng = np.random.default_rng(1)
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        dests = rng.choice(rng.choice(n, size=4, replace=False), size=n)
        with pytest.raises(DeadlockError) as fast_exc:
            GreedyMeshRouter(mesh, node_capacity=2, engine="fast").route(
                np.arange(n), dests, max_steps=500
            )
        with pytest.raises(DeadlockError) as ref_exc:
            GreedyMeshRouter(mesh, node_capacity=2, engine="reference").route(
                np.arange(n), dests, max_steps=500
            )
        fast = fast_exc.value.stats
        assert not fast.completed
        assert fast.max_node_load <= 2
        assert fast.steps < 500  # detected, not timed out
        assert_stats_equal(fast, ref_exc.value.stats)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_credit_flow_control_unwedges_tight_caps(self, seed, cap):
        """The Corollary 3.3 regime: capacities that deadlock (or would
        risk it) under plain backpressure complete under the credit
        escape protocol, keep the capacity invariant, and stay
        bit-identical across engines."""
        rng = np.random.default_rng(seed)
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        dests = rng.choice(rng.choice(n, size=4, replace=False), size=n)
        stats = _run_both(
            lambda eng: GreedyMeshRouter(
                mesh, node_capacity=cap, flow_control="credit", engine=eng
            ),
            np.arange(n),
            dests,
            8000,
        )
        assert stats.completed
        assert stats.max_node_load <= cap
