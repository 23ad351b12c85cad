"""Tests for the synchronous engine, packets, queues, and metrics."""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.experiments.harness import require_completed
from repro.obs import Observer
from repro.routing import (
    FastPathEngine,
    FIFOQueue,
    FurthestFirstQueue,
    NetworkDrainedError,
    Packet,
    RoutingTimeout,
    SynchronousEngine,
    fast_engine,
    fast_scalar,
    make_packets,
)
from repro.routing.metrics import Deferred, RoutingStats, stats_from_arrays
from repro.routing.queues import furthest_first_factory
from repro.topology import LinearArray


def line_next_hop(array):
    def next_hop(p):
        if p.node == p.dest:
            return None
        return array.route_next(p.node, p.dest)

    return next_hop


class TestPacket:
    def test_latency_and_delay(self):
        p = Packet(0, 0, 3)
        p.hops = 3
        p.arrived_at = 5
        assert p.latency == 5
        assert p.delay == 2

    def test_latency_requires_delivery(self):
        p = Packet(0, 0, 3)
        with pytest.raises(ValueError):
            _ = p.latency

    def test_absorb_builds_tree(self):
        a, b, c = Packet(0, 0, 9), Packet(1, 1, 9), Packet(2, 2, 9)
        a.absorb(b)
        b.absorb(c)
        reps = {p.pid for p in a.all_represented()}
        assert reps == {0, 1, 2}

    def test_double_absorb_rejected(self):
        a, b = Packet(0, 0, 9), Packet(1, 1, 9)
        a.absorb(b)
        with pytest.raises(ValueError):
            a.absorb(b)

    def test_make_packets_validates(self):
        with pytest.raises(ValueError):
            make_packets([1, 2], [3])

    def test_make_packets_addresses(self):
        pkts = make_packets([0, 1], [2, 3], addresses=[10, 11])
        assert [p.address for p in pkts] == [10, 11]


class TestQueues:
    def test_fifo_order(self):
        q = FIFOQueue()
        a, b = Packet(0, 0, 1), Packet(1, 0, 1)
        q.push(a)
        q.push(b)
        assert q.peek() is a
        assert q.pop() is a
        assert q.pop() is b

    def test_furthest_first_order(self):
        q = FurthestFirstQueue(priority=lambda p: abs(p.dest - p.node))
        near, far = Packet(0, 0, 1), Packet(1, 0, 9)
        q.push(near)
        q.push(far)
        assert q.pop() is far
        assert q.pop() is near

    def test_furthest_first_fifo_ties(self):
        q = FurthestFirstQueue(priority=lambda p: 1.0)
        a, b = Packet(0, 0, 5), Packet(1, 0, 5)
        q.push(a)
        q.push(b)
        assert q.pop() is a

    def test_find_combinable(self):
        q = FIFOQueue()
        a = Packet(0, 0, 9, address=42)
        q.push(a)
        assert q.find_combinable((42, 9)) is a
        assert q.find_combinable((43, 9)) is None

    def test_find_combinable_tracks_pops(self):
        # The O(1) side index must forget popped packets.
        q = FIFOQueue()
        a = Packet(0, 0, 9, address=42)
        b = Packet(1, 1, 9, address=42)
        q.push(a)
        q.push(b)
        assert q.find_combinable((42, 9)) is a  # earliest first
        assert q.pop() is a
        assert q.find_combinable((42, 9)) is b
        q.pop()
        assert q.find_combinable((42, 9)) is None

    def test_find_combinable_ignores_addressless(self):
        q = FIFOQueue()
        q.push(Packet(0, 0, 9))  # no address -> no combine key
        assert q.find_combinable((None, 9)) is None

    def test_furthest_first_find_combinable(self):
        q = FurthestFirstQueue(priority=lambda p: abs(p.dest - p.node))
        near = Packet(0, 0, 1, address=5)
        far = Packet(1, 0, 9, address=5)
        q.push(near)
        q.push(far)
        assert q.find_combinable((5, 9)) is far
        assert q.find_combinable((5, 1)) is near
        assert q.pop() is far  # priority pop, not FIFO
        assert q.find_combinable((5, 9)) is None
        assert q.find_combinable((5, 1)) is near


class TestEngineBasics:
    def test_single_packet_travels_distance(self):
        array = LinearArray(10)
        pkts = make_packets([0], [7])
        stats = SynchronousEngine().run(pkts, line_next_hop(array), max_steps=100)
        assert stats.completed
        assert stats.steps == 7
        assert pkts[0].hops == 7
        assert pkts[0].delay == 0

    def test_zero_hop_delivery(self):
        array = LinearArray(5)
        pkts = make_packets([3], [3])
        stats = SynchronousEngine().run(pkts, line_next_hop(array), max_steps=10)
        assert stats.completed
        assert stats.steps == 0
        assert pkts[0].hops == 0

    def test_one_packet_per_link_per_step(self):
        # Two packets from node 0 to node 4 share every link: the second
        # is delayed exactly 1 step behind the first.
        array = LinearArray(5)
        pkts = make_packets([0, 0], [4, 4])
        stats = SynchronousEngine().run(pkts, line_next_hop(array), max_steps=50)
        assert stats.completed
        assert stats.steps == 5  # 4 hops + 1 queueing delay
        assert sorted(p.delay for p in pkts) == [0, 1]

    def test_opposite_directions_no_conflict(self):
        # Bidirectional links are two directed links: no contention.
        array = LinearArray(5)
        pkts = make_packets([0, 4], [4, 0])
        stats = SynchronousEngine().run(pkts, line_next_hop(array), max_steps=50)
        assert stats.completed
        assert stats.steps == 4
        assert all(p.delay == 0 for p in pkts)

    def test_timeout_reports_incomplete(self):
        array = LinearArray(20)
        pkts = make_packets([0], [19])
        stats = SynchronousEngine().run(pkts, line_next_hop(array), max_steps=5)
        assert not stats.completed
        assert stats.delivered == 0

    def test_timeout_raises_when_asked(self):
        """A caller that needs a completed route asks
        ``require_completed``: it raises ``RoutingTimeout`` carrying the
        timed-out run's stats."""
        array = LinearArray(20)
        pkts = make_packets([0], [19])
        stats = SynchronousEngine().run(pkts, line_next_hop(array), max_steps=5)
        with pytest.raises(RoutingTimeout) as err:
            require_completed(stats)
        assert err.value.stats is stats
        assert (stats.steps, stats.delivered) == (5, 0)

    def test_max_queue_tracks_contention(self):
        # k packets at node 0 all heading right: queue (0,1) holds k packets.
        array = LinearArray(6)
        k = 4
        pkts = make_packets([0] * k, [5] * k)
        stats = SynchronousEngine().run(pkts, line_next_hop(array), max_steps=100)
        assert stats.completed
        assert stats.max_queue == k
        assert stats.max_node_load == k

    def test_drained_network_with_undeliverable_raises(self):
        # next_hop that never delivers packet but network empties is a bug
        def bad_next_hop(p):
            return None if p.node == p.dest else None  # pretend delivered

        pkts = make_packets([0], [5])
        stats = SynchronousEngine().run(pkts, bad_next_hop, max_steps=10)
        # "delivered" at wrong node still counts as delivered by contract:
        # the policy is responsible for correctness.
        assert stats.completed


def _forget_the_population(monkeypatch):
    """Make both lanes' step-0 admission place nothing: the run starts
    with packets owed and none queued — the inconsistent bookkeeping the
    drain check exists to report (no well-formed input reaches it on
    the fast engine)."""
    monkeypatch.setattr(fast_engine, "admit", lambda s, batch, t: None)
    monkeypatch.setattr(fast_scalar, "admit", lambda s, batch, t, advance, prof: None)


class TestNetworkDrained:
    def test_reference_engine_reports_stale_packet(self):
        """A delivered packet routed again without a reset is never
        counted down: typed error with the diagnostics attached."""
        array = LinearArray(6)
        pkts = make_packets([0, 0], [5, 5])
        pkts[0].arrived_at = 3  # stale: left over from an earlier run
        obs = Observer(flight_recorder=4)
        engine = SynchronousEngine(observer=obs)
        with pytest.raises(NetworkDrainedError) as exc:
            engine.run(pkts, line_next_hop(array), max_steps=100)
        err = exc.value
        assert isinstance(err, RuntimeError)
        assert (err.remaining, err.t) == (1, 6)
        assert "1 packets undeliverable: network drained at t=6" in str(err)
        assert len(err.flight_tail) == 4
        assert err.flight_tail == obs.flight_tail()

    def test_without_observer_tail_is_empty(self):
        pkts = make_packets([0], [5])
        pkts[0].arrived_at = 3
        with pytest.raises(RuntimeError) as exc:
            SynchronousEngine().run(pkts, line_next_hop(LinearArray(6)), max_steps=9)
        assert isinstance(exc.value, NetworkDrainedError)
        assert exc.value.flight_tail == ()

    @pytest.mark.parametrize(
        "paths, mode",
        [
            ([[0, 1, 2], [2, 1, 0]], "batch"),
            ([[0, 1], [2, 1, 0]], "batch"),
            ([[0, 1], [2, 1, 0]], "batch-constrained"),
        ],
    )
    def test_fast_engine_raises_the_same_type(self, monkeypatch, paths, mode):
        _forget_the_population(monkeypatch)
        obs = Observer(flight_recorder=4)
        obs.record("note", virtual_clock=0, what="before the run")
        capacity = 2 if mode == "batch-constrained" else None
        engine = FastPathEngine(node_capacity=capacity, observer=obs)
        with pytest.raises(NetworkDrainedError) as exc:
            engine.run(paths, num_nodes=3, max_steps=10)
        assert engine.last_run_mode == mode
        assert (exc.value.remaining, exc.value.t) == (2, 0)
        assert exc.value.flight_tail == obs.flight_tail() != ()


class TestEngineCombining:
    def test_same_address_packets_combine(self):
        array = LinearArray(6)
        pkts = make_packets([0, 0, 0], [5, 5, 5], addresses=[7, 7, 7])
        engine = SynchronousEngine()
        stats = engine.run(pkts, line_next_hop(array), max_steps=50)
        assert stats.completed
        assert stats.combines == 2
        # Combined flow behaves as one packet: no queueing behind siblings.
        assert stats.steps == 5
        assert all(p.delivered for p in pkts)

    def test_different_addresses_do_not_combine(self):
        array = LinearArray(6)
        pkts = make_packets([0, 0], [5, 5], addresses=[7, 8])
        engine = SynchronousEngine()
        stats = engine.run(pkts, line_next_hop(array), max_steps=50)
        assert stats.combines == 0
        assert stats.steps == 6

    def test_no_address_no_combine(self):
        array = LinearArray(6)
        pkts = make_packets([0, 0], [5, 5])
        engine = SynchronousEngine()
        stats = engine.run(pkts, line_next_hop(array), max_steps=50)
        assert stats.combines == 0

    def test_combining_inside_priority_queues(self):
        # Combining must also work under furthest-destination-first
        # arbitration (the §3.4 discipline), not just FIFO.
        array = LinearArray(8)
        factory = furthest_first_factory(lambda p: abs(p.dest - p.node))
        pkts = make_packets([0, 0, 0, 0], [7, 7, 5, 7], addresses=[3, 3, 4, 3])
        engine = SynchronousEngine(queue_factory=factory)
        stats = engine.run(pkts, line_next_hop(array), max_steps=100)
        assert stats.completed
        assert stats.combines == 2  # the three address-3 readers merge
        assert all(p.delivered for p in pkts)


class TestEngineCapacity:
    def test_node_capacity_limits_load(self):
        array = LinearArray(8)
        k = 6
        pkts = make_packets([0] * k, [7] * k)
        engine = SynchronousEngine(node_capacity=2)
        stats = engine.run(pkts, line_next_hop(array), max_steps=500)
        assert stats.completed
        # Source node itself holds k, but downstream nodes obey the cap.
        assert stats.max_queue >= 1

    def test_node_service_rate_serializes(self):
        # Node 2 receives from both sides and must forward both right;
        # with service rate 1 its two out-queues (2,3),(2,1)... use a Y:
        # two packets both pass through node 2 to different next nodes.
        array = LinearArray(5)

        def next_hop(p):
            if p.node == p.dest:
                return None
            return array.route_next(p.node, p.dest)

        # packets: 2->0 and 2->4: distinct out-links of node 2.
        pkts = make_packets([2, 2], [0, 4])
        par = SynchronousEngine().run(
            [Packet(p.pid, p.source, p.dest) for p in pkts], next_hop, max_steps=50
        )
        ser = SynchronousEngine(node_service_rate=1).run(
            pkts, next_hop, max_steps=50
        )
        assert par.steps == 2  # both leave simultaneously
        assert ser.steps == 3  # serialized: one waits a step

    def test_service_rate_ties_break_by_activation_order(self):
        # Node 0 drives two equal-length queues; with rate 1 the link
        # that became active first must win the tie, deterministically.
        pkts = make_packets([0, 0], [1, 2])
        order = []

        def next_hop(p):
            if p.node == 0:
                return p.dest
            order.append(p.dest)
            return None

        stats = SynchronousEngine(node_service_rate=1).run(
            pkts, next_hop, max_steps=50
        )
        assert stats.completed
        assert order == [1, 2]  # packet to 1 enqueued (activated) first

    def test_a_down_link_does_not_burn_the_service_slot(self):
        # Node 2 serves one link a step; its first-activated link (2,3)
        # is down at step 0, so the slot goes to (2,1) instead of idling.
        array = LinearArray(5)

        class DownAtZero:
            def parts_at(self, t):
                return (frozenset({(2, 3)}) if t == 0 else frozenset()), ()

        arrivals = {}
        for faults in (None, DownAtZero()):
            pkts = make_packets([2, 2], [4, 0])
            stats = SynchronousEngine(node_service_rate=1).run(
                pkts, line_next_hop(array), max_steps=50, link_faults=faults
            )
            assert stats.completed and stats.steps == 3
            assert stats.fault_stalls == (faults is not None)
            arrivals[faults is None] = [p.arrived_at for p in pkts]
        assert arrivals[True] == [2, 3]  # unfaulted: the packet to 4 goes first
        assert arrivals[False] == [3, 2]  # faulted: the packet to 0 takes the slot


class TestEngineProfile:
    def test_an_observed_credit_run_books_its_escape_subphase(self):
        array = LinearArray(8)
        runs = []
        for obs in (None, Observer(metrics=False, tracing=False, flight_recorder=0)):
            engine = SynchronousEngine(node_capacity=1, flow_control="credit", observer=obs)
            runs.append(engine.run(
                make_packets([0] * 6, [7] * 6), line_next_hop(array), max_steps=500
            ))
        assert runs[0] == runs[1]  # observing changes no result
        assert runs[1].completed and runs[1].escape_hops > 0
        phases = obs.profile.to_dict()["phases"]
        assert phases["escape"] > 0
        assert {"arrival", "transmission"} <= set(phases)


class TestPathTracking:
    def test_trace_records_visited_nodes(self):
        array = LinearArray(6)
        pkts = make_packets([1], [4])
        engine = SynchronousEngine()
        stats = engine.run(pkts, line_next_hop(array), max_steps=50)
        assert stats.completed
        assert pkts[0].trace == [1, 2, 3, 4]


class TestStats:
    def test_reference_run_stats_by_hand(self):
        """Packets 0 and 1 share link (0, 1), so 1 waits a step; packet
        0 spawns a one-hop reply at node 1 on step 1; packet 2 needs 5
        hops and is still on its way when the 4-step budget ends.  The
        reply's delay counts from its spawn step, and the undelivered
        packet is counted but not measured."""
        array = LinearArray(8)
        pkts = make_packets([0, 0, 5], [2, 2, 0])

        def reply_at_node_1(p):
            return [Packet(10, 1, 0)] if (p.pid, p.node) == (0, 1) else None

        stats = SynchronousEngine().run(
            pkts, line_next_hop(array), max_steps=4, on_arrival=reply_at_node_1
        )
        assert dataclasses.asdict(stats) == dict(
            steps=4,
            delivered=3,
            total_packets=4,
            max_queue=2,
            completed=False,
            delays=[0, 1, 0],  # packet 0, packet 1, the reply
            hops=[2, 2, 1],
            combines=0,
            max_node_load=2,
            credits_stalled=0,
            escape_hops=0,
            fault_stalls=0,
            run_mode="reference",
        )
        assert all(type(v) is int for v in stats.delays + stats.hops)
        assert stats.max_delay == 1
        # an empty population counts nothing and completes at once
        empty = SynchronousEngine().run([], line_next_hop(array), max_steps=4)
        assert (empty.steps, empty.total_packets, empty.delays, empty.hops) == (0, 0, [], [])
        assert empty.completed

    def test_stats_from_arrays_takes_every_counted_field_by_keyword(self):
        """The one RoutingStats constructor: every field but the four it
        counts from the rows is a required keyword, so a counter an
        engine forgets to pass is a TypeError at its first run."""
        params = inspect.signature(stats_from_arrays).parameters.values()
        keywords = {p.name: p for p in params if p.kind is p.KEYWORD_ONLY}
        derived = {"delivered", "total_packets", "delays", "hops"}
        fields = {f.name for f in dataclasses.fields(RoutingStats)}
        assert set(keywords) == fields - derived
        assert all(p.default is p.empty for p in keywords.values())
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(TypeError):
            stats_from_arrays(empty, None, empty, steps=0, max_queue=0, completed=True)

    def test_the_run_lists_are_worked_out_on_first_read(self):
        """``delays`` / ``hops`` are stored as :class:`Deferred` and read as
        the delivered rows' Python ints — ``==``, ``repr`` and ``asdict``
        see what eager lists show; a stats built without them gets fresh
        empty lists, never one shared default."""
        counters = dict(
            steps=6, max_queue=2, completed=False, combines=0, max_node_load=2,
            credits_stalled=0, escape_hops=0, fault_stalls=0, run_mode="batch",
        )  # fmt: skip
        columns = (np.asarray([2, 3, 1]), np.asarray([0, 0, 2]), np.asarray([4, -1, 5]))
        eager = RoutingStats(delivered=2, total_packets=3, delays=[2, 2], hops=[2, 1], **counters)
        for read in (repr, dataclasses.asdict, lambda stats: stats):
            stats = stats_from_arrays(*columns, **counters)
            assert {f.name for f in dataclasses.fields(RoutingStats)} == set(vars(stats))
            assert isinstance(vars(stats)["delays"], Deferred)
            assert isinstance(vars(stats)["hops"], Deferred)
            assert read(stats) == read(eager)
        assert all(type(v) is int for v in stats.delays + stats.hops)
        one, two = (RoutingStats(0, 0, 0, 0, True) for _ in range(2))
        one.delays.append(1)
        one.hops.append(2)
        assert (two.delays, two.hops) == ([], [])
