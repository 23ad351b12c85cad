"""Each rule of the reference engine, called alone.

The differential suites pin whole runs of the two engines against each
other; here a :class:`~repro.routing.engine.ReferenceRun` is built by
hand on fixtures of two to four links, one rule function is called, and
the state it leaves is read back — so a rule that breaks names itself,
the way ``tests/test_fast_engine_phases.py`` does for the fast lanes.
Every engine run here is checked after each step (the ``checked_steps``
fixture of ``tests/conftest.py``), a hand-corrupted run must be named by
the run checker, and the last test steps the reference rules and both
fast lanes side by side and compares their
:class:`~repro.routing.run_view.RunView` after every arrival phase.

Node keys are small ints; packet i follows ``paths[i]`` hop by hop (its
next node is ``paths[i][p.hops + 1]``) and exits at the row's last node.
"""

import numpy as np
import pytest

from repro.obs import Observer
from repro.routing import (
    DeadlockError,
    NetworkDrainedError,
    Packet,
    SynchronousEngine,
    fast_phases,
    fast_scalar,
    furthest_first_factory,
    make_packets,
    run_view,
)
from repro.routing.engine import (
    ReferenceRun,
    advance_escapes,
    check_drained,
    deliver,
    held,
    inject,
    no_progress,
    place,
    start_step,
    transmit,
    transmit_constrained,
    transmit_serialized,
    transmit_unconstrained,
)
from repro.routing.run_view import RunInvariantError
from repro.topology import DAryButterflyLeveled, FlatPaths
from conftest import deadline, delay_lines, flat_priorities
from test_fast_engine import combine_groups
from test_batch_arrival import (
    DownUntil,
    forced_lane,
    scenario_combining,
    scenario_deep_fifo_chain,
    scenario_fan_in,
    scenario_resident_mid_chain,
    scenario_stale_class_max,
    scenario_waiters,
)


def packets_on(paths, addresses=None):
    """One packet per row of *paths*, entering at its first node."""
    return [
        Packet(i, row[0], row[-1], address=None if addresses is None else addresses[i])
        for i, row in enumerate(paths)
    ]


def make_run(paths, *, addresses=None, link_faults=None, on_arrival=None,
             **engine) -> ReferenceRun:  # fmt: skip
    """A run of *paths* on a ``SynchronousEngine(**engine)``, nothing
    placed yet."""
    def next_hop(p):
        row = paths[p.pid]
        return None if p.hops == len(row) - 1 else row[p.hops + 1]

    packets = packets_on(paths, addresses)
    return ReferenceRun(
        SynchronousEngine(**engine), packets, next_hop, on_arrival, link_faults
    )


def queued(r: ReferenceRun, link) -> list[int]:
    """The pids waiting on *link*, in service order."""
    q = r.queues.get(link)
    return [] if q is None else [p.pid for p, _ in q.in_service_order()]


def pids(packets) -> list[int]:
    return [p.pid for p in packets]


# ----------------------------------------------------------- arrival side


def test_inject_places_the_population_at_step_zero():
    r = make_run([[0, 1], [2, 1], [3, 1]])
    r.all_packets[1].injected_at = 5  # the engine's to write
    inject(r)
    assert list(r.active) == [(0, 1), (2, 1), (3, 1)]
    assert [p.injected_at for p in r.all_packets] == [0, 0, 0]


def test_place_records_the_trace_and_places_spawned_packets_first():
    spawned = Packet(9, 1, 3)

    def on_arrival(p):
        return [spawned] if p.pid == 0 and p.node == 1 else None

    r = make_run([[0, 1, 2]], on_arrival=on_arrival)
    spawned_path = [1, 3]
    next_hop = r.next_hop
    r.next_hop = lambda p: spawned_path[p.hops + 1] if p.pid == 9 else next_hop(p)
    inject(r)
    (p,) = transmit_unconstrained(r)
    place(r, p, 1)
    assert p.trace == [0, 1]
    assert spawned.trace == [1] and spawned.injected_at == 1
    assert r.remaining == 2 and r.all_packets[-1] is spawned
    # the child is placed before its parent goes on: its link is older
    assert list(r.active) == [(1, 3), (1, 2)]


def test_place_rejects_a_packet_spawned_elsewhere():
    r = make_run([[0, 1]], on_arrival=lambda p: [Packet(9, 5, 6)])
    with pytest.raises(ValueError, match="spawned packet 9 at 5, expected 0"):
        inject(r)


def test_enqueue_absorbs_a_same_key_arrival_into_the_resident():
    # 0 and 2 share a key; 1 has none
    r = make_run([[0, 5, 6], [1, 5, 6], [2, 5, 6]], addresses=[7, None, 7])
    inject(r)
    for p in transmit_unconstrained(r):
        place(r, p, 1)
    host, keyless, child = r.all_packets
    assert queued(r, (5, 6)) == [0, 1]
    assert r.combines == 1 and host.children == [child]
    assert r.node_load[5] == 2 and r.max_queue == 2
    deliver(r, host, 4)
    assert host.arrived_at == child.arrived_at == 4 and keyless.arrived_at is None
    assert r.remaining == 1


# -------------------------------------------------------- transmit side


def test_transmit_pops_the_head_and_an_emptied_link_leaves_active():
    r = make_run([[0, 1, 2], [0, 1, 2], [3, 4]])
    inject(r)
    first = transmit(r, (0, 1))
    assert (first.pid, first.node, first.hops) == (0, 1, 1)
    assert list(r.active) == [(0, 1), (3, 4)] and r.node_load[0] == 1
    transmit(r, (0, 1))
    assert list(r.active) == [(3, 4)] and r.node_load[0] == 0


def test_unconstrained_transmission_sends_every_head_in_activation_order():
    r = make_run([[4, 5], [2, 3], [4, 6], [0, 1]])
    inject(r)
    assert pids(transmit_unconstrained(r)) == [0, 1, 2, 3]


def test_a_capacity_full_target_still_passes_a_head_that_exits_there():
    # packet 2 fills node 5 (capacity 1) and leaves it only after the
    # two in-links had their turn: packet 0 exits at 5, packet 1 goes on
    r = make_run([[1, 5], [2, 5, 6], [5, 6]], node_capacity=1)
    inject(r)
    assert list(r.active) == [(1, 5), (2, 5), (5, 6)] and r.node_load[5] == 1
    assert pids(transmit_constrained(r)) == [0, 2]
    assert queued(r, (2, 5)) == [1]
    # the exit reserved no slot at 5
    assert r.reserved[5] == 0


def test_capacity_reserves_arrival_slots_link_by_link():
    # two in-links of an empty capacity-1 node: only the first sends
    r = make_run([[0, 5, 6], [1, 5, 6]], node_capacity=1)
    inject(r)
    assert pids(transmit_constrained(r)) == [0]
    assert r.reserved[5] == 1 and queued(r, (1, 5)) == [1]
    # the next step starts with no slot reserved
    start_step(r, 1)
    assert not r.reserved


def test_an_escape_occupant_blocks_the_bulk_head_of_its_next_link():
    # occupant 0 sits in the escape buffer of (1, 2) and goes on over
    # (2, 3), the link bulk packet 1 waits on
    r = make_run([[1, 2, 3, 4], [2, 3, 4]], node_capacity=1, flow_control="credit")
    place(r, r.all_packets[1], 0)
    occupant = r.all_packets[0]
    occupant.node, occupant.hops = 2, 1
    r.fc.occupy((1, 2), occupant, (2, 3))
    sent = transmit_constrained(r)
    assert sent == [occupant] and (occupant.node, occupant.hops) == (3, 2)
    assert queued(r, (2, 3)) == [1]
    assert r.fc.credits_stalled == 1 and not r.fc.escape_at
    # it drained back into bulk: a slot at node 3 is reserved for it
    assert r.reserved[3] == 1


def test_an_escape_occupant_takes_the_next_escape_buffer_when_the_target_is_full():
    r = make_run([[1, 2, 3, 4], [3, 4]], node_capacity=1, flow_control="credit")
    place(r, r.all_packets[1], 0)  # packet 1 fills node 3
    occupant = r.all_packets[0]
    occupant.node, occupant.hops = 2, 1
    r.fc.occupy((1, 2), occupant, (2, 3))
    moved, used = advance_escapes(r)
    assert moved == [occupant] and used == {(2, 3)}
    assert r.pending_escape == {occupant: (2, 3)} and r.fc.escape_hops == 1
    # place() turns the claim into the occupancy of (2, 3)'s buffer
    place(r, occupant, 1)
    assert r.fc.escape_at == {(2, 3): occupant} and r.fc.escape_next[(2, 3)] == (3, 4)


def test_a_stalled_head_takes_its_links_escape_buffer_under_credit():
    # packet 0 takes node 5's only slot; packet 1 crosses (1, 5) into
    # that link's escape buffer, claiming no bulk slot
    r = make_run([[0, 5, 6], [1, 5, 6]], node_capacity=1, flow_control="credit")
    inject(r)
    sent = transmit_constrained(r)
    assert pids(sent) == [0, 1] and r.reserved[5] == 1
    assert r.pending_escape == {sent[1]: (1, 5)} and r.fc.escape_hops == 1


def test_a_service_rate_tie_goes_to_the_link_that_became_active_first():
    # node 0 has one slot; (0, 2) became active before (0, 1)
    r = make_run([[0, 2], [0, 1]], node_service_rate=1)
    inject(r)
    assert list(r.active) == [(0, 2), (0, 1)]
    assert pids(transmit_serialized(r)) == [0]
    assert queued(r, (0, 1)) == [1]


def test_a_service_rate_slot_goes_to_the_longest_queue_first():
    r = make_run([[0, 2], [0, 1], [0, 1]], node_service_rate=1)
    inject(r)
    assert pids(transmit_serialized(r)) == [1]


def test_a_down_link_burns_no_service_slot():
    r = make_run([[0, 1], [0, 1], [0, 2]], node_service_rate=1,
                 link_faults=DownUntil((0, 1), 1))  # fmt: skip
    inject(r)
    start_step(r, 0)
    assert pids(transmit_serialized(r)) == [2]
    assert r.fault_stalls == 1


# ------------------------------------------------------- faults, progress


def test_a_fault_blocked_step_counts_fault_stalls_and_is_no_deadlock():
    r = make_run([[0, 1, 2]], link_faults=DownUntil((0, 1), 2))
    inject(r)
    start_step(r, 0)
    stalls0 = r.fault_stalls
    arrivals = transmit_unconstrained(r)
    assert arrivals == [] and r.fault_stalls == stalls0 + 1
    assert list(r.active) == [(0, 1)]
    assert not no_progress(r, arrivals, stalls0)
    # the wire comes back at step 2
    start_step(r, 2)
    assert not held(r, (0, 1))
    assert pids(transmit_unconstrained(r)) == [0]
    # the whole run: two held steps, then delivered
    stats = SynchronousEngine().run(
        packets_on([[0, 1, 2]]), r.next_hop, max_steps=20,
        link_faults=DownUntil((0, 1), 2),
    )  # fmt: skip
    assert stats.completed and stats.fault_stalls == 2 and stats.steps == 4


def test_a_down_next_link_holds_an_escape_occupant_as_a_fault_stall():
    r = make_run([[1, 2, 3]], node_capacity=1, flow_control="credit",
                 link_faults=DownUntil((2, 3), 1))  # fmt: skip
    occupant = r.all_packets[0]
    occupant.node, occupant.hops = 2, 1
    r.fc.occupy((1, 2), occupant, (2, 3))
    start_step(r, 0)
    assert advance_escapes(r) == ([], set())
    assert r.fault_stalls == 1 and r.fc.credits_stalled == 0
    assert r.fc.escape_at == {(1, 2): occupant}


def test_a_step_that_moves_nothing_is_no_progress():
    # two full capacity-1 nodes, each head waiting on the other
    r = make_run([[0, 1, 9], [1, 0, 9]], node_capacity=1)
    inject(r)
    stalls0 = r.fault_stalls
    arrivals = transmit_constrained(r)
    assert arrivals == [] and no_progress(r, arrivals, stalls0)
    with pytest.raises(DeadlockError, match="no progress at t=0 with 2 packets"):
        SynchronousEngine(node_capacity=1).run(
            packets_on([[0, 1, 9], [1, 0, 9]]), r.next_hop, max_steps=20
        )


def test_a_drained_run_raises_network_drained_error():
    # a packet routed again without resetting its arrived_at: delivered
    # at once without being counted, so one packet stays owed
    r = make_run([[0]])
    r.all_packets[0].arrived_at = 3
    inject(r)
    assert r.remaining == 1 and not r.active
    with pytest.raises(NetworkDrainedError, match="1 packets undeliverable: "
                       "network drained at t=0") as err:  # fmt: skip
        check_drained(r, 0)
    assert err.value.flight_tail == ()
    obs = Observer()
    again = packets_on([[0]])
    again[0].arrived_at = 3
    with pytest.raises(NetworkDrainedError) as err:
        SynchronousEngine(observer=obs).run(again, r.next_hop, max_steps=5)
    assert err.value.remaining == 1 and err.value.t == 0


# ------------------------------------------------------ the run checker

#: the step :func:`mid_run` stops at
MID_RUN_STEP = 2


def mid_run() -> ReferenceRun:
    """A furthest-first run (rank: hops still to go) a few steps in:
    link (4, 5) holds 2 then 0 (ranks 3, 2), (6, 7) holds 4 then 3,
    (5, 6) holds 1 then 5, and (7, 12) holds 6."""
    paths = [[0, 4, 5, 6], [1, 4, 5, 6, 7], [2, 4, 5, 6, 7], [3, 5, 6, 7],
             [8, 6, 7], [9, 10, 5, 6], [11, 6, 7, 12]]  # fmt: skip
    r = make_run(paths, queue_factory=furthest_first_factory(
        lambda p: len(paths[p.pid]) - 1 - p.hops))  # fmt: skip
    inject(r)
    for t in range(MID_RUN_STEP):
        for p in transmit_unconstrained(r):
            place(r, p, t + 1)
    run_view.check(run_view.reference(r), MID_RUN_STEP)
    return r


def deepest(r: ReferenceRun):
    """The longest queue's link."""
    return max(r.active, key=r.queue_length)


def lost_packet(r):
    key = deepest(r)
    r.queues[key].pop()
    r.node_load[key[0]] -= 1


def queued_twice(r):
    p = r.queues[deepest(r)].peek()
    other = next(key for key in r.active if key != deepest(r))
    r.queues[other].push(p)


def on_a_link_off_its_node(r):
    r.queues[deepest(r)].peek().node = 99


def out_of_order(r):
    heap = r.queues[deepest(r)]._heap  # a corruption pokes where no producer may
    heap[0], heap[-1] = heap[-1], heap[0]


def delivered_early(r):
    key = next(key for key in r.active if r.queues[key].peek().dest != key[1])
    p = transmit(r, key)
    p.arrived_at = MID_RUN_STEP
    r.remaining -= 1


def lost_activation(r):
    del r.active[deepest(r)]


def emptied_link_left_active(r):
    r.active[(0, 4)] = None  # packet 0, its only one, left it at step 1


def miscounted_load(r):
    r.node_load[deepest(r)[0]] += 1


#: one hand-made engine bug each, and the invariant (and words) that
#: must name it
REFERENCE_CORRUPTIONS = {
    lost_packet: ("conservation", "moved but is in no state"),
    queued_twice: ("chain", "is queued on"),
    on_a_link_off_its_node: ("chain", "not its next hop"),
    out_of_order: ("chain", "out of service order"),
    delivered_early: ("conservation", "delivered before its last hop"),
    lost_activation: ("node_load", "node 4"),  # its node still counts the hidden queue
    emptied_link_left_active: ("active", "has no queued packet"),
    miscounted_load: ("node_load", "node 4"),
}


@pytest.mark.parametrize("corrupt", list(REFERENCE_CORRUPTIONS), ids=lambda f: f.__name__)
def test_the_run_checker_names_each_reference_corruption(corrupt):
    r = mid_run()
    assert max(map(r.queue_length, r.active)) > 1  # some queue has an order to break
    corrupt(r)
    invariant, words = REFERENCE_CORRUPTIONS[corrupt]
    with deadline(10), pytest.raises(RunInvariantError, match=words) as err:
        run_view.check(run_view.reference(r), MID_RUN_STEP)
    assert err.value.invariant == invariant


def test_a_delivery_at_a_key_of_another_form_is_named(checked_steps):
    """Node keys ``(level, row)`` while each packet names its exit by
    its numpy-integer row alone: every packet is delivered at a key
    that is not its exit node, and the checker names the conservation
    clause (a direct comparison broadcasts the tuple against the numpy
    integer and raises a bare ``ValueError``)."""
    net = DAryButterflyLeveled(2, 4)
    L = net.num_levels

    def next_hop(p):
        level, row = p.node
        return None if level == L else (level + 1, net.unique_next(level, row, p.dest))

    rows = np.random.default_rng(0).permutation(net.column_size)
    packets = make_packets([(0, s) for s in range(net.column_size)], rows)
    with pytest.raises(RunInvariantError, match=r"at node \(4, \d+\), its exit node "
                       r"\d+, a key of another form") as err:  # fmt: skip
        SynchronousEngine().run(packets, next_hop, max_steps=500)
    assert err.value.invariant == "conservation"
    # the packets reach level L at step L: that step's check is the first
    # to see a delivery
    assert checked_steps == [("reference", t) for t in range(L)]


def test_the_reference_producer_never_asks_the_router():
    """A randomized router draws in ``next_hop``: making the view must
    not call it."""
    r = mid_run()
    calls = []
    next_hop = r.next_hop
    r.next_hop = lambda p: calls.append(p) or next_hop(p)
    run_view.reference(r)
    assert calls == []


# ------------------------------------------------------------ phase twin
#
# The reference engine's rules and both fast lanes' phases are stepped
# side by side; their views must be equal after every arrival phase (the
# scalar lane moves a cursor on when it admits, so it has no view of the
# packets in flight).


def twin_runs(paths, inject=None, priorities=None, addresses=None):
    """The scenario as a :class:`ReferenceRun`, a vector-lane
    ``RunState`` and a scalar-lane ``ScalarRun``, an injection at step k
    as a k-hop delay line (:func:`conftest.delay_lines`)."""
    paths, priorities = delay_lines(paths, inject, priorities)
    engine = {}
    if priorities is not None:
        engine["queue_factory"] = furthest_first_factory(
            lambda p: priorities[p.pid][p.hops]
        )
    r = make_run(paths, addresses=addresses, **engine)
    flat = FlatPaths(
        np.asarray([v for row in paths for v in row], dtype=np.int64),
        np.cumsum([0] + [len(row) for row in paths]).astype(np.int64),
    )
    columns = (
        flat,
        np.asarray([len(row) - 1 for row in paths], dtype=np.int64),
        None if addresses is None else combine_groups(addresses, [row[-1] for row in paths]),
        flat_priorities(priorities, paths),
    )
    num_nodes = max(max(row) for row in paths) + 1
    s = fast_phases.RunState(*columns, num_nodes=num_nodes)
    return r, s, fast_scalar.ScalarRun(*columns, num_nodes=num_nodes)


@pytest.mark.parametrize("residue", ["scalar residue", "vector residue"])
@pytest.mark.parametrize(
    "scenario",
    [
        scenario_fan_in,
        scenario_waiters,
        scenario_deep_fifo_chain,
        scenario_stale_class_max,
        scenario_resident_mid_chain,
        scenario_combining,
    ],
    ids=lambda f: f.__name__[9:],
)
def test_the_reference_rules_and_the_vector_phases_step_alike(scenario, residue):
    """FIFO, furthest-first and combining: ``transmit_unconstrained``
    then ``place`` on the reference run, ``transmit_unconstrained`` then
    ``admit`` on the vector one, ``transmit`` then ``admit`` on the
    scalar one — the three views equal after each arrival phase, and
    each a state the run checker accepts."""
    r, s, sc = twin_runs(**scenario())

    def views(t):
        ref = run_view.reference(r)
        run_view.check(ref, t)
        assert run_view.vector(s) == ref == run_view.scalar(sc), f"arrived at t={t}"

    with forced_lane(residue):
        inject(r)
        fast_phases.admit(s, s.roots, 0)
        fast_scalar.admit(sc, sc.roots.tolist(), 0, 0, None)
        views(0)
        for t in range(100):
            assert s.remaining == r.remaining == sc.remaining
            if not r.remaining:
                break
            sent = transmit_unconstrained(r)
            fast_sent = fast_phases.transmit_unconstrained(s)
            scalar_sent = fast_scalar.transmit(sc)
            assert fast_sent.tolist() == pids(sent) == scalar_sent, f"sent at t={t}"
            for p in sent:
                place(r, p, t + 1)
            if fast_sent.size:
                fast_phases.admit(s, fast_sent, t + 1)
                fast_scalar.admit(sc, scalar_sent, t + 1, 1, None)
            views(t + 1)
    assert not r.remaining and not s.remaining and not sc.remaining
