"""The batch arrival kernel, pinned by construction: fast ≡ reference.

``repro.routing.fast_phases.enqueue`` places a step's arrivals through
a *solo* lane for a packet alone on a previously idle link — which
cannot combine, so it is only placed — and resolves everything else,
the *contended residue*, by absorbing what meets a resident (or an
earlier arrival) with its key and threading the survivors in service
order: arrival by arrival in Python for a small residue, in numpy calls
for a large one.  Served traffic is > 90 % solo, so the residue and the
combining corner cases are built by hand here and compared with the
reference engine field for field, each scenario unconstrained, under
``node_capacity`` + credit flow control, and with one transiently down
link (which also makes queues grow, i.e. arrivals meet waiters).  A
hypothesis sweep over layered many-to-one traffic closes the gaps
between the hand-picked cases; a second one drives the
furthest-destination-first order — deep queues under sparse, wide
priority ranges — by hand-built fan-ins and through the mesh and
linear-array routers.  Every fast run here is made three times — on
the scalar run lane (:mod:`repro.routing.fast_scalar`, Python lists),
and on the vector run lane with the residue forced through each of its
lanes (:data:`LANES`) — and all three must equal the one reference
run.

Ragged path lists (the star-graph and generic greedy walks) reach the
same kernel concatenated by ``FastPathEngine.run``; the edges of that
normalisation — an empty run, zero-hop packets — are pinned here the
same way.
"""

import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSchedule
from repro.faults.runtime import LinkFaultTimeline
from repro.routing import (
    DeadlockError,
    FastPathEngine,
    MeshRouter,
    Packet,
    SynchronousEngine,
    fast_phases,
    fast_scalar,
    furthest_first_factory,
    route_linear,
)
from repro.topology import Mesh2D
from repro.routing.fast_phases import Replies
from conftest import delay_lines, flat_priorities
from test_fast_engine import assert_absorptions_equal, assert_stats_equal, combine_groups
from test_reply_phase import reference_replies, reply_population

#: ``(SCALAR_RUN_MAX, SCALAR_RESIDUE_MAX)`` values that send every run
#: the configuration allows through one lane: the scalar run lane
#: (:mod:`repro.routing.fast_scalar`, where the residue lanes take no
#: part), or the vector run lane with every contended residue through
#: one of its lanes — the arrival-by-arrival walk, or the numpy calls
LANES = {
    "scalar run": (sys.maxsize, 0),
    "scalar residue": (0, sys.maxsize),
    "vector residue": (0, 0),
}


@contextmanager
def forced_lane(name: str):
    """Force the fast engine's run lane and residue lane for the block:
    a context manager, not a fixture, so a hypothesis example can set
    both constants too."""
    saved = fast_scalar.SCALAR_RUN_MAX, fast_phases.SCALAR_RESIDUE_MAX
    fast_scalar.SCALAR_RUN_MAX, fast_phases.SCALAR_RESIDUE_MAX = LANES[name]
    try:
        yield
    finally:
        fast_scalar.SCALAR_RUN_MAX, fast_phases.SCALAR_RESIDUE_MAX = saved


def _routed(run):
    try:
        return run(), False
    except DeadlockError as err:
        return err.stats, True


class DownUntil:
    """Minimal link-fault view: *link* is down for steps ``t < until``."""

    def __init__(self, link, until):
        self._down = frozenset({link})
        self._up = frozenset()
        self._until = until

    def parts_at(self, t):
        return (self._down if t < self._until else self._up), ()


def _packets(paths, addresses):
    return [
        Packet(i, row[0], row[-1], address=None if addresses is None else addresses[i])
        for i, row in enumerate(paths)
    ]


def run_both(
    paths,
    *,
    inject=None,
    priorities=None,
    addresses=None,
    node_capacity=None,
    flow_control="none",
    down=None,
    max_steps=400,
):
    """Route one hand-built instance through both engines — the fast
    one once per lane of :data:`LANES`.

    ``paths`` holds one node-id row per packet — handed to the fast
    engine as a matrix when rectangular, as the ragged list otherwise;
    the reference engine follows the same rows through ``packet.hops``
    and delivers each packet at its row's last position.  ``inject[i]``
    puts packet i's row behind a private delay line of that many hops
    (:func:`conftest.delay_lines`).  Returns the fast engine's
    ``RoutingStats`` once they equal the reference's in every lane (a
    ``DeadlockError`` counts as its ``stats``, and must then be raised
    by every run), and its absorptions the reference packets'.
    """
    paths, priorities = delay_lines(paths, inject, priorities)
    last = [len(row) - 1 for row in paths]
    num_nodes = max((max(row) for row in paths), default=0) + 1
    ragged = len({len(row) for row in paths}) > 1
    combine = addresses is not None
    kwargs = dict(node_capacity=node_capacity, flow_control=flow_control)
    faults = (lambda: DownUntil(*down)) if down is not None else (lambda: None)

    fast_engine = FastPathEngine(**kwargs)
    ref_packets = _packets(paths, addresses)
    groups = combine_groups(addresses, [row[-1] for row in paths]) if combine else None

    def fast():
        return fast_engine.run(
            paths if ragged else np.asarray(paths, dtype=np.int64),
            num_nodes=num_nodes,
            max_steps=max_steps,
            priorities=flat_priorities(priorities, paths),
            combine_groups=groups,
            link_faults=faults(),
        )

    def next_hop(p):
        return None if p.hops == last[p.pid] else paths[p.pid][p.hops + 1]

    ref_kwargs = dict(kwargs)
    if priorities is not None:
        ref_kwargs["queue_factory"] = furthest_first_factory(
            lambda p: priorities[p.pid][p.hops]
        )
    def ref():
        return SynchronousEngine(**ref_kwargs).run(
            ref_packets, next_hop, max_steps=max_steps, link_faults=faults()
        )

    r, r_dead = _routed(ref)
    for name in LANES:
        with forced_lane(name):
            f, f_dead = _routed(fast)
        assert f_dead == r_dead, name
        assert fast_engine.last_run_mode == (
            "batch" if node_capacity is None else "batch-constrained"
        )
        assert_stats_equal(f, r)
        assert_absorptions_equal(fast_engine.last_arrays, ref_packets)
    return f


def run_replies(forest, *, down=None, max_steps=400):
    """Route the replies of a hand-built reply *forest* — ``(paths,
    parents)``, :func:`test_reply_phase.reply_population`'s arguments —
    as one ``Replies`` population through the fast engine once per lane
    of :data:`LANES`, and through the reference engine, whose
    ``ReplySpawner`` spawns the children.  Returns the fast engine's
    ``RoutingStats`` once they equal the reference's in every lane."""
    requests, packets, hosts = reply_population(*forest)
    num_nodes = int(requests.paths.nodes.max()) + 1

    def faults():
        return None if down is None else DownUntil(*down)

    ref = reference_replies(packets, hosts, max_steps=max_steps, link_faults=faults())
    for name in LANES:
        with forced_lane(name):
            f = FastPathEngine().run(
                Replies(requests, hosts),
                num_nodes=num_nodes,
                max_steps=max_steps,
                link_faults=faults(),
            )
        assert_stats_equal(f, ref)
    return f


HUB, SINK = 10, 11

#: the three regimes every scenario runs under; ``down`` names the hub's
#: out-link, so queues build behind it for the first steps
REGIMES = {
    "unconstrained": dict(),
    "credit": dict(node_capacity=2, flow_control="credit"),
    "down-link": dict(down=((HUB, SINK), 3)),
}


def scenario_all_solo():
    """Disjoint two-hop paths: every arrival is alone on an idle link."""
    return dict(paths=[[i, 20 + i, 40 + i] for i in range(6)])


def scenario_fan_in():
    """k packets onto one idle link in one step; the FIFO tie order is
    the activation order of their source links, not pid order."""
    return dict(paths=[[s, HUB, SINK] for s in (4, 2, 0, 3, 1)])


def scenario_interleaved_activation():
    """Two idle links activate in one step, the first one by the batch's
    first *and* third arrival (residue) and the second by the solo in
    between; they must transmit in first-arrival order, which decides
    the queue order on the link they both feed."""
    a, b = 5, 6
    return dict(paths=[[0, a, HUB, SINK], [1, b, HUB, SINK], [2, a, HUB, SINK]])


def scenario_waiters():
    """Arrivals onto a link that already has waiters: a second fan-in
    wave, then single arrivals, while the first wave still queues."""
    sources = [0, 1, 2, 3, 4, 5, 6, 7]
    return dict(
        paths=[[s, HUB, SINK] for s in sources],
        inject=[0, 0, 0, 1, 1, 2, 3, 9],
    )


def scenario_stale_class_max():
    """Mixed priorities on one link that keeps emptying and refilling
    (named after the per-link class maximum the engine once kept, which
    a pop left stale): a high-priority packet passes alone; then come a
    simultaneous low pair (residue on an idle link), a solo low arrival,
    and a mixed pair plus a late joiner that outranks a waiter."""
    inject = [0, 3, 3, 8, 12, 12, 13]
    hub_prio = [5, 1, 2, 1, 3, 0, 3]
    return dict(
        paths=[[s, HUB, SINK] for s in range(len(inject))],
        inject=inject,
        priorities=[[0, p] for p in hub_prio],
    )


def scenario_combining():
    """CRCW corner cases on the hub's out-link: a keyless blocker keeps
    host H resident while two same-key packets arrive in one step (both
    absorbed); later two same-key packets meet no resident (the first
    hosts the second); keyless packets share the steps throughout."""
    #       Z     H   K1   K2    n1   K3   K4    n2
    addresses = [None, 7, 7, 7, None, 7, 7, None]
    inject = [0, 0, 1, 1, 1, 6, 6, 6]
    return dict(
        paths=[[s, HUB, SINK] for s in range(len(inject))],
        inject=inject,
        addresses=addresses,
    )


def scenario_resident_mid_chain():
    """A resident in the middle of a furthest-first chain: W (hub
    priority 9), R (1, key 7) and V (0) queue on the hub's out-link; X
    (5) arrives with Y (R's key) and goes in ahead of R, and Z, one step
    later, walks past W and X to find R."""
    #          W  R  V  X  Y  Z
    hub_prio = [9, 1, 0, 5, 1, 1]
    return dict(
        paths=[[s, HUB, SINK] for s in range(6)],
        inject=[0, 0, 0, 1, 1, 2],
        priorities=[[0, p] for p in hub_prio],
        addresses=[None, 7, None, None, 7, 7],
    )


def scenario_same_key_on_an_idle_link():
    """Two arrivals with one key land on the idle hub link in one step:
    the first of the batch hosts the second.  Packet 2 waits a step
    behind keyless packet 0 on link (1, 5), which keeps its place in the
    activation order while it has waiters, so packet 2 leaves for the
    hub ahead of packet 1, whose two-hop delay line activated after that
    link: the batch's first is the higher pid."""
    return dict(
        paths=[[1, 5, 9], [0, HUB, SINK], [1, 5, HUB, SINK]],
        inject=[0, 2, 0],
        addresses=[None, 7, 7],
    )


def scenario_deep_fifo_chain():
    """Thirty packets from sources of their own pile up on the hub's
    FIFO out-link; two in three are keyless, so a keyed arrival walks
    past a long run of waiters before it finds — or misses — the
    resident of its key."""
    n = 30
    return dict(
        paths=[[20 + i, HUB, SINK] for i in range(n)],
        inject=[i % 4 for i in range(n)],
        addresses=[None if i % 3 else 1 + i // 3 % 2 for i in range(n)],
    )


def scenario_width_one():
    """Width-1 paths: every packet is delivered at step 0, where it is
    injected."""
    return dict(paths=[[3], [4], [3]])


# Reply forests: ``paths`` are the replies' itineraries, ``parents`` the
# reply each one spawns from (-1: a host's), at the first position of the
# parent's path where the child's starts.


def scenario_spawn_at_zero():
    """Spawns at position 0 (children placed before the parent,
    recursively), plus an ordinary one further along."""
    return dict(
        forest=(
            [
                [0, HUB, SINK],  # host
                [0, HUB, SINK],  # child of 0 at position 0
                [0, 5, 6],  # child of 0 at position 0
                [0, HUB, SINK],  # grandchild: child of 1 at position 0
                [HUB, SINK, 12],  # child of 0 at position 1
                [1, HUB, SINK],  # an unrelated host sharing the hub link
            ],
            [-1, 0, 0, 1, 0, -1],
        )
    )


def scenario_spawn_at_zero_on_ragged_rows():
    """Rows of different lengths side by side: a zero-hop child (reply
    1) whose position-0 spawn activates a long row next to it, and a
    position-0 spawn on a one-hop row behind a long host."""
    return dict(
        forest=(
            [
                [0, HUB, SINK, 12, 13],  # host: spawns 1 at position 1
                [HUB],  # zero hops: delivered on activation, spawns 2 first
                [HUB, SINK, 12, 13, 14],  # long row activated by the short one
                [1, HUB],  # host, one hop: spawns 4 at position 0
                [1, 5, 6, 7, HUB, SINK],  # long row activated at 3's start
            ],
            [-1, 0, 1, -1, 3],
        )
    )


def scenario_spawn_nested_three_deep():
    """Position-0 spawns nested three deep: activating 1 fires its own
    trigger, which activates 2, which activates 3 — placed 3, 2, 1 and
    only then the host, but counted in spawn order 1, 2, 3."""
    return dict(forest=([[0, HUB, SINK]] * 4 + [[1, HUB, SINK]], [-1, 0, 1, 2, -1]))


def scenario_spawn_shared_trigger():
    """Several children on one trigger activate in reply order, all
    before their parent."""
    return dict(
        forest=(
            [[0, HUB, SINK, 12]] + [[HUB, SINK, 12, 13]] * 3 + [[1, HUB, SINK, 12]],
            [-1, 0, 0, 0, -1],
        )
    )


def scenario_spawn_two_triggers():
    """Two triggers on one parent, its children absorbed later position
    first: the parent's next trigger advances past the one that fired."""
    return dict(
        forest=(
            [[0, 5, HUB, SINK], [HUB, SINK, 12, 13], [5, HUB, SINK, 12]],
            [-1, 0, 0],
        )
    )


def scenario_spawn_interleaved():
    """One large arrival batch — twelve host replies reach the hub in
    the same step — in which only the third, sixth and tenth fire a
    trigger: their children are spliced in *front* of them and nothing
    else moves, which the FIFO order on the hub's out-link records."""
    hosts = [[s, HUB, SINK] for s in range(12)]
    kids = [[HUB, SINK, 12 + k] for k in range(6)]
    return dict(forest=(hosts + kids, [-1] * 12 + [2, 5, 5, 9, 9, 9]))


def scenario_spawn_at_delivery():
    """A child absorbed where its parent's request started: it spawns
    at the last position of the parent's reply, the step that delivers
    the parent."""
    return dict(forest=([[0, HUB, SINK], [SINK, 12, 13], [1, HUB, SINK]], [-1, 0, -1]))


def scenario_spawn_at_a_revisited_node():
    """The host's reply passes the hub twice (a mesh route's run up a
    column and back): the child spawns at the first visit, position 1,
    not 3."""
    return dict(
        forest=(
            [[0, HUB, SINK, HUB, 5], [HUB, SINK, 12], [1, HUB, SINK]],
            [-1, 0, -1],
        )
    )


def scenario_spawn_deep_at_later_positions():
    """Four generations, each spawned past the start of its parent's
    row (positions 2, 2, 1), their rows crossing a host's reply."""
    return dict(
        forest=(
            [
                [0, 5, HUB, SINK, 12],  # host: spawns 1 at position 2
                [HUB, SINK, 13, 14],  # spawns 2 at position 2
                [13, 14, 15],  # spawns 3 at position 1
                [14, 16],
                [1, HUB, SINK, 13],  # an unrelated host
            ],
            [-1, 0, 1, 2, -1],
        )
    )


def scenario_spawn_never_triggered():
    """The budget ends before the host's reply reaches node 12, where
    reply 1's request was absorbed: reply 1 is never spawned, so it was
    never part of the run.  (Every other spawn happens — a parent walks
    its whole row — unless the run times out first, as this one does.)"""
    return dict(
        forest=([[0, HUB, SINK, 12, 13], [12, 20], [HUB, 21]], [-1, 0, 0]),
        max_steps=2,
    )


SCENARIOS = [
    scenario_all_solo,
    scenario_fan_in,
    scenario_interleaved_activation,
    scenario_waiters,
    scenario_stale_class_max,
    scenario_combining,
    scenario_resident_mid_chain,
    scenario_same_key_on_an_idle_link,
    scenario_deep_fifo_chain,
    scenario_width_one,
    scenario_spawn_at_zero,
    scenario_spawn_at_zero_on_ragged_rows,
    scenario_spawn_nested_three_deep,
    scenario_spawn_shared_trigger,
    scenario_spawn_two_triggers,
    scenario_spawn_interleaved,
    scenario_spawn_at_delivery,
    scenario_spawn_at_a_revisited_node,
    scenario_spawn_deep_at_later_positions,
    scenario_spawn_never_triggered,
]


@pytest.mark.usefixtures("checked_steps")
@pytest.mark.parametrize(
    "scenario, regime",
    [
        pytest.param(scenario, regime, id=f"{scenario.__name__[9:]}-{regime}")
        for scenario in SCENARIOS
        for regime in REGIMES
        # a Replies population is not supported with node_capacity
        if not ("forest" in scenario() and "node_capacity" in REGIMES[regime])
    ],
)
def test_scenario_matches_reference(scenario, regime):
    kwargs = scenario()
    f = (run_replies if "forest" in kwargs else run_both)(**kwargs, **REGIMES[regime])
    # a scenario that sets a budget is cut short by it
    assert f.completed == ("max_steps" not in kwargs)


def ragged_mixed():
    """Ragged rows through the hub, one of them a zero-hop packet
    (source == destination: delivered where it is injected) and one
    ending *at* the hub, so rows of every length meet at live queues."""
    return dict(
        paths=[
            [0, HUB, SINK],
            [1, 5, HUB, SINK],
            [2, HUB],
            [HUB],
            [3, 6, 7, HUB, SINK, 12],
            [4, HUB, SINK],
        ],
        inject=[0, 0, 0, 0, 0, 1],
    )


def ragged_all_zero_hop():
    """Every packet is delivered at injection; no link is ever used."""
    return dict(paths=[[3], [4], [3]])


#: ragged input must reach both batch modes, under every constraint
RAGGED_REGIMES = {**REGIMES, "capacity": dict(node_capacity=1)}


@pytest.mark.usefixtures("checked_steps")
@pytest.mark.parametrize("regime", RAGGED_REGIMES)
@pytest.mark.parametrize("scenario", [ragged_mixed, ragged_all_zero_hop])
def test_ragged_paths_match_reference(scenario, regime):
    kwargs = scenario()
    f = run_both(**kwargs, **RAGGED_REGIMES[regime])
    assert f.completed
    inject = kwargs.get("inject", [0] * len(kwargs["paths"]))
    assert f.hops == [len(r) - 1 + k for r, k in zip(kwargs["paths"], inject)]


@pytest.mark.usefixtures("checked_steps")
@pytest.mark.parametrize("regime", RAGGED_REGIMES)
@pytest.mark.parametrize(
    "paths", [[], np.empty((0, 3), dtype=np.int64)], ids=["list", "matrix"]
)
def test_empty_run_matches_reference(paths, regime):
    """No packets: zero steps, completed, in either batch mode."""
    kwargs = dict(RAGGED_REGIMES[regime])
    down = kwargs.pop("down", None)
    fast = FastPathEngine(**kwargs).run(
        paths,
        num_nodes=SINK + 1,
        max_steps=5,
        link_faults=DownUntil(*down) if down else None,
    )
    ref = SynchronousEngine(**kwargs).run([], lambda p: None, max_steps=5)
    assert_stats_equal(fast, ref)
    assert (fast.steps, fast.completed, fast.total_packets) == (0, True, 0)


def test_fan_in_order_is_source_activation_order():
    """The pinned order itself, not just agreement: sources were listed
    4, 2, 0, 3, 1 and all activate at t=0 in that (batch) order."""
    f = run_both(**scenario_fan_in())
    assert f.delays == [0, 1, 2, 3, 4]


def test_spawn_order_is_children_then_parent():
    """Placement order (the hub link's FIFO) and stats order, pinned as
    values: stats list the hosts' replies, then the spawned ones parents
    first; the queue holds the deepest child first and the host last."""
    f = run_replies(**scenario_spawn_nested_three_deep())
    # the link into the hub serves 3, 2, 1, 0 (reply 4 slips in behind
    # 3 from its own link); listed as hosts 0 and 4, then 1, 2, 3
    assert f.delays == [4, 1, 3, 2, 0]


def test_spawn_splice_leaves_the_rest_of_the_batch_in_place():
    f = run_replies(**scenario_spawn_interleaved())
    # hub-link order: 0 1 [12] 2 3 4 [13 14] 5 6 7 8 [15 16 17] 9 10 11;
    # hosts arrive there at t=1, children are injected there at t=1
    assert f.delays == [0, 1, 3, 4, 5, 8, 9, 10, 11, 15, 16, 17] + [2, 6, 7, 12, 13, 14]


def test_never_triggered_packets_are_not_counted():
    """Reply 1 of :func:`scenario_spawn_never_triggered` is left out of
    the stats and of ``order`` on every lane, as the reference engine
    never creates it."""
    forest = scenario_spawn_never_triggered()["forest"]
    f = run_replies(forest, max_steps=2)
    # reply 2 spawned at the hub at step 1, delivered at step 2; the
    # host's reply still on its way
    assert (f.total_packets, f.delivered, f.completed) == (2, 1, False)
    assert f.hops == [1]
    requests, _, hosts = reply_population(*forest)
    for name in LANES:
        engine = FastPathEngine()
        with forced_lane(name):
            engine.run(Replies(requests, hosts), num_nodes=22, max_steps=2)
        assert engine.last_arrays.order.tolist() == [0, 2], name


def test_anonymous_population_counts_like_packets():
    """A ``Replies`` population (how replies are routed: rows only, no
    ``Packet``) returns the stats the reference engine's reply packets
    do, field for field, listing the hosts' replies in host order and
    then the spawned ones in spawn order."""
    forest = scenario_spawn_interleaved()["forest"]
    requests, _, hosts = reply_population(*forest)
    engine = FastPathEngine()
    anonymous = engine.run(Replies(requests, hosts), num_nodes=SINK + 8, max_steps=400)
    assert_stats_equal(anonymous, run_replies(forest))
    assert engine.last_arrays.order.tolist() == [*range(12), *range(12, 18)]


def test_combining_counts_and_hosts():
    f = run_both(**scenario_combining())
    assert f.combines == 3  # K1, K2 into H; K4 into K3


def test_a_resident_in_the_middle_of_a_chain_absorbs():
    """Held behind a down hub link, R sits between X, which outranked it,
    and V when Y and then Z arrive with its key."""
    f = run_both(**scenario_resident_mid_chain(), down=((HUB, SINK), 4))
    assert (f.combines, f.max_queue) == (2, 4)


def test_the_first_same_key_arrival_on_an_idle_link_hosts():
    kwargs = scenario_same_key_on_an_idle_link()
    assert run_both(**kwargs).combines == 1
    paths, _ = delay_lines(kwargs["paths"], kwargs["inject"])
    engine = FastPathEngine()
    for name in LANES:
        with forced_lane(name):
            engine.run(
                paths,
                num_nodes=SINK + 3,
                max_steps=9,
                combine_groups=combine_groups(kwargs["addresses"], [9, SINK, SINK]),
            )
        arrays = engine.last_arrays
        assert (arrays.absorbed_by.tolist(), arrays.absorbed.tolist()) == ([2], [1])


def test_a_resident_held_on_a_down_link_absorbs():
    """R waits behind the down hub link; Y meets it there two steps on."""
    f = run_both(
        paths=[[0, HUB, SINK], [1, HUB, SINK], [2, HUB, SINK]],
        inject=[0, 2, 2],
        addresses=[7, 7, None],
        down=((HUB, SINK), 5),
    )
    assert f.combines == 1 and f.fault_stalls > 0


#: R and Y share a key and a route through node 5; B1 and B2 fill the
#: hub (capacity 2) behind its down out-link
STALL_PATHS = [[0, 5, HUB, SINK], [2, HUB, SINK], [3, HUB, SINK], [1, 5, HUB, SINK]]


def test_a_resident_held_by_a_credit_stall_absorbs():
    """Without escape buffers R stalls on (5, hub) — the hub is full —
    and is still that link's resident when Y arrives with its key."""
    f = run_both(
        paths=STALL_PATHS,
        inject=[0, 0, 0, 1],
        addresses=[7, None, None, 7],
        node_capacity=2,
        down=((HUB, SINK), 6),
    )
    assert f.combines == 1 and f.completed


def test_an_escape_buffer_occupant_is_no_resident():
    """R is credit-starved into the escape buffer of (5, hub) while the
    hub's out-link is down: its next link is the one Y and W queue on,
    with R's key, but an occupant is in no chain, so nobody combines."""
    #        R                 B1               B2
    paths = [[0, 5, HUB, SINK], [2, HUB, 20], [3, HUB, 21]]
    #         Y                 W
    paths += [[1, HUB, SINK], [4, HUB, SINK]]
    f = run_both(
        paths=paths,
        inject=[0, 0, 0, 2, 2],
        addresses=[7, None, None, 7, None],
        node_capacity=2,
        flow_control="credit",
        down=((HUB, SINK), 10),
    )
    assert (f.combines, f.escape_hops, f.completed) == (0, 1, True)


def test_a_deep_fifo_chain_combines_like_the_reference():
    f = run_both(**scenario_deep_fifo_chain())
    assert f.max_queue >= 20 and f.combines > 0


def test_numpy_repeated_index_assignment_keeps_last_write():
    """The first-writer scatters (and the residue's tail write) assume
    that a fancy assignment through a repeated index keeps the last
    value written — how NumPy iterates 1-D index arrays, but not a
    documented guarantee.  Pinned on its own so that a NumPy that
    changes it fails here, by name, and not only as a differential
    mismatch."""
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 50, size=5000)
    pos = np.arange(idx.size, dtype=np.int64)
    last = np.full(50, -1, dtype=np.int64)
    last[idx] = pos
    first = np.full(50, -1, dtype=np.int64)
    first[idx[::-1]] = pos[::-1]
    for link in range(50):
        hits = np.nonzero(idx == link)[0]
        assert (first[link], last[link]) == (hits[0], hits[-1])


@st.composite
def layered_instances(draw):
    """Dup-heavy many-to-one traffic on a narrow layered DAG: position k
    of every path lies in layer k (``k*m + r``), so with ``m`` of 1-3
    rows nearly every step has shared and busy links, repeated keys and
    mixed classes; acyclic, hence deadlock-free under credits."""
    m = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 4))
    n = draw(st.integers(1, 24))
    rows = st.lists(st.integers(0, m - 1), min_size=depth + 1, max_size=depth + 1)
    paths = [
        [k * m + r for k, r in enumerate(draw(rows))] for _ in range(n)
    ]
    hot = draw(st.integers(0, m - 1))
    for row in paths:  # hotspot: most packets end on one node
        if draw(st.integers(0, 3)):
            row[-1] = depth * m + hot
    if draw(st.booleans()):  # ragged: rows stop anywhere, some at once
        paths = [row[: draw(st.integers(1, depth + 1))] for row in paths]
    inject = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    out = dict(paths=paths, inject=inject)
    if draw(st.booleans()):
        out["priorities"] = [
            draw(st.lists(st.integers(0, 2), min_size=depth, max_size=depth))
            for _ in range(n)
        ]
    if draw(st.booleans()):
        out["addresses"] = [
            draw(st.sampled_from([None, 1, 2])) for _ in range(n)
        ]
    if draw(st.booleans()):
        out.update(node_capacity=draw(st.integers(1, 3)), flow_control="credit")
    if draw(st.booleans()):
        k = draw(st.integers(0, depth - 1))
        link = (k * m + draw(st.integers(0, m - 1)), (k + 1) * m + hot)
        out["down"] = (link, draw(st.integers(1, 4)))
    return out


@given(instance=layered_instances())
@settings(max_examples=60, deadline=None)
def test_hotspot_sweep_matches_reference(instance):
    run_both(**instance)


def test_a_wire_to_a_node_outside_the_id_space_blocks_nothing():
    """A shrunk counterexample of the sweep above: a down wire to node 3
    of a run whose paths name nodes 0-2 only.  The reference engine
    never meets it, so the fast one must not fold its
    ``u * num_nodes + w`` code onto the delay-line wire (1, 0) and hold
    packet 0 a step."""
    f = run_both([[0], [0]], inject=[1, 1], down=((0, 3), 1))
    assert (f.steps, f.fault_stalls) == (1, 0)


#: priority values a furthest-first sweep draws from: a dense handful
#: (ties are the common case) and a sparse, wide tail — what a table per
#: (link, priority value) would pay 10^6 slots a link for
PRIORITY_VALUES = st.one_of(
    st.integers(0, 3), st.sampled_from([0, 999_999, 10**6]), st.integers(0, 10**6)
)


@st.composite
def deep_queue_instances(draw):
    """40-60 packets from sources of their own through ``feeders`` nodes
    into one hub link: queues >= 40 deep behind it when nothing
    constrains them, arrivals of several steps meeting waiters of every
    priority.  Crossed with combining, ``node_capacity`` (with and
    without credits) and a down hub link."""
    n = draw(st.integers(40, 60))
    feeders = draw(st.integers(1, 3))
    hub, sink = n + feeders, n + feeders + 1
    paths = [[i, n + draw(st.integers(0, feeders - 1)), hub, sink] for i in range(n)]
    out = dict(
        paths=paths,
        inject=draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        priorities=[
            draw(st.lists(PRIORITY_VALUES, min_size=3, max_size=3)) for _ in range(n)
        ],
        max_steps=4 * n + 50,
    )
    if draw(st.booleans()):
        out["addresses"] = [draw(st.sampled_from([None, 1, 2, 3])) for _ in range(n)]
    if draw(st.booleans()):
        out["node_capacity"] = draw(st.integers(2, 50))
        out["flow_control"] = draw(st.sampled_from(["none", "credit"]))
    if draw(st.booleans()):
        out["down"] = ((hub, sink), draw(st.integers(1, 45)))
    return out


@given(instance=deep_queue_instances())
@settings(max_examples=40, deadline=None)
def test_deep_prioritised_queues_match_reference(instance):
    f = run_both(**instance)
    if "node_capacity" not in instance and "addresses" not in instance:
        # everyone is pushed onto a feeder's out-link within four steps
        assert f.max_queue >= 40 // 3


@given(
    side=st.integers(4, 7),
    hot_share=st.sampled_from([0, 2, 4]),
    combine=st.booleans(),
    constraint=st.sampled_from([None, ("none", 3), ("credit", 2), ("credit", 4)]),
    down_for=st.sampled_from([0, 5, 30]),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=30, deadline=None)
def test_mesh_furthest_first_matches_reference(
    side, hot_share, combine, constraint, down_for, seed
):
    """The §3.4 router under many-one traffic (``hot_share`` of every
    four packets go to one node), CRCW combining, capacity with and
    without credits, and a wire that is down for the first steps;
    without ``combine`` the requests carry no keys."""
    mesh = Mesh2D.square(side)
    n = mesh.num_nodes
    rng = np.random.default_rng(seed)
    dests = rng.integers(0, n, size=n)
    dests[rng.integers(0, 4, size=n) < hot_share] = int(rng.integers(0, n))
    addresses = rng.integers(0, 3, size=n).tolist()
    u = int(rng.integers(0, n - side))
    wire = (u, u + side) if rng.integers(0, 2) else (u + side, u)  # a column wire
    sched = FaultSchedule().link_down(0, wire).link_up(down_for, wire)
    flow, capacity = constraint or ("none", None)

    def run(engine):
        router = MeshRouter(
            mesh,
            seed=seed,
            node_capacity=capacity,
            flow_control=flow,
            engine=engine,
            link_faults=LinkFaultTimeline(sched.link_events) if down_for else None,
        )
        return router.route(
            range(n),
            dests,
            max_steps=60 * side + 200,
            combine_keys=np.asarray(addresses) * n + dests if combine else None,
        )

    ref, ref_dead = _routed(lambda: run("reference"))
    for name in LANES:
        with forced_lane(name):
            fast, fast_dead = _routed(lambda: run("fast"))
        assert fast_dead == ref_dead, name
        assert fast.run_mode == ("batch" if capacity is None else "batch-constrained")
        assert_stats_equal(fast, ref)


@given(
    n=st.integers(8, 48),
    total=st.integers(1, 120),
    hot=st.booleans(),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=30, deadline=None)
def test_linear_furthest_first_matches_reference(n, total, hot, seed):
    """§3.4.1's line, random and many-one (everybody to one end node's
    neighbourhood: queues as deep as the instance is large)."""
    rng = np.random.default_rng(seed)
    origins = rng.integers(0, n, size=total).tolist()
    dests = rng.integers(n - 2 if hot else 0, n, size=total).tolist()
    ref = route_linear(n, origins, dests, engine="reference")
    for name in LANES:
        with forced_lane(name):
            fast = route_linear(n, origins, dests, engine="fast")
        assert fast.completed and fast.run_mode == "batch"
        assert_stats_equal(fast, ref)


def test_many_one_on_the_32x32_mesh_matches_reference():
    """1,024 packets to one corner: queues 46 deep in which packets
    still in their first stage starve behind a run of equal, larger
    priorities — the worst case of the arrival-side walk, which passes
    that whole run once per arrival (see ``insert_ahead``)."""
    mesh = Mesh2D.square(32)
    n = mesh.num_nodes

    def run(engine):
        return MeshRouter(mesh, seed=3, engine=engine).route(
            np.arange(n), np.zeros(n, dtype=np.int64), max_steps=5000
        )

    ref = run("reference")
    for name in LANES:
        with forced_lane(name):
            fast = run("fast")
        assert (fast.completed, fast.steps, fast.max_queue) == (True, 997, 46)
        assert_stats_equal(fast, ref)
