"""The reply population laid out two ways: lists ≡ arrays ≡ ``ReplySpawner``.

``FastPathEngine.run`` takes the replies of a finished CRCW read run as
one :class:`~repro.routing.fast_phases.Replies` population and lays it
out on the lane its size chooses: straight into the scalar lane's lists
from the request run's own tables (``fast_scalar.reply_run``: a queue
walk of the absorptions, each reply's hop keys its request's reversed,
merge positions by ``list.index``, triggers straight into the lists
``SpawnTables.fire`` walks), or in arrays for the vector lane
(``fast_phases.reply_layout``).  Here both layouts of generated
combining forests must give the same ``RoutingStats`` field for field
(``max_node_load`` included, under ``dataclasses.asdict``), and both
the reference engine's, walking recorded traces with ``ReplySpawner``.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import RUN_LANES, forced_run_lane

from repro.emulation.combining import MergeNodeMissingError, route_replies_fast
from repro.routing import LeveledRouter, fast_phases
from repro.routing import fast_engine, fast_scalar
from repro.routing.fast_engine import FastPathEngine
from repro.routing.fast_phases import Replies
from repro.topology import DAryButterflyLeveled
from test_fast_engine import assert_stats_equal
from test_reply_phase import hand_built_requests, reference_replies

#: small node ids, so walks revisit nodes and share links
NODES = 7


def laid_out(requests, hosts, num_nodes, lane=None, budget=200):
    """The reply run of *hosts* — on *lane*, or at the default
    ``SCALAR_RUN_MAX`` — and which layout built it."""
    built = []
    reply_run, reply_layout = fast_scalar.reply_run, fast_phases.reply_layout

    def lists(*args, **kwargs):
        built.append("lists")
        return reply_run(*args, **kwargs)

    def arrays(*args, **kwargs):
        built.append("arrays")
        return reply_layout(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fast_scalar, "reply_run", lists)
        mp.setattr(fast_engine, "reply_layout", arrays)
        if lane is not None:
            mp.setattr(fast_scalar, "SCALAR_RUN_MAX", RUN_LANES[lane])
        stats = route_replies_fast(requests, hosts, budget=budget, num_nodes=num_nodes)
    return stats, built


def assert_three_ways(requests, packets, hosts, num_nodes):
    """Lists ≡ arrays field for field, and both ≡ the reference engine;
    the list builder also ≡ itself keying hops by their own codes."""
    lists, by_lists = laid_out(requests, hosts, num_nodes, "scalar")
    arrays, by_arrays = laid_out(requests, hosts, num_nodes, "vector")
    assert by_lists == ["lists"]
    assert by_arrays == (["arrays"] if len(hosts) else ["lists"])
    assert dataclasses.asdict(lists) == dataclasses.asdict(arrays)
    reference = reference_replies(packets, hosts)
    assert_stats_equal(lists, reference)
    codes, _ = laid_out(
        replace(requests, links=None, slot_keys=None), hosts, num_nodes, "scalar"
    )
    assert dataclasses.asdict(codes) == dataclasses.asdict(lists)
    return lists


@st.composite
def walk(draw, start=None, length=None):
    """A walk over ``NODES`` ids, revisits allowed (a mesh same-column
    route passes nodes twice), never standing still on a hop."""
    nodes = [draw(st.integers(0, NODES - 1)) if start is None else start]
    for _ in range(draw(st.integers(0, 5)) if length is None else length):
        step = draw(st.integers(1, NODES - 1))
        nodes.append((nodes[-1] + step) % NODES)
    return nodes


@st.composite
def forests(draw):
    """A finished CRCW request run as rows, stop hops and absorptions:
    roots delivered at their last node; every other row absorbed, in a
    drawn order, at a node of a row before it — at its merge position,
    on the absorbing row's travelled prefix (position 0 included, so
    position-0 cascades and zero-hop replies arise), its own itinerary
    running on past it.  Read hosts are a drawn subset of the roots,
    possibly empty."""
    rows, hops, parent_of = [], [], []
    for i in range(draw(st.integers(1, 9))):
        if i and draw(st.integers(0, 2)):
            parent = draw(st.integers(0, i - 1))
            position = draw(st.integers(0, hops[parent]))
            merge = rows[parent][position]
            # a walk that ends at the merge node: reversed from it
            back = draw(walk(start=merge))[::-1]
            rows.append(back + draw(walk(start=merge))[1:])
            hops.append(len(back) - 1)
            parent_of.append(parent)
        else:
            rows.append(draw(walk()))
            hops.append(len(rows[-1]) - 1)
            parent_of.append(-1)
    children = [i for i, p in enumerate(parent_of) if p >= 0]
    order = draw(st.permutations(children))
    absorbed_by = [parent_of[c] for c in order]
    roots = [i for i, p in enumerate(parent_of) if p < 0]
    hosts = [r for r in roots if draw(st.booleans())]
    return rows, hops, absorbed_by, list(order), hosts


@given(case=forests())
@settings(max_examples=150, deadline=None)
def test_list_built_replies_match_the_array_layout_and_the_reference(case):
    rows, hops, absorbed_by, absorbed, hosts = case
    requests, packets = hand_built_requests(rows, hops, absorbed_by, absorbed)
    assert_three_ways(requests, packets, hosts, NODES)


def test_a_merge_node_twice_on_the_parent_and_a_position_0_cascade():
    """The generator's hard cases, pinned: the parent's reverse path
    passes the merge node twice (the child spawns at the first visit),
    and a zero-hop grandchild spawns the moment its parent's reply
    starts, with a second grandchild behind it on a longer row."""
    stats = assert_three_ways(
        *hand_built_requests(
            rows=[[0, 1, 2, 3, 2, 1], [4, 3, 2, 5], [2], [6, 4, 5, 3, 2]],
            hops=[5, 2, 0, 4],
            absorbed_by=[0, 1, 1],
            absorbed=[1, 2, 3],
        ),
        hosts=[0],
        num_nodes=NODES,
    )
    assert stats.delivered == 4 and stats.hops == [5, 2, 0, 4]


def test_an_empty_host_set_routes_nothing_on_either_layout():
    requests, packets = hand_built_requests([[0, 1, 2], [3, 2]], [2, 1], [0], [1])
    stats = assert_three_ways(requests, packets, [], NODES)
    assert (stats.total_packets, stats.steps, stats.completed) == (0, 0, True)


def test_a_missing_merge_node_is_the_same_error_on_both_layouts():
    """Absorption at a node the parent never visited: the list builder's
    ``list.index`` miss and the array layout's empty hit both name the
    child row, the parent row and the node."""
    requests, _ = hand_built_requests([[0, 1, 2], [5, 6]], [2, 1], [0], [1])
    for lane in ("scalar", "vector"):
        with forced_run_lane(lane), pytest.raises(MergeNodeMissingError) as exc:
            route_replies_fast(requests, [0], budget=10, num_nodes=NODES)
        assert (exc.value.child_row, exc.value.parent_row, exc.value.merge_node) == (
            1,
            0,
            6,
        )


def routed_hot_reads(engine, seed, levels=6, n=None, keys=6):
    """*n* (three per row unless given) CRCW reads of *keys* hot
    addresses on a ``2**levels``-row butterfly, each address's module
    its own exit row — 192 reads on 64 rows by default: the router,
    the rows it delivered as hosts, the node count and the run's
    stats."""
    net = DAryButterflyLeveled(2, levels)
    rng = np.random.default_rng(seed)
    n = 3 * net.column_size if n is None else n
    dests = rng.integers(0, keys, n)
    router = LeveledRouter(net, seed=seed, engine=engine)
    stats = router.route(
        np.arange(n) % net.column_size, dests, max_steps=400, combine_keys=dests
    )
    _, arrived = router.row_outcomes()
    hosts = np.setdiff1d(np.flatnonzero(arrived >= 0), router.absorbed_rows())
    return router, hosts.tolist(), (2 * net.num_levels + 1) * net.column_size, stats


@given(seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=20, deadline=None)
def test_small_replies_of_a_vector_lane_request_are_built_from_its_arrays(seed, data):
    """A request run on the vector lane leaves link ids and no hop-key
    list; replies to a few of its hosts are small enough for lists, read
    off its arrays (``links[0]``, one ``.tolist()``), and agree with the
    array layout of the same ids and with the reference engine."""
    with forced_run_lane("vector"):
        router, hosts, num_nodes, _ = routed_hot_reads("fast", seed)
    ref_router, ref_hosts, _, _ = routed_hot_reads("reference", seed)
    ref_packets = ref_router.last_packets
    requests = router.last_fast_run
    assert requests.slot_keys is None and requests.links is not None
    assert hosts == ref_hosts
    picked = sorted(data.draw(st.lists(st.sampled_from(hosts), max_size=6, unique=True)))
    lists, by_lists = laid_out(requests, picked, num_nodes, budget=400)
    arrays, by_arrays = laid_out(requests, picked, num_nodes, "vector", budget=400)
    assert by_lists == ["lists"]
    assert by_arrays == (["arrays"] if picked else ["lists"])
    assert dataclasses.asdict(lists) == dataclasses.asdict(arrays)
    assert_stats_equal(lists, reference_replies(ref_packets, picked))


def test_a_replies_population_takes_nothing_else():
    """It brings its own itineraries, keys, spawn triggers and combining."""
    requests, _ = hand_built_requests([[0, 1, 2]], [2], [], [])
    replies = Replies(requests, np.asarray([0]))
    engine = FastPathEngine()
    for extra in (
        dict(links=requests.links),
        dict(priorities=[[1, 2]]),
        dict(combine_groups=[0]),
    ):
        with pytest.raises(ValueError, match="Replies population"):
            engine.run(replies, num_nodes=NODES, max_steps=10, **extra)
    with pytest.raises(ValueError, match="not supported with node_capacity"):
        FastPathEngine(node_capacity=2).run(replies, num_nodes=NODES, max_steps=10)
