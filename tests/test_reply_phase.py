"""The CRCW reply phase in arrays: fast ≡ ``ReplySpawner``, field for field.

``route_replies_fast`` hands the engine the combining forest as one
``Replies`` population, laid out breadth first on reversed compiled
request paths with static spawn triggers; the reference engine walks recorded traces with ``ReplySpawner``
deciding, arrival by arrival, which child replies to spawn.  The step
costs only carry three numbers of a reply run, so the sweeps here
compare the reply ``RoutingStats`` themselves — including the order of
``delays`` / ``hops``, which is the forest's breadth-first order — on
generated hot-key steps.

Every comparison is three-way.  On the vector lane the fast reply run
inherits its link ids from the request run (``RunArrays.links``: the
request's ids, the endpoint tables swapped) instead of interning the
reply matrix; on the scalar lane a leveled request run keys its hops by
their ``(src, dst)`` codes and leaves no ids, so its reply run keys its
own.  Since link ids are opaque to the engine, the same reply run with
``links=None`` must give the same stats, and both must equal the
reference engine's.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulation import LeveledEmulator, MeshEmulator
from repro.emulation.combining import (
    MergeNodeMissingError,
    ReplySpawner,
    build_replies,
    reply_next_hop,
    route_replies_fast,
)
from repro.pram.trace import RequestColumns
from repro.routing import LeveledRouter, Packet, SynchronousEngine
from repro.routing import fast_phases, fast_scalar
from repro.routing.fast_engine import FastPathEngine, RunArrays
from repro.routing.metrics import stats_from_arrays
from repro.routing.packet import packet_outcomes
from repro.topology import DAryButterflyLeveled, FlatPaths, Mesh2D, StarLogicalLeveled
from test_fast_engine import assert_stats_equal

# every fast run on the scalar lane (``tests/conftest.py``);
# ``test_reply_phase_vector_lane.py`` runs this module on the vector lane
pytestmark = pytest.mark.usefixtures("run_lane")


def rows_of(packets) -> list[int]:
    """A request packet's pid is its row of the routed population."""
    return [p.pid for p in packets]


def reply_stats(make_emulator, step, engine):
    """The reply run's ``RoutingStats`` of one emulated step, plus its
    cost.  A fast reply run is made twice — on whatever ids its request
    run left (what the emulator does) and with none — and must agree."""
    emulator = make_emulator(engine)
    # the mesh hands every run its arithmetic link ids; a leveled run
    # has none unless the vector lane interned them
    handed = isinstance(emulator, MeshEmulator)
    seen = []
    inner = emulator._reverse_path_replies

    def spy(router, read_hosts, **kwargs):
        seen.append(inner(router, read_hosts, **kwargs))
        requests = router.last_fast_run
        if requests is not None:
            # flat, exact-length rows: offsets from 0 to the node count
            # and one link id per hop of the rows, nothing past their ends
            paths, n = requests.paths, requests.hops.size
            assert paths.offsets.shape == (n + 1,)
            assert paths.offsets[-1] == paths.nodes.size
            if fast_scalar.takes(n, None, None) and not handed:
                assert requests.links is None
            else:
                assert requests.links[0].shape == (paths.nodes.size - n,)
            assert (requests.hops <= paths.hops).all()
            # the emulator's read hosts are rows of the request run
            interned = route_replies_fast(
                replace(requests, links=None, slot_keys=None), read_hosts, **kwargs
            )
            assert_stats_equal(seen[-1], interned)
        return seen[-1]

    emulator._reverse_path_replies = spy
    cost = emulator.emulate_step(step)
    (stats,) = seen
    return stats, cost


def assert_reply_phase_matches(make_emulator, step):
    fast, fast_cost = reply_stats(make_emulator, step, "fast")
    ref, ref_cost = reply_stats(make_emulator, step, "reference")
    assert (fast.run_mode, ref.run_mode) == ("batch", "reference")
    assert_stats_equal(fast, ref)
    assert fast.completed and fast.delivered == np.count_nonzero(step.is_read)
    assert fast_cost.combines == ref_cost.combines
    return fast_cost


@st.composite
def hot_mesh_steps(draw):
    """CRCW reads on a small mesh under direct placement (address =
    module), drawn so that many readers share a few addresses and many
    of those sit in the reader's own column: such a route runs up the
    column to its random row and back down it, so the reply path visits
    nodes twice — the first-occurrence rule of the spawn triggers."""
    rows = draw(st.integers(3, 6))
    cols = draw(st.integers(2, 5))
    n = rows * cols
    hot = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    reads = []
    for pid in range(n):
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                addr = draw(st.sampled_from(hot))
            else:  # a module in the reader's own column
                addr = draw(st.integers(0, rows - 1)) * cols + pid % cols
            reads.append((pid, addr))
    writes = [
        (pid, draw(st.sampled_from(hot)), pid)
        for pid in draw(st.lists(st.integers(0, n - 1), max_size=3))
    ]
    return rows, cols, draw(st.integers(0, 2**16)), RequestColumns.of(reads=reads, writes=writes)


@given(case=hot_mesh_steps())
@settings(max_examples=40, deadline=None)
def test_mesh_hot_key_replies_match_reference(case):
    rows, cols, seed, step = case
    if not step.is_read.any():
        return
    mesh = Mesh2D(rows, cols)

    def make(engine):
        return MeshEmulator(
            mesh, rows * cols, mode="crcw", placement="direct", seed=seed, engine=engine
        )

    assert_reply_phase_matches(make, step)


LEVELED = {
    "butterfly": lambda: DAryButterflyLeveled(2, 4),
    "star": lambda: StarLogicalLeveled(4),
}


@st.composite
def hot_leveled_steps(draw, num_processors):
    space = 4 * num_processors
    hot = draw(st.lists(st.integers(0, space - 1), min_size=1, max_size=3))
    reads = [
        (
            pid,
            draw(st.sampled_from(hot))
            if draw(st.integers(0, 3))
            else draw(st.integers(0, space - 1)),
        )
        for pid in range(num_processors)
        for _ in range(draw(st.integers(0, 2)))
    ]
    return draw(st.integers(0, 2**16)), RequestColumns.of(reads=reads)


@pytest.mark.parametrize("network", LEVELED)
@pytest.mark.parametrize("intermediate", ["coin", "node"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_leveled_hot_key_replies_match_reference(network, intermediate, data):
    net = LEVELED[network]()
    seed, step = data.draw(hot_leveled_steps(net.column_size))
    if not step.is_read.any():
        return

    def make(engine):
        return LeveledEmulator(
            net,
            4 * net.column_size,
            mode="crcw",
            intermediate=intermediate,
            seed=seed,
            engine=engine,
        )

    assert_reply_phase_matches(make, step)


def test_same_column_hot_spot_builds_deep_forests():
    """The generated sweeps only help if they reach the hard case; this
    one is it by construction: every processor of a 6x3 mesh reads one
    address in column 0, twice."""
    mesh = Mesh2D(6, 3)
    step = RequestColumns.of(reads=[(pid, 9) for pid in range(18)] * 2)

    def make(engine):
        return MeshEmulator(
            mesh, 18, mode="crcw", placement="direct", seed=11, engine=engine
        )

    cost = assert_reply_phase_matches(make, step)
    assert cost.combines > np.count_nonzero(step.is_read) // 2  # most replies are spawned


# ---- the shapes the link hand-over has to survive ---------------------------


@pytest.mark.parametrize("far_write", [False, True])
def test_hosts_that_never_left_their_node_reply_on_an_empty_link_matrix(far_write):
    """Every read targets the reader's own node (direct placement,
    one-row slices: no stage-0 detour), so every host stops at hop 0 and
    the reply matrix is one column wide — an ``(n, 0)`` link matrix,
    gathered from a request link matrix that is itself ``(n, 0)`` or,
    with a write crossing the mesh, has columns nobody's reply uses."""
    mesh = Mesh2D(3, 4)
    step = RequestColumns.of(
        reads=[(pid, pid) for pid in range(12)],
        writes=[(0, 11, 5)] if far_write else [],
    )

    def make(engine):
        return MeshEmulator(
            mesh,
            12,
            mode="crcw",
            placement="direct",
            slice_rows=1,
            seed=2,
            engine=engine,
        )

    cost = assert_reply_phase_matches(make, step)
    assert cost.reply_steps == 0
    assert (cost.request_steps > 0) == far_write


def routed_hot_requests(engine, max_steps):
    """Hot-key CRCW reads on a butterfly under a step budget too small
    for all of them: the router after the request run."""
    net = DAryButterflyLeveled(2, 4)
    rng = np.random.default_rng(8)
    n = 3 * net.column_size
    dests = rng.integers(0, 3, n)
    router = LeveledRouter(net, seed=21, engine=engine)
    stats = router.route(
        np.arange(n) % net.column_size, dests, max_steps=max_steps, combine_keys=dests
    )
    assert not stats.completed and 0 < stats.delivered
    return router


def test_undelivered_request_rows_stay_out_of_the_reply_run():
    """A request run that timed out leaves rows that never arrived —
    some of them hosts holding absorbed children.  Replies go to the
    delivered hosts' forests only, and the link gather reads nothing of
    the rest: inherited ≡ self-interned ≡ reference."""
    requests = routed_hot_requests("fast", 9).last_fast_run
    ref_packets = routed_hot_requests("reference", 9).last_packets
    hosts = [p for p in ref_packets if p.delivered and not p.combined]
    arrived = np.flatnonzero(requests.arrived >= 0)
    assert rows_of(hosts) == np.setdiff1d(arrived, requests.absorbed).tolist()
    stranded = set(np.nonzero(requests.arrived < 0)[0].tolist())
    assert stranded & set(requests.absorbed_by.tolist())
    kwargs = dict(budget=200, num_nodes=int(requests.paths.nodes.max()) + 1)
    inherited = route_replies_fast(requests, rows_of(hosts), **kwargs)
    interned = route_replies_fast(
        replace(requests, links=None), rows_of(hosts), **kwargs
    )
    reference = SynchronousEngine().run(
        build_replies(hosts),
        reply_next_hop,
        max_steps=200,
        on_arrival=ReplySpawner(),
    )
    assert_stats_equal(inherited, interned)
    assert_stats_equal(inherited, reference)
    # one reply per request that arrived, as a host or absorbed into one
    assert inherited.completed
    assert len(hosts) < inherited.delivered == len(ref_packets) - len(stranded)


def test_a_step_interns_its_links_once(monkeypatch, run_lane):
    """One CRCW step on the star's logical network, counted.  On the
    vector lane the request run interns the links its batch crosses and
    the reply run is handed them — never a second sort, never the
    network's id space.  On the scalar lane neither run interns: the
    request run keys its hops by their ``(src, dst)`` codes and leaves
    no ids, and the reply run keys its hops by those same codes,
    reversed — one code pass per step."""
    net = StarLogicalLeveled(4)
    calls = []
    inner = fast_phases.link_tables

    def spy(paths, links, num_nodes):
        tables = inner(paths, links, num_nodes)
        calls.append((links is None, tables[1].size, tables[0].size))
        return tables

    monkeypatch.setattr(fast_phases, "link_tables", spy)
    coded = []
    codes = fast_phases.hop_codes

    def spy_codes(paths, num_nodes):
        coded.append(paths.offsets.size - 1)
        return codes(paths, num_nodes)

    monkeypatch.setattr(fast_phases, "hop_codes", spy_codes)
    arrays = []
    run = FastPathEngine.run

    def spy_run(self, *args, **kwargs):
        stats = run(self, *args, **kwargs)
        arrays.append(self.last_arrays)
        return stats

    monkeypatch.setattr(FastPathEngine, "run", spy_run)
    emulator = LeveledEmulator(
        net, 4 * net.column_size, mode="crcw", seed=5, engine="fast"
    )
    rng = np.random.default_rng(6)
    reads = [
        (pid, int(addr))
        for pid, addr in enumerate(rng.integers(0, 8, net.column_size))
    ]
    cost = emulator.emulate_step(RequestColumns.of(reads=reads))
    assert cost.run_modes == ("batch", "batch") and cost.combines
    request, reply = arrays
    if run_lane == "scalar":
        assert calls == []
        assert request.links is None and reply.links is None
        # the request's codes, and no codes of the reply's own
        assert coded == [request.hops.size]
        assert set(reply.slot_keys) <= set(request.slot_keys)
        return
    (req_interned, req_links, req_hops), (rep_interned, rep_links, _) = calls
    assert (req_interned, rep_interned) == (True, False)
    assert rep_links == req_links <= req_hops
    # the reply crosses the request's links the other way
    assert np.array_equal(reply.links[1], request.links[2])
    assert np.array_equal(reply.links[2], request.links[1])


def hand_built_requests(rows, hops, absorbed_by, absorbed):
    """``RunArrays`` of a finished CRCW request run, built by hand, and the
    reference engine's ``Packet`` view of the same run (trace = the row
    up to its hop, children in absorption order)."""
    widths = [len(r) for r in rows]
    paths = FlatPaths(
        np.asarray([v for r in rows for v in r], dtype=np.int64),
        np.asarray([0, *np.cumsum(widths)], dtype=np.int64),
    )
    n = len(rows)
    arrays = RunArrays(
        paths=paths,
        links=fast_phases.link_tables(paths, None, int(paths.nodes.max()) + 1),
        hops=np.asarray(hops, dtype=np.int64),
        arrived=np.zeros(n, dtype=np.int64),
        injected_at=np.zeros(n, dtype=np.int64),
        absorbed_by=np.asarray(absorbed_by, dtype=np.int64),
        absorbed=np.asarray(absorbed, dtype=np.int64),
        order=None,
        steps=0,
        completed=True,
        max_queue=1,
        max_node_load=1,
        combines=len(absorbed),
        credits_stalled=0,
        escape_hops=0,
        fault_stalls=0,
        deadlock=None,
    )
    packets = []
    for i, (row, k) in enumerate(zip(rows, hops)):
        p = Packet(i, row[0], row[-1], address=0)
        p.trace, p.node = list(row[: k + 1]), row[k]
        packets.append(p)
    for h, c in zip(absorbed_by, absorbed):
        packets[h].children = (packets[h].children or []) + [packets[c]]
        packets[c].combined = True
    return arrays, packets


def reply_population(paths, parents):
    """A CRCW request run built by hand from the replies it must give:
    ``paths[j]`` is reply j's itinerary and ``parents[j]`` the reply it
    spawns from, -1 for a read host's (hosts are routed in listed order,
    the children of one parent absorbed in listed order).  A child's
    request was absorbed where its reply starts, so it spawns where its
    parent's reply first gets there.  Returns :func:`hand_built_requests`
    of the reversed paths and the host rows: ``(requests, packets,
    hosts)``, the engine's population being ``Replies(requests,
    hosts)``."""
    kids = [j for j, parent in enumerate(parents) if parent >= 0]
    requests, packets = hand_built_requests(
        [row[::-1] for row in paths],
        [len(row) - 1 for row in paths],
        [parents[j] for j in kids],
        kids,
    )
    return requests, packets, [j for j, parent in enumerate(parents) if parent < 0]


def reference_replies(packets, hosts, *, max_steps=200, link_faults=None):
    """The reference engine's reply run of request *packets*' *hosts*:
    traces walked back, children spawned by ``ReplySpawner``."""
    return SynchronousEngine().run(
        build_replies([packets[i] for i in hosts]),
        reply_next_hop,
        max_steps=max_steps,
        on_arrival=ReplySpawner(),
        link_faults=link_faults,
    )


def assert_replies_match(rows, hops, absorbed_by, absorbed, host_rows):
    arrays, packets = hand_built_requests(rows, hops, absorbed_by, absorbed)
    num_nodes = int(arrays.paths.nodes.max()) + 1
    fast = route_replies_fast(arrays, host_rows, budget=50, num_nodes=num_nodes)
    interned = route_replies_fast(
        replace(arrays, links=None), host_rows, budget=50, num_nodes=num_nodes
    )
    ref = reference_replies(packets, host_rows, max_steps=50)
    assert_stats_equal(fast, ref)
    assert_stats_equal(interned, ref)
    return fast


def test_a_revisited_merge_node_spawns_at_its_first_visit():
    """A same-column mesh route runs up to its random row and back down
    the column, so its reply passes the nodes below that row twice.  The
    child absorbed at node 2 spawns the first time the parent's reply
    gets there — position 1, not 3 — as ``ReplySpawner`` does."""
    fast = assert_replies_match(
        rows=[[0, 1, 2, 3, 2, 1], [4, 3, 2]],
        hops=[5, 2],
        absorbed_by=[0],
        absorbed=[1],
        host_rows=[0],
    )
    # spawned at step 1, the child's reply is queued ahead of its parent's
    # on link (2, 3) and delays it a step; spawned at the later visit it
    # would have met nobody (5 steps, no delays)
    assert fast.hops == [5, 2] and fast.steps == 6
    assert fast.delays == [1, 0]


def test_a_position_0_trigger_on_a_short_row_beside_a_long_one():
    """Rows of every length side by side: a one-hop child whose reply
    starts where its own child was absorbed (a trigger at position 0 of
    the short row) next to long rows, a host that never moved, and a
    grandchild deep in the forest."""
    assert_replies_match(
        rows=[[0, 1, 2, 3, 4], [9], [6, 2], [10, 11, 12, 13, 14, 2], [7, 11]],
        hops=[4, 0, 1, 5, 1],
        absorbed_by=[0, 2, 3],
        absorbed=[2, 3, 4],
        host_rows=[0, 1],
    )


# ---- the packet form in columns ---------------------------------------------


def test_packet_outcomes_reads_the_packet_form():
    """Same packets, once as objects and once as three arrays: the
    columns are the arrays, row for row, and the stats built from
    either agree; undelivered packets are counted but not measured."""
    rng = np.random.default_rng(5)
    n = 40
    hops = rng.integers(0, 9, n)
    injected = rng.integers(0, 4, n)
    arrived = injected + hops + rng.integers(0, 6, n)
    arrived[rng.random(n) < 0.3] = -1
    packets = []
    for i in range(n):
        p = Packet(i, 0, 1)
        p.hops = int(hops[i])
        p.injected_at = int(injected[i])
        p.arrived_at = None if arrived[i] < 0 else int(arrived[i])
        packets.append(p)
    columns = packet_outcomes(packets)
    for column, array in zip(columns, (hops, injected, arrived)):
        assert column.dtype == np.int64
        np.testing.assert_array_equal(column, array)
    counters = dict(
        steps=17,
        max_queue=3,
        completed=False,
        combines=2,
        max_node_load=5,
        credits_stalled=7,
        escape_hops=1,
        fault_stalls=4,
        run_mode="reference",
    )
    stats = stats_from_arrays(*columns, **counters)
    assert stats == stats_from_arrays(hops, injected, arrived, **counters)
    done = arrived >= 0
    assert stats.delivered == int(done.sum()) and 0 < stats.delivered < n
    assert stats.total_packets == n
    assert stats.hops == hops[done].tolist()
    assert stats.delays == (arrived - injected - hops)[done].tolist()
    assert all(type(v) is int for v in stats.delays + stats.hops)
    assert [c.shape for c in packet_outcomes([])] == [(0,)] * 3


# ---- the typed failure ------------------------------------------------------


def test_missing_merge_node_is_a_typed_error():
    """Arrays that disagree with one another — request 1 claims to have
    been absorbed by request 0 at node 7, which request 0 never visited —
    name the rows and the node instead of a bare RuntimeError."""
    empty = np.empty(0, dtype=np.int64)
    paths = FlatPaths.from_matrix([[0, 1, 2], [5, 6, 7]])
    requests = RunArrays(
        paths=paths,
        links=fast_phases.link_tables(paths, None, 8),
        hops=np.asarray([2, 2], dtype=np.int64),
        arrived=np.asarray([2, 2], dtype=np.int64),
        injected_at=np.zeros(2, dtype=np.int64),
        absorbed_by=np.asarray([0], dtype=np.int64),
        absorbed=np.asarray([1], dtype=np.int64),
        order=None,
        steps=2,
        completed=True,
        max_queue=1,
        max_node_load=1,
        combines=1,
        credits_stalled=0,
        escape_hops=0,
        fault_stalls=0,
        deadlock=None,
    )
    with pytest.raises(MergeNodeMissingError) as exc:
        route_replies_fast(requests, [0], budget=10, num_nodes=8)
    err = exc.value
    assert isinstance(err, RuntimeError)
    assert (err.child_row, err.parent_row, err.merge_node) == (1, 0, 7)
    assert "merge node 7" in str(err)
    # the same arrays without the bogus absorption route fine
    fine = route_replies_fast(
        replace(requests, absorbed_by=empty, absorbed=empty),
        [0, 1],
        budget=10,
        num_nodes=8,
    )
    assert (fine.delivered, fine.hops) == (2, [2, 2])
