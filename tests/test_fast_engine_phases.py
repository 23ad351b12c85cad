"""Each phase of the fast engine's step loop, called alone.

The differential suites pin whole runs against the reference engine;
here a :class:`~repro.routing.fast_phases.RunState` is built by hand on
fixtures of 3-6 links, one phase function is called, and the state it
leaves is read back field by field — so a phase that breaks names
itself instead of surfacing as a stats mismatch many steps later.

Without ``links`` the state interns each directed link by its
``src * num_nodes + dst`` code, so ids follow (src, dst) order; the
fixtures spell the ids they rely on.  Paths are exact-length rows laid
end to end (:class:`~repro.topology.compiled.FlatPaths`): packet i's
k-th hop is link slot ``fl_base[i] + k``.
"""

from itertools import chain as concat

import numpy as np
import pytest

from repro.routing.fast_engine import FastPathEngine
from repro.routing.fast_phases import (
    Replies,
    RunState,
    admit,
    advance_escapes,
    classify_constrained,
    finish,
    fold_peaks,
    free_flow,
    land_escapes,
    link_tables,
    pack_priorities,
    peak_node_load,
    pop_heads,
    record_absorptions,
    refresh_fault_flags,
    replay_contended,
    reply_layout,
    select_heads,
    transmit_constrained,
    transmit_unconstrained,
)
from repro.routing import LeveledRouter, fast_engine, fast_phases, fast_scalar, run_view
from repro.routing import furthest_first_factory
from repro.routing.engine import inject, place, start_step
from repro.routing.engine import transmit_constrained as reference_constrained
from repro.routing.engine import transmit_unconstrained as reference_unconstrained
from repro.routing.run_view import RunInvariantError
from repro.topology import DAryButterflyLeveled, FlatPaths, Mesh2D, StarLogicalLeveled
from repro.topology.compiled import compile_mesh, segment_index
from conftest import deadline, flat_priorities, forced_run_lane
from test_batch_arrival import DownUntil, forced_lane
from test_fast_engine import combine_groups
from test_reference_phases import make_run
from test_reply_phase import reply_population


def ids(*values):
    return np.asarray(values, dtype=np.int64)


def flat(rows) -> FlatPaths:
    """Per-packet lists (or a matrix) as the engine's flat layout."""
    if isinstance(rows, np.ndarray):
        return FlatPaths.from_matrix(rows)
    widths = [len(row) for row in rows]
    return FlatPaths(ids(*concat(*rows)), ids(0, *np.cumsum(widths)))


def make_state(paths, *, last=None, num_nodes=None, **kwargs) -> RunState:
    priorities = flat_priorities(kwargs.pop("priorities", None), paths)
    paths = flat(paths)
    last = paths.hops if last is None else ids(*last)
    if num_nodes is None:
        num_nodes = int(paths.nodes.max()) + 1
    gid = kwargs.pop("gid", None)
    return RunState(
        paths,
        last,
        None if gid is None else ids(*gid),
        priorities,
        num_nodes=num_nodes,
        **kwargs,
    )


def check_state(s: RunState, in_flight=(), t: int | None = None) -> None:
    """The run checker on the vector lane's view of *s*."""
    run_view.check(run_view.vector(s), t, in_flight)


def admit_checked(s: RunState, batch, t: int, in_flight=None, staged=()) -> None:
    """:func:`admit`, then :func:`check_state` on what it left.

    The step loop admits every root at step 0; a test that hand-drives
    arrivals may admit them over several steps instead.  *staged* are
    the roots it has yet to admit (or to place by hand): each is on its
    way to its source, so the checker is told it is in flight — it
    reports a root in no state at all as lost."""
    admit(s, batch, t)
    if in_flight is not None:
        staged = [*staged, *in_flight]
    check_state(s, ids(*staged), t)


def peak_load(s: RunState, t: int) -> int:
    """``max_node_load`` of the run so far, derived from its arrival log
    as a reader of the finished run at step *t* would (no packet may be
    in flight: its next hop is not logged yet)."""
    return peak_node_load(finish(s, t, False))


def chain(s: RunState, link: int) -> list[int]:
    """Packets queued on *link*, head first.  An emptied link keeps a
    stale tail: ``q_tail`` is checked only while the chain is non-empty,
    the one time the engine reads it."""
    out = []
    i = int(s.q_head[link])
    while i >= 0 and len(out) <= s.q_len[link]:  # bounded: a cycle fails below
        out.append(i)
        i = int(s.q_next[i])
    if out:
        assert out[-1] == s.q_tail[link]
    assert len(out) == s.q_len[link]
    return out


# ---------------------------------------------------------------- setup


def test_arithmetic_link_tables_match_interned_up_to_relabelling():
    mesh = Mesh2D.square(4)
    compiled = compile_mesh(mesh)
    n = mesh.num_nodes
    perm = np.random.default_rng(2).permutation(n)
    paths, link_ids, _ = compiled.itineraries(list(range(n)), perm.tolist())
    triple = (link_ids, *compiled.link_arrays())
    a_ids, a_src, a_dst = link_tables(paths, triple, n)
    i_ids, i_src, i_dst = link_tables(paths, None, n)
    # exact-length rows: every slot is a hop some packet makes, and its
    # link leaves every node of the row but the last
    hops = paths.hops
    assert a_ids.shape == i_ids.shape == (int(hops.sum()),)
    leaves = np.ones(paths.nodes.size, dtype=bool)
    leaves[paths.offsets[1:] - 1] = False
    assert (a_src[a_ids] == i_src[i_ids]).all()
    assert (a_dst[a_ids] == i_dst[i_ids]).all()
    assert (a_src[a_ids] == paths.nodes[leaves]).all()
    assert (a_dst[a_ids] == paths.nodes[np.roll(leaves, 1)]).all()
    pairs = set(zip(a_ids.tolist(), i_ids.tolist()))
    assert len(pairs) == len(set(a_ids.tolist())) == len(set(i_ids.tolist()))


def test_leveled_run_state_is_sized_by_the_links_its_batch_crosses():
    """The star's logical network has ``2L * N * d`` links; a CRCW
    request population compiled by ``LeveledRouter`` carries no link
    ids, so the run interns the pairs it crosses and every per-link
    table is that long — at most packets x path length, whatever the
    network."""
    net = StarLogicalLeveled(6)
    L, N = net.num_levels, net.column_size
    rng = np.random.default_rng(4)
    n = N // 2
    sources, dests = rng.integers(0, N, n), rng.integers(0, 6, n)
    addresses = rng.integers(0, 12, n)
    router = LeveledRouter(net, seed=9, engine="fast")
    run = router._compile(sources, dests, router._draw(sources, dests))
    assert run.links is None and run.paths.shape == (n, 2 * L + 1)
    s = make_state(run.paths, num_nodes=run.num_nodes, gid=range(n))
    # equal-length rows are the flat layout's special case: the matrix
    # raveled in place, row i starting at i * (2L + 1)
    assert np.shares_memory(s.paths.nodes, run.paths)
    assert s.fl_base.tolist() == list(range(0, n * 2 * L, 2 * L))
    crossed = set(
        zip(run.paths[:, :-1].ravel().tolist(), run.paths[:, 1:].ravel().tolist())
    )
    assert s.link_src.size == len(crossed) <= n * 2 * L < 2 * L * N * net.degree
    assert set(zip(s.link_src.tolist(), s.link_dst.tolist())) == crossed
    for table in ("link_dst", "q_head", "q_tail", "q_len", "first_at"):
        assert getattr(s, table).size == len(crossed), table
    # combining adds one key per packet, and no table over (link, key)
    assert s.gid.shape == (n,)
    assert not {"host_at", "vc_flat"} & set(RunState.__slots__)
    # ... and the finished run hands the same tables on, for its replies
    # (a fresh router on the same seed draws the same coins; 360 packets
    # would take the scalar lane, which interns no links)
    rerun = LeveledRouter(net, seed=9, engine="fast")
    with forced_run_lane("vector"):
        keys = addresses * N + dests  # one per (address, dest)
        assert rerun.route(sources, dests, combine_keys=keys).completed
    link_ids, link_src, link_dst = rerun.last_fast_run.links
    assert link_ids.shape == (n * 2 * L,)
    assert np.array_equal(link_ids, s.li_flat)
    assert np.array_equal(link_src, s.link_src)
    assert np.array_equal(link_dst, s.link_dst)


def test_priority_packing():
    paths = flat([[0, 1, 2], [3, 1, 2]])
    assert pack_priorities(None, paths) is None
    # the table is already in the layout of the link positions
    prio_flat = pack_priorities([5, 7, 6, 5], paths)
    assert prio_flat.dtype == np.int64 and prio_flat.tolist() == [5, 7, 6, 5]
    # ragged rows: one entry per hop, nothing for the short row's tail
    ragged = flat([[0], [3, 1, 2], [4, 2]])
    assert pack_priorities([6, 5, 8], ragged).tolist() == [6, 5, 8]
    with pytest.raises(ValueError, match="one per link position"):
        pack_priorities([[5, 7], [6, 5]], paths)
    # equal priorities order nothing: FIFO, no table
    assert pack_priorities(np.full(4, 4), paths) is None


def test_run_state_is_sized_by_links_whatever_the_priority_range():
    """Priorities spanning 10^6 values cost one table entry per link
    position: every queue table has one slot per link, and no array on
    the state is larger than the path matrix."""
    s = make_state([[0, 1, 2], [3, 1, 2]], priorities=[[0, 10**6], [7, 3]])
    n_links = 3  # (0,1) (1,2) (3,1)
    assert s.link_src.size == n_links
    assert s.prio_flat.tolist() == [0, 10**6, 7, 3]
    for table in ("q_head", "q_tail", "q_len", "first_at"):
        assert getattr(s, table).size == n_links, table
    for name in RunState.__slots__:
        value = getattr(s, name, None)
        if isinstance(value, np.ndarray):
            assert value.size <= s.paths.nodes.size, name


# -------------------------------------------------------------- arrival

#: three packets on three links of their own: (0,3)=0 (1,4)=1 (2,5)=2
DISJOINT = [[0, 3, 6], [1, 4, 6], [2, 5, 6]]


def test_admit_solo_lane():
    s = make_state(DISJOINT)
    admit_checked(s, ids(2, 0, 1), 0)
    assert s.q_head[:3].tolist() == s.q_tail[:3].tolist() == [0, 1, 2]
    assert s.q_next.tolist() == [-1, -1, -1]
    assert s.active.tolist() == [2, 0, 1]  # batch order = first-arrival order
    assert s.q_len.tolist() == [1, 1, 1, 0, 0, 0]
    # no node table: each arrival's step is logged at its slot instead
    assert s.node_load is None
    assert s.arr_log.tolist() == [0, -1, 0, -1, 0, -1]
    fold_peaks(s)  # the arrival phase logs its peaks; folding reads them
    assert (s.max_queue, peak_load(s, 0), s.remaining) == (1, 1, 3)


def test_admit_contended_residue():
    s = make_state([[0, 1, 2]] * 4)  # all four cross link (0,1)=0
    admit_checked(s, ids(1, 0, 2), 0, staged=[3])
    assert chain(s, 0) == [1, 0, 2]  # fan-in onto an idle link, batch order
    assert s.active.tolist() == [0]
    fold_peaks(s)
    assert (s.max_queue, peak_load(s, 0)) == (3, 3)
    admit_checked(s, ids(3), 1)  # an arrival onto waiters chains behind the tail
    assert chain(s, 0) == [1, 0, 2, 3]
    assert s.active.tolist() == [0]  # an already active link is not re-added
    fold_peaks(s)
    assert (s.max_queue, peak_load(s, 1)) == (4, 4)


def test_admit_mixed_batch_activates_links_in_first_arrival_order():
    # links: (0,4)=0 for A, (1,4)=1 for B and C, (2,4)=2 for D
    s = make_state([[0, 4, 5], [1, 4, 5], [1, 4, 5], [2, 4, 5]])
    a, b, c, d = range(4)
    admit_checked(s, ids(b, a, c, d), 0)
    assert s.active.tolist() == [1, 0, 2]
    assert chain(s, 1) == [b, c]
    assert chain(s, 0) == [a] and chain(s, 2) == [d]
    assert s.q_len[:3].tolist() == [1, 2, 1]
    fold_peaks(s)
    assert (s.max_queue, peak_load(s, 0)) == (2, 2)


def test_delivered_host_delivers_its_absorption_subtree():
    s = make_state([[0, 1]] * 3, gid=[0, 0, 0])
    assert s.remaining == 3
    record_absorptions(s, ids(0, 0), ids(1, 2))  # 1 and 2 met 0 on the way
    assert s.subtree[0] == 3
    s.fl[0] = s.fl_last[0]
    admit_checked(s, ids(0), 7)
    assert s.remaining == 0
    assert s.arrived.tolist() == [7, -1, -1]  # finish() resolves the absorbed
    assert not s.active.size


def test_combining_first_arrival_wins_and_a_resident_beats_the_batch():
    s = make_state([[0, 1, 2]] * 4, gid=[0, 0, 1, 1])
    admit_checked(s, ids(0), 0, staged=[1, 2, 3])  # packet 0: key 0's resident on link 0
    admit_checked(s, ids(1, 2, 3), 1)
    # 1 meets the resident; 2 is key 1's first arrival, so it hosts 3
    assert s.parent.tolist() == [-1, 0, -1, 2]
    assert s.subtree.tolist() == [2, 1, 2, 1]
    assert s.combines == 2
    (hosts, children), = s.child_pairs
    assert (hosts.tolist(), children.tolist()) == ([0, 2], [1, 3])
    # residency is chain membership: one queued packet per key, and the
    # absorbed packets are in no chain
    assert chain(s, 0) == [0, 2]
    assert s.gid[chain(s, 0)].tolist() == [0, 1]
    # an absorbed arrival is logged too (it ends its last hop), but
    # never counts toward a node's load
    assert s.arr_log.tolist() == [0, -1, 1, -1, 1, -1, 1, -1]
    fold_peaks(s)
    assert (s.q_len[0], peak_load(s, 1), s.max_queue) == (2, 2, 2)
    assert s.remaining == 4  # absorbed packets leave with their host


#: a reply forest: reply 0 spawns {1, 2} at its position 1 (node 1) and
#: {3} at position 2 (node 3); reply 1 spawns {4} at its own position 0
SPAWN_FOREST = ([[0, 1, 3], [1, 2, 3], [1, 2, 3], [3, 2], [1, 2, 3]], [-1, 0, 0, 0, 1])


def spawn_layout():
    """:func:`reply_layout` of :data:`SPAWN_FOREST`: ``(paths, links,
    spawn)``."""
    requests, _, hosts = reply_population(*SPAWN_FOREST)
    return reply_layout(Replies(requests, np.asarray(hosts)))


def test_spawn_firing_order():
    _, _, sp = spawn_layout()
    assert sp.nsp.tolist() == [1, 2, -9, -9, -9]  # flat cursors: fl_base + position
    out, seq = [], []
    sp.fire(0, out, seq)
    # spawn order is parents first; placement puts a child's own
    # position-0 children in front of it
    assert (seq, out) == ([1, 4, 2], [4, 1, 2])
    assert sp.nsp.tolist() == [2, -9, -9, -9, -9]  # 0's next trigger; 1's is spent
    out, seq = [], []
    sp.fire(0, out, seq)
    assert (seq, out) == ([3], [3])
    assert sp.nsp[0] == -9


def test_admit_splices_spawned_children_in_front_of_their_parent():
    paths, links, spawn = spawn_layout()
    s = RunState(paths, paths.hops, num_nodes=4, links=links, spawn=spawn)
    assert (s.roots.tolist(), s.remaining) == ([0], 1)
    admit_checked(s, ids(0), 0)  # position 0: no trigger there
    assert s.remaining == 1 and not s.spawn.spawned
    check_state(s, transmit_unconstrained(s))
    admit_checked(s, ids(0), 4)  # position 1: the trigger fires
    assert s.remaining == 4
    assert s.injected_at.tolist() == [0, 4, 4, 0, 4]
    link_12 = int(s.li_flat[s.fl[1]])
    link_13 = int(s.li_flat[s.fl[0]])
    assert chain(s, link_12) == [4, 1, 2]
    assert s.active.tolist() == [link_12, link_13]
    assert [a.tolist() for a in s.spawn.spawned] == [[1, 4, 2]]


# ---------------------------------------------- the arrival phase's contract
#
# One step's batch mixes every kind of arrival enqueue() tells apart.
# Node 20's link (20, 21) starts with W0, W and R (R: the resident of
# key (7, 21)); every other packet starts alone on a link of its own,
# in pid order, so step 1's batch is W0 (delivered at 21), then the rest
# in pid order:
#
#   K1  meets resident R: absorbed      D   joins it, absorbed into C
#   A   solo on (40, 41)                B   solo on (42, 43)
#   C   opens idle link (10, 11)        F   joins (10, 11), survives
#   E   joins the busy (20, 21)         E2  joins the busy (20, 21)
#
# Residue K1, C, E, D, F, E2: six arrivals, the first one absorbed.
# (10, 11) activates at C, between the two solo links, whatever its
# service order; (20, 21) ends the step at length 4, the run's peak, and
# no other queue passes 2.

#: pid -> (path, combine address)
MIXED_BATCH = [
    ([20, 21], None), ([20, 21], None), ([20, 21], 7),  # W0, W, R
    ([6, 20, 21], 7), ([1, 40, 41], None), ([3, 10, 11], 8),  # K1, A, C
    ([5, 20, 21], None), ([4, 10, 11], 8), ([2, 42, 43], None),  # E, D, B
    ([7, 10, 11], None), ([8, 20, 21], None),  # F, E2
]  # fmt: skip
#: per pid, its priority at each hop under furthest-first: W0 leads its
#: chain, F outranks C, and E2 outranks E, both outranking W and R
MIXED_PRIORITIES = [[9], [2], [1], [0, 1], [0, 0], [0, 1], [0, 3], [0, 1], [0, 0], [0, 5], [0, 4]]
MIXED_RESIDUE = 6
W0, W, R, K1, A, C, E, D, B, F, E2 = range(11)


def mixed_twins(furthest_first: bool, capacity: int | None):
    """:data:`MIXED_BATCH` as a reference run and a vector-lane run."""
    paths = [path for path, _ in MIXED_BATCH]
    addresses = [address for _, address in MIXED_BATCH]
    priorities = MIXED_PRIORITIES if furthest_first else None
    engine = {"node_capacity": capacity}
    if furthest_first:
        engine["queue_factory"] = furthest_first_factory(lambda p: priorities[p.pid][p.hops])
    r = make_run(paths, addresses=addresses, **engine)
    gid = combine_groups(addresses, [path[-1] for path in paths])
    s = make_state(paths, gid=gid, priorities=priorities, capacity=capacity)
    return r, s


def assert_twins_agree(r, s: RunState, t: int) -> None:
    """The views (activation order, chains in service order), every
    queue's length, the queued count and the folded peaks agree."""
    ref, view = run_view.reference(r), run_view.vector(s)
    run_view.check(ref, t)
    assert view == ref, f"t={t}"
    lengths = [r.queue_length(key) for key in r.active]
    assert s.q_len[s.active].tolist() == lengths
    assert s.queued == sum(lengths)
    fold_peaks(s)
    assert s.max_queue == r.max_queue
    if s.capacity is not None:
        assert (view.node_load, s.max_node_load) == (ref.node_load, r.max_node_load)


@pytest.mark.parametrize("capacity", [None, 5], ids=["unconstrained", "node_capacity"])
@pytest.mark.parametrize("furthest_first", [False, True], ids=["fifo", "furthest-first"])
@pytest.mark.parametrize("resolver", ["scalar", "vector"])
def test_a_mixed_batch_enqueues_as_the_reference_pushes(
    monkeypatch, checked_steps, resolver, furthest_first, capacity
):
    # the residue on either side of the lane boundary
    limit = MIXED_RESIDUE if resolver == "scalar" else MIXED_RESIDUE - 1
    monkeypatch.setattr(fast_phases, "SCALAR_RESIDUE_MAX", limit)
    resolved = []
    for name in ("resolve_residue_scalar", "resolve_residue_vector"):
        inner = getattr(fast_phases, name)

        def spy(s, r_i, *rest, inner=inner, name=name):
            resolved.append((name.rsplit("_", 1)[1], r_i.tolist()))
            return inner(s, r_i, *rest)

        monkeypatch.setattr(fast_phases, name, spy)
    r, s = mixed_twins(furthest_first, capacity)
    inject(r)
    fast_engine.admit(s, s.roots, 0)
    assert_twins_agree(r, s, 0)
    assert resolved == [("scalar", [W0, W, R])]  # a fan-in of three at injection
    transmit_ref = reference_constrained if capacity else reference_unconstrained
    transmit_vec = transmit_constrained if capacity else transmit_unconstrained
    for t in range(1, 6):
        start_step(r, t - 1)
        sent = transmit_ref(r)
        fast_sent = transmit_vec(s)
        assert fast_sent.tolist() == [p.pid for p in sent], f"t={t}"
        for p in sent:
            place(r, p, t)
        if fast_sent.size:
            fast_engine.admit(s, fast_sent, t)
        assert_twins_agree(r, s, t)
        if t == 1:
            assert resolved[1:] == [(resolver, [K1, C, E, D, F, E2])]
            link = {key: li for li, key in enumerate(zip(s.link_src.tolist(), s.link_dst.tolist()))}
            assert s.active.tolist() == [link[20, 21], link[40, 41], link[10, 11], link[42, 43]]
            hub = [E2, E, W, R] if furthest_first else [W, R, E, E2]
            assert chain(s, link[20, 21]) == hub
            assert chain(s, link[10, 11]) == ([F, C] if furthest_first else [C, F])
            assert s.parent[[D, K1]].tolist() == [C, R] and s.combines == 2
            assert (s.max_queue, s.queued) == (4, 8)
    assert not r.remaining and not s.remaining
    assert checked_steps == [("vector", t) for t in range(6)]


def test_solo_placements_alone_make_a_peak_of_one(checked_steps):
    """A run whose arrivals are all solo logs no queue length: each
    placement is a queue of one, and the run's peak reads 1."""
    r, s = make_run(DISJOINT), make_state(DISJOINT)
    inject(r)
    fast_engine.admit(s, s.roots, 0)
    for t in (1, 2):
        sent = transmit_unconstrained(s)
        for p in reference_unconstrained(r):
            place(r, p, t)
        fast_engine.admit(s, sent, t)
        assert_twins_agree(r, s, t)
    assert (s.max_queue, s.queue_peaks, r.max_queue) == (1, [], 1)
    assert checked_steps == [("vector", t) for t in range(3)]


# --------------------------------------------------------- transmission


def test_select_heads_walks_a_stale_class_maximum_down():
    """What the class tables' stale-maximum walk protected: on one link
    class 2 leaves before class 0 whatever the push order, and the link
    then offers the survivor."""
    for pushes in ([ids(1, 0)], [ids(0, 1)], [ids(1), ids(0)], [ids(0), ids(1)]):
        # both packets cross link 0; packet 0 in class 2, packet 1 in class 0
        s = make_state([[0, 1, 2]] * 2, priorities=[[2, 0], [0, 0]])
        for t, batch in enumerate(pushes):
            admit_checked(s, batch, t, staged=[*concat(*pushes[t + 1 :])])
        sent = transmit_unconstrained(s)
        check_state(s, sent)
        assert sent.tolist() == [0]  # highest class first
        assert chain(s, 0) == [1]
        assert select_heads(s).tolist() == [1]
        assert transmit_unconstrained(s).tolist() == [1]
        assert chain(s, 0) == [] and not s.active.size


#: link (0,1)=0 carries the chain under test; the packets of DEEP cross
#: it with priorities 7, 5, 5, 3 (pushed in that order), and every later
#: row is an arrival for the tests below to push
DEEP_PRIO = [7, 5, 5, 3]


def deep_chain(arriving_prio) -> RunState:
    """Packets 0-3 wait on link 0 in service order; packets 4.. (with
    priorities *arriving_prio* there) have not been admitted yet."""
    hub_prio = DEEP_PRIO + list(arriving_prio)
    s = make_state([[0, 1, 2]] * len(hub_prio), priorities=[[p, 0] for p in hub_prio])
    admit_checked(s, ids(0, 1, 2, 3), 0, staged=range(4, len(hub_prio)))
    assert chain(s, 0) == [0, 1, 2, 3]
    return s


def test_an_arrival_goes_in_at_the_head_the_middle_or_the_tail_of_a_chain():
    # outranks every waiter: the new chain head
    s = deep_chain([9])
    admit_checked(s, ids(4), 1)
    assert chain(s, 0) == [4, 0, 1, 2, 3]
    assert (s.q_head[0], s.q_next[4], s.q_tail[0]) == (4, 0, 3)
    # outranks the last waiter only: the middle, just ahead of it
    s = deep_chain([4])
    admit_checked(s, ids(4), 1)
    assert chain(s, 0) == [0, 1, 2, 4, 3]
    assert (s.q_head[0], s.q_next[2], s.q_next[4], s.q_tail[0]) == (0, 4, 3, 3)
    # ties with waiters: behind the last of them (FIFO among ties)
    s = deep_chain([5])
    admit_checked(s, ids(4), 1)
    assert chain(s, 0) == [0, 1, 2, 4, 3]
    s = deep_chain([7])
    admit_checked(s, ids(4), 1)
    assert chain(s, 0) == [0, 4, 1, 2, 3]
    # outranks nobody — lower than, or tied with, the last waiter: the
    # plain append, no walk
    for low in (1, 3):
        s = deep_chain([low])
        admit_checked(s, ids(4), 1)
        assert chain(s, 0) == [0, 1, 2, 3, 4]
        assert (s.q_next[3], s.q_next[4], s.q_tail[0]) == (4, -1, 4)
    fold_peaks(s)
    assert (s.q_len[0], s.max_queue, s.active.tolist()) == (5, 5, [0])


def test_arrivals_of_one_step_are_merged_into_a_chain_in_service_order():
    # pushed 6, 4, 9, 1, 6, 4, 8 onto waiters 7, 5, 5, 3: two land behind
    # the same waiter twice over (the 6s behind 7, the 4s behind the
    # second 5) and keep their arrival order, two go to the head, one
    # appends
    s = deep_chain([6, 4, 9, 1, 6, 4, 8])
    admit_checked(s, ids(4, 5, 6, 7, 8, 9, 10), 1)
    assert chain(s, 0) == [6, 10, 0, 4, 8, 1, 2, 5, 9, 3, 7]
    # ... which is the order the link then sends in
    sent = [transmit_unconstrained(s).tolist() for _ in range(11)]
    assert [batch[0] for batch in sent] == [6, 10, 0, 4, 8, 1, 2, 5, 9, 3, 7]
    assert (s.q_head[0], s.q_len[0]) == (-1, 0)
    # all in flight: each first hop logged, no next hop yet
    assert not s.active.size and s.node_load is None
    assert (s.arr_log[s.fl_base] >= 0).all() and (s.arr_log[s.fl] == -1).all()
    # the emptied link's tail is left stale, and arrivals there start a
    # new chain instead of threading behind it
    assert s.q_tail[0] == 7
    s.fl[ids(3, 7)] = s.fl_base[ids(3, 7)]
    admit(s, ids(7, 3), 12)
    assert chain(s, 0) == [3, 7]


def test_a_group_landing_on_an_idle_link_is_chained_in_service_order():
    s = make_state([[0, 1, 2]] * 4, priorities=[[2, 0], [7, 0], [2, 0], [7, 0]])
    admit_checked(s, ids(0, 1, 2, 3), 0)
    assert chain(s, 0) == [1, 3, 0, 2]  # equal priorities keep push order


def test_merges_on_several_links_in_one_step():
    # links (0,2)=0 and (1,2)=1 each hold a [5, 1] chain; one step brings
    # each a new head (two packets with no predecessor, on different
    # links) and link 1 one for the middle and one that appends
    paths = [[0, 2, 3]] * 3 + [[1, 2, 3]] * 5
    hub_prio = [5, 1, 9] + [5, 1, 3, 0, 9]
    s = make_state(paths, priorities=[[p, 0] for p in hub_prio])
    admit_checked(s, ids(0, 1, 3, 4), 0, staged=[6, 5, 2, 7])
    admit_checked(s, ids(6, 5, 2, 7), 1)
    assert chain(s, 0) == [2, 0, 1]
    assert chain(s, 1) == [7, 3, 5, 4, 6]
    assert s.active.tolist() == [0, 1]


def test_a_fifo_run_appends_whatever_arrives():
    s = make_state([[0, 1, 2]] * 3)
    assert s.prio_flat is None
    admit_checked(s, ids(2), 0, staged=[0, 1])
    admit_checked(s, ids(0, 1), 1)
    assert chain(s, 0) == [2, 0, 1]


def test_pop_heads_empties_queues_and_releases_combine_residency():
    """Leaving the chain is what ends a residency: an arrival with the
    departed packet's key queues, one with a waiter's key is absorbed."""
    s = make_state([[0, 1, 2]] * 4, gid=[0, 1, 0, 1])
    admit_checked(s, ids(0, 1), 0, staged=[2, 3])
    pop_heads(s, s.active, select_heads(s))
    check_state(s, ids(0))
    assert chain(s, 0) == [1]
    # packet 0 is in flight: its next slot is not logged until it arrives
    assert (s.fl[0] - s.fl_base[0], s.q_len[0], s.arr_log[s.fl[0]]) == (1, 1, -1)
    assert s.active.tolist() == [0]
    admit_checked(s, ids(2, 3), 1, in_flight=ids(0))  # 2 has 0's key, 3 has 1's
    assert chain(s, 0) == [1, 2]
    assert (s.combines, s.parent.tolist()) == (1, [-1, -1, -1, 1])
    pop_heads(s, s.active, select_heads(s))
    pop_heads(s, s.active, select_heads(s))
    check_state(s, ids(0, 1, 2))
    assert s.q_head[0] == -1 and chain(s, 0) == []
    assert s.q_len[0] == 0 and s.arr_log[s.fl_base].tolist() == [0, 0, 1, 1]
    assert not s.active.size


def test_fault_flags_cover_every_slot_of_a_down_wire():
    # arithmetic ids may give one (src, dst) wire several slots
    links = (ids(0, 2, 1), ids(0, 0, 1), ids(1, 1, 2))
    s = make_state(
        [[0, 1], [1, 2], [0, 1]],
        last=[1, 1, 1],
        links=links,
        link_faults=DownUntil((0, 1), 2),
    )
    admit_checked(s, ids(0, 1, 2), 0)
    refresh_fault_flags(s, 0)
    assert s.f_any and s.f_flags.tolist() == [True, True, False]
    sent = transmit_unconstrained(s)
    check_state(s, sent)
    assert sent.tolist() == [1]  # blocked links hold
    assert s.fault_stalls == 2 and s.active.tolist() == [0, 1]
    refresh_fault_flags(s, 2)
    assert not s.f_any and not s.f_flags.any()
    assert transmit_unconstrained(s).tolist() == [0, 2]


#: links (0,3)=0 (1,3)=1 (2,4)=2 (3,5)=3.  Packets 0 and 1 pass through
#: node 3, packet 2 exits at 4, packet 3 waits at node 3 and exits at 5
#: — so with capacity 1 node 3 is full.
CROSSING = [[0, 3, 5], [1, 3, 5], [2, 4], [3, 5]]


def crossing_state(order, **kwargs) -> RunState:
    """:data:`CROSSING` with the rows of *order* admitted at step 0; the
    rest are the test's to place."""
    s = make_state(CROSSING, capacity=1, **kwargs)
    admit_checked(s, ids(*order), 0, staged=sorted({0, 1, 2, 3} - set(order)))
    return s


def test_classification_splits_sure_from_contended():
    s = crossing_state([0, 1, 2, 3])
    assert s.active.tolist() == [0, 1, 2, 3]
    heads = select_heads(s)
    sure, contended = classify_constrained(s, heads, (), {})
    # exempt heads (2, 3) are sure; node 3 cannot take both 0 and 1
    assert sure.tolist() == [False, False, True, True]
    assert contended.tolist() == [0, 1]
    assert not s.inc_np.any() and not s.res_np.any()  # scratch is reset
    # room for every comer makes everyone sure, whatever the order
    s.capacity = 3
    sure, contended = classify_constrained(s, heads, (), {})
    assert sure.all() and not contended.size
    # a link an escape occupant used this step stalls, exempt or not
    s = crossing_state([0, 1, 2, 3], credit=True)
    s.capacity = 3
    sure, _ = classify_constrained(s, heads, {2}, {})
    assert sure.tolist() == [True, True, False, True]
    assert s.fc.credits_stalled == 1


def test_replay_counts_departures_before_a_link_but_not_after():
    # link 3 (out of node 3) is sure; activated first, its departure
    # frees the slot for the first contended link only
    s = crossing_state([3, 0, 1, 2])
    heads = select_heads(s)
    sure, contended = classify_constrained(s, heads, (), {})
    assert (sure.tolist(), contended.tolist()) == ([True, False, False, True], [1, 2])
    assert replay_contended(s, heads, sure, contended, {}) == [True, False]
    assert not any(s.res_list) and not any(s.dep_list)
    # activated last, it frees nothing in time: both stall
    s = crossing_state([0, 1, 2, 3])
    heads = select_heads(s)
    sure, contended = classify_constrained(s, heads, (), {})
    assert replay_contended(s, heads, sure, contended, {}) == [False, False]


def test_replay_honours_reserved_slots_and_escape_claims():
    s = crossing_state([3, 0, 1, 2], credit=True)
    heads = select_heads(s)
    sure, contended = classify_constrained(s, heads, (), {3: 1})
    # the escape subphase reserved node 3's freed slot: packet 0 takes
    # link 0's escape buffer; link 1's is occupied, so packet 1 stalls
    s.fc.escape_at[1] = 99
    assert replay_contended(s, heads, sure, contended, {3: 1}) == [True, False]
    assert s.pending_escape == {0: 0}
    assert (s.fc.escape_hops, s.fc.credits_stalled) == (1, 1)
    assert not any(s.res_list) and not any(s.dep_list)


def test_escape_subphase_moves_occupants_in_occupancy_order():
    s = crossing_state([3], credit=True)
    # packets 0 and 1 sit in the escape buffers of links 0 and 1, both
    # about to cross link 3 (3 -> 5), where they exit
    for i in (0, 1):
        s.fl[i] += 1
        s.fc.escape_at[i] = i
        s.fc.escape_next[i] = 3
    check_state(s)
    moved, used, reserved = advance_escapes(s)
    check_state(s, ids(*moved))
    assert (moved, used, reserved) == ([0], {3}, {})  # exits reserve nothing
    assert s.fc.escape_at == {1: 1} and s.fc.credits_stalled == 1
    assert s.fl[0] == s.fl_last[0]
    # the bulk head of the used link stalls behind the occupant
    arrivals = transmit_constrained(s)
    check_state(s, np.concatenate([ids(*moved), arrivals]))
    assert arrivals.tolist() == [1]
    assert s.active.tolist() == [3] and s.fc.credits_stalled == 2


def test_escape_claims_land_in_arrival_order():
    s = crossing_state([0, 1, 2, 3], credit=True)
    s.fl[ids(0, 1, 2)] += 1  # as if they had just crossed their links
    s.pending_escape.update({1: 1, 0: 0})
    rest = land_escapes(s, ids(0, 2, 1))
    assert rest.tolist() == [2]
    assert list(s.fc.escape_at.items()) == [(0, 0), (1, 1)]
    assert s.fc.escape_next == {0: 3, 1: 3}  # both cross (3,5) next
    assert s.pending_escape == {} and not s.pend_flag.any()


# ------------------------------------------------------------ free flow


def stepped(s: RunState, t: int, until: int) -> None:
    """The step loop's transmit-then-admit, from step *t* to *until*."""
    for step in range(t + 1, until + 1):
        admit(s, transmit_unconstrained(s), step)


def jump_fields(s: RunState) -> dict:
    """Every field :func:`free_flow` writes, as lists — ``q_tail`` only
    on busy links, the one place it is read."""
    return dict(
        fl=s.fl.tolist(), arrived=s.arrived.tolist(), remaining=s.remaining,
        arr_log=s.arr_log.tolist(), q_head=s.q_head.tolist(), q_len=s.q_len.tolist(),
        q_next=s.q_next.tolist(), active=s.active.tolist(),
        tails=s.q_tail[s.active].tolist(), queued=s.queued,
    )  # fmt: skip


def jump_from_roots(build, t: int = 0, max_steps: int = 50) -> tuple[RunState, int]:
    """Build a run twice and step both to *t*; then one jumps
    (:func:`free_flow`, checked after) and the other steps to where the
    jump landed.  Returns the jumped state and its step, after checking
    that the two states agree on every field the jump writes."""
    s, twin = build(), build()
    for run in (s, twin):
        admit(run, run.roots, 0)
        stepped(run, 0, t)
    check_state(s, t=t)
    landed = free_flow(s, t, max_steps)
    check_state(s, t=landed)
    stepped(twin, t, landed)
    assert jump_fields(s) == jump_fields(twin)
    return s, landed


#: three packets on disjoint paths, delivered 4, 2 and 1 steps in
FREE_RUN = [[0, 1, 2, 3, 4], [5, 6, 7], [8, 9]]


def test_a_free_run_jumps_to_its_last_delivery():
    s, t = jump_from_roots(lambda: make_state(FREE_RUN))
    assert (t, s.remaining, s.active.size, s.queued) == (4, 0, 0, 0)
    assert s.arrived.tolist() == [4, 2, 1]
    # per slot, the step its packet arrived there (the roots' at 0)
    assert s.arr_log.tolist() == [0, 1, 2, 3, 0, 1, 0]
    assert (s.q_head == -1).all() and not s.q_len.any()
    assert finish(s, t, False).completed


def test_a_meeting_at_offset_k_lands_the_step_before():
    # the two paths join at node 3, three hops in
    s, t = jump_from_roots(lambda: make_state([[0, 1, 2, 3, 4, 5], [6, 7, 8, 3, 4, 5]]))
    assert (t, s.remaining, s.queued) == (2, 2, 2)
    admit(s, transmit_unconstrained(s), 3)
    assert s.q_len.max() == 2 and s.active.size == 1  # they share (3, 4)


def test_a_spawn_trigger_at_offset_k_lands_the_step_before():
    # reply 1 spawns where reply 0 reaches node 3, three hops in
    forest = ([[0, 1, 2, 3, 4, 5], [3, 6]], [-1, 0])

    def build():
        requests, _, hosts = reply_population(*forest)
        paths, links, spawn = reply_layout(Replies(requests, np.asarray(hosts)))
        return RunState(paths, paths.hops, num_nodes=7, links=links, spawn=spawn)

    s, t = jump_from_roots(build)
    assert (t, s.remaining, s.spawn.spawned) == (2, 1, [])
    admit(s, transmit_unconstrained(s), 3)
    assert s.remaining == 2 and s.injected_at.tolist() == [0, 3]


def test_max_steps_inside_the_stretch_ends_the_run_there():
    s, t = jump_from_roots(lambda: make_state(FREE_RUN), max_steps=2)
    assert (t, s.remaining) == (2, 1)
    assert s.arrived.tolist() == [-1, 2, 1]
    arrays = finish(s, t, False)
    assert not arrays.completed and arrays.hops.tolist() == [2, 2, 1]


def test_a_meeting_at_offset_1_leaves_the_state_untouched():
    s = make_state([[0, 2, 3], [1, 2, 3]])
    admit_checked(s, s.roots, 0)
    before = jump_fields(s)
    assert free_flow(s, 0, 50) == 0
    assert jump_fields(s) == before


def test_a_host_delivered_by_a_jump_takes_its_subtree_off_remaining():
    # both meet at node 2 on step 1, one absorbed; the host then flows
    s, t = jump_from_roots(lambda: make_state([[0, 2, 3, 4]] * 2, gid=[7, 7]), t=1)
    assert (t, s.remaining, s.combines) == (3, 0, 1)
    assert finish(s, t, False).arrived.tolist() == [3, 3]


# --------------------------------------------------------------- finish


def test_finish_jumps_absorbed_packets_to_their_root():
    s = make_state([[0, 1]] * 5, gid=[0, 0, 0, 0, 1])
    # a depth-3 chain: 3 into 2, 2 into 1, 1 into 0; packet 4 on its own
    s.parent[:] = [-1, 0, 1, 2, -1]
    s.child_pairs = [(ids(2), ids(3)), (ids(1), ids(2)), (ids(0), ids(1))]
    s.arrived[:] = [9, -1, -1, -1, 5]
    s.remaining = 0
    arrays = finish(s, 9, False)
    assert arrays.arrived.tolist() == [9, 9, 9, 9, 5]
    assert arrays.absorbed_by.tolist() == [2, 1, 0]
    assert arrays.absorbed.tolist() == [3, 2, 1]
    assert (arrays.steps, arrays.completed, arrays.deadlock) == (9, True, None)
    assert arrays.order is None and arrays.hops.tolist() == [0] * 5


def test_finish_reports_a_deadlock():
    s = crossing_state([0, 1, 2, 3], credit=True)
    arrays = finish(s, 4, True)
    assert not arrays.completed
    assert arrays.deadlock == "no progress at t=4 with 4 packets queued over 4 links"


# ----------------------------------------------------------- invariants


def drive_checked(s: RunState, max_steps: int = 10_000):
    """``FastPathEngine._run_batch`` spelled out phase by phase, with
    :func:`check_state` after every one of them."""
    transmit = transmit_unconstrained if s.capacity is None else transmit_constrained
    free = s.capacity is None and s.link_faults is None
    admit_checked(s, s.roots, 0)
    t = 0
    while s.remaining > 0 and t < max_steps:
        if s.link_faults is not None:
            refresh_fault_flags(s, t)
        arrivals = transmit(s)
        check_state(s, arrivals, t)
        t += 1
        if s.pending_escape:
            arrivals = land_escapes(s, arrivals)
            check_state(s, arrivals, t)
        if arrivals.size:
            admit_checked(s, arrivals, t)
            if free and 0 < s.queued == s.active.size:
                t = free_flow(s, t, max_steps)
                check_state(s, t=t)
    return finish(s, t, False)


def sweep_run(network: str, seed: int):
    """A small seeded request run: ``(paths, num_nodes, links,
    furthest-first priorities, destinations)``.  Destinations crowd onto
    a few nodes, so queues build and same-destination keys meet."""
    rng = np.random.default_rng(seed)
    if network == "leveled":
        net = DAryButterflyLeveled(2, 4)
        n, N = 24, net.column_size
        sources, dests = rng.integers(0, N, n), rng.integers(0, 3, n)
        router = LeveledRouter(net, seed=seed, engine="fast")
        run = router._compile(sources, dests, router._draw(sources, dests))
        paths = FlatPaths.from_matrix(run.paths)
        num_nodes, links, prio = run.num_nodes, None, None
    else:
        mesh = Mesh2D.square(6)
        compiled = compile_mesh(mesh)
        n = 30
        sources = rng.integers(0, mesh.num_nodes, n)
        dests = rng.integers(0, 4, n) * 7
        paths, link_ids, prio = compiled.itineraries(
            sources, dests, rng.integers(0, mesh.rows, n), with_priorities=True
        )
        num_nodes, links = mesh.num_nodes, (link_ids, *compiled.link_arrays())
    if prio is None:  # furthest-first: the hops still to go
        hops = paths.hops
        prio = np.repeat(hops, hops) - segment_index(hops)
    return paths, num_nodes, links, prio, dests


@pytest.mark.parametrize("network", ["leveled", "mesh"])
@pytest.mark.parametrize("furthest_first", [False, True])
@pytest.mark.parametrize("combine", [False, True])
@pytest.mark.parametrize("capacity", [None, 2])
@pytest.mark.parametrize("lane", ["scalar", "vector"])
def test_every_phase_keeps_the_run_invariants(network, furthest_first, combine, capacity, lane):
    """Seeded runs driven phase by phase, checked after every phase —
    with a link down for the first steps, the contended residue forced
    through each lane — and the hand-driven run is the engine's own:
    same outcome as ``FastPathEngine.run``."""
    for seed in (3, 11):
        paths, num_nodes, links, prio, dests = sweep_run(network, seed)
        prio = prio if furthest_first else None
        gid = dests if combine else None
        first = int(np.flatnonzero(paths.hops)[0])
        down = DownUntil(tuple(paths.nodes[paths.offsets[first] :][:2].tolist()), 4)
        s = RunState(
            paths,
            paths.hops,
            gid,
            prio,
            num_nodes=num_nodes,
            links=links,
            capacity=capacity,
            credit=capacity is not None,
            link_faults=down,
        )
        engine = FastPathEngine(
            node_capacity=capacity,
            flow_control="none" if capacity is None else "credit",
        )
        with forced_lane(f"{lane} residue"):
            by_hand = drive_checked(s)
            stats = engine.run(
                paths,
                num_nodes=num_nodes,
                max_steps=10_000,
                priorities=prio,
                links=links,
                combine_groups=gid,
                link_faults=down,
            )
        ref = engine.last_arrays
        assert stats.completed and by_hand.completed
        for field in ("hops", "arrived", "absorbed_by", "absorbed"):
            assert np.array_equal(getattr(by_hand, field), getattr(ref, field)), field
        for field in ("steps", "max_queue", "combines", "fault_stalls"):
            assert getattr(by_hand, field) == getattr(ref, field), field
        # counted under capacity, derived from the arrival log otherwise
        assert (by_hand.max_node_load is None) == (capacity is None)
        assert peak_node_load(by_hand) == peak_node_load(ref) == stats.max_node_load
        assert ref.fault_stalls > 0 and (ref.combines > 0) == combine


#: the step :func:`mid_run` stops at
MID_RUN_STEP = 2


def mid_run(capacity=None) -> RunState:
    """A furthest-first CRCW run on the 6x6 mesh, a few steps in."""
    paths, num_nodes, links, prio, dests = sweep_run("mesh", 5)
    s = RunState(
        paths, paths.hops, dests, prio, num_nodes=num_nodes, links=links,
        capacity=capacity,
    )  # fmt: skip
    transmit = transmit_unconstrained if capacity is None else transmit_constrained
    admit(s, s.roots, 0)
    for t in range(1, MID_RUN_STEP + 1):
        admit(s, transmit(s), t)
    check_state(s, t=MID_RUN_STEP)
    assert (s.q_len > 1).any()  # some chain has an order to break
    return s


def _deep(s: RunState) -> tuple[int, int, int]:
    """The longest chain's link, its head and its tail."""
    li = int(np.argmax(s.q_len))
    return li, int(s.q_head[li]), int(s.q_tail[li])


def skipped_unlink(s):
    s.q_len[_deep(s)[0]] += 1


def off_by_one_cursor(s):
    s.fl[_deep(s)[1]] += 1


def stale_tail(s):
    li, head, _ = _deep(s)
    s.q_tail[li] = head


def broken_service_order(s):
    s.prio_flat[s.fl[_deep(s)[2]]] = 10**6  # the tail outranks the head


def lost_activation(s):
    s.active = s.active[1:]


def miscounted_load(s):
    s.node_load[0] += 1


def arrival_logged_ahead(s):
    tail = _deep(s)[2]
    s.arr_log[s.fl[tail]] = MID_RUN_STEP + 1


def arrival_log_out_of_order(s):
    moved = np.flatnonzero((s.fl > s.fl_base) & (s.fl < s.fl_last))
    i = int(moved[0])
    s.arr_log[s.fl_base[i]] = s.arr_log[s.fl[i]]


def lost_packet(s):
    s.remaining += 1


def cursor_past_delivery(s):
    s.fl[0] = s.fl_last[0] + 1


def cyclic_chain(s):
    li, head, tail = _deep(s)
    s.q_next[tail] = head


#: one hand-made engine bug each, and the invariant that must name it
CORRUPTIONS = {
    skipped_unlink: "chain",
    off_by_one_cursor: "chain",
    stale_tail: "chain",
    broken_service_order: "chain",
    lost_activation: "active",
    miscounted_load: "node_load",
    arrival_logged_ahead: "arrival_log",
    arrival_log_out_of_order: "arrival_log",
    lost_packet: "conservation",
    cursor_past_delivery: "cursor",
    cyclic_chain: "chain",
}


@pytest.mark.parametrize("corrupt", list(CORRUPTIONS), ids=lambda f: f.__name__)
def test_the_invariant_checker_names_each_corruption(corrupt):
    # only a node_capacity run keeps a node-load table to miscount
    s = mid_run(capacity=3 if corrupt is miscounted_load else None)
    corrupt(s)
    with deadline(10), pytest.raises(RunInvariantError) as err:
        check_state(s, t=MID_RUN_STEP)
    assert err.value.invariant == CORRUPTIONS[corrupt]
    assert isinstance(err.value, RuntimeError)


def test_a_packet_queued_under_its_links_twin_id_is_named():
    """On the 6x6 mesh node 1's north placeholder id (7) has the same
    clipped ``(src, dst)`` pair as its west link (5), so only the id
    tells them apart: packet 0, at node 1 on its way west, moved under
    id 7 must be named on both fast lanes."""
    compiled = compile_mesh(Mesh2D.square(6))
    paths, ids, _ = compiled.itineraries(np.array([2, 3]), np.array([0, 0]), np.array([0, 0]))
    links = (ids, *compiled.link_arrays())
    assert links[1][5] == links[1][7] and links[2][5] == links[2][7]
    s = RunState(paths, paths.hops, np.array([0, 0]), None, num_nodes=36, links=links)
    sc = fast_scalar.ScalarRun(paths, paths.hops, num_nodes=36, links=links)
    admit(s, s.roots, 0)
    admit(s, transmit_unconstrained(s), 1)
    fast_scalar.admit(sc, [0, 1], 0, 0, None)
    fast_scalar.admit(sc, fast_scalar.transmit(sc), 1, 1, None)
    assert s.active.tolist() == [5, 9] and sc.active == {5: 0, 9: 1}
    s.q_head[[5, 7]], s.q_tail[[5, 7]], s.q_len[[5, 7]] = [-1, 0], [-1, 0], [0, 1]
    s.active = np.asarray([7, 9])
    sc.active = {7: 0, 9: 1}
    for view in (lambda: run_view.vector(s), lambda: run_view.scalar(sc)):
        with pytest.raises(RunInvariantError, match="packet 0 waits on link 7, not its next"):
            view()
