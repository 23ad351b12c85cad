"""The scalar lane's own tables, case by case: scalar ≡ vector ≡ reference.

The scalar lane (:mod:`repro.routing.fast_scalar`) keys a hop's queue by
its ``src * num_nodes + dst`` code, or by the caller's link id when it
hands a triple, and keeps no per-node table: it logs the step each
packet arrived at each link slot, and ``max_node_load`` is derived from
that log when read (:func:`repro.routing.fast_phases.peak_node_load`).
Each case routes one population on both lanes, whose ``RunArrays`` must
agree field for field — the arrival log, the derived ``max_node_load``,
``max_queue`` and ``combines`` included — and, where the reference
engine can route it, once more there.  Every step of every case ends in
the run checker (:func:`repro.routing.run_view.check`, through the
``checked_steps`` fixture of ``tests/conftest.py``), which has scalar-lane
cases of its own here.
The lane keeps a busy link's head in ``active`` and only a longer
queue's rest in ``waiting``; the last cases pin that shape's edges.
"""

import dataclasses

import numpy as np
import pytest
from conftest import RUN_LANES, deadline, delay_lines, forced_run_lane

from repro.emulation import LeveledEmulator
from repro.pram.trace import RequestColumns
from repro.routing import (
    FastPathEngine,
    LeveledRouter,
    MeshRouter,
    NetworkDrainedError,
    fast_engine,
)
from repro.routing import fast_scalar, run_view
from repro.routing.fast_engine import _normalise_paths
from repro.routing.fast_phases import Replies, peak_node_load
from repro.routing.run_view import RunInvariantError
from repro.routing.metrics import Deferred
from repro.topology import Mesh2D, StarLogicalLeveled
from repro.topology.compiled import FlatPaths, compile_mesh
from test_batch_arrival import run_both, run_replies, scenario_spawn_at_zero
from test_fast_engine import assert_stats_equal
from test_reply_lists import (
    NODES,
    assert_three_ways,
    laid_out,
    reference_replies,
    routed_hot_reads,
)
from test_reply_phase import hand_built_requests, reply_population

RUN_FIELDS = (
    "hops", "arrived", "injected_at", "absorbed_by", "absorbed", "order",
    "steps", "completed", "max_queue", "max_node_load", "combines", "arrival_log",
)  # fmt: skip


@pytest.fixture(autouse=True)
def scalar_steps(checked_steps):
    """Every step of every run the case makes is checked, on each lane
    and the reference; the case must make a scalar-lane one."""
    yield
    assert any(lane == "scalar" for lane, _ in checked_steps), "no scalar-lane step ran"


def assert_runs_equal(a, b):
    """Field for field; ``max_node_load`` as a reader sees it — derived
    from the arrival log, which the scalar lane keeps as a list."""
    for field in RUN_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        if field == "max_node_load":
            x, y = peak_node_load(a), peak_node_load(b)
        elif field == "arrival_log":
            x, y = np.asarray(x), np.asarray(y)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert x is not None and y is not None, field
            assert np.array_equal(x, y), field
        else:
            assert x == y, field


def on_both_lanes(run):
    """``run()`` once per lane, every fast run of the call forced
    through it: ``(scalar result, vector result)``."""
    out = {}
    for lane in RUN_LANES:
        with forced_run_lane(lane):
            out[lane] = run()
    return out["scalar"], out["vector"]


def engine_run(paths, num_nodes, **kwargs):
    """One run on a fresh engine: ``(stats, arrays)``."""
    engine = FastPathEngine()
    stats = engine.run(paths, num_nodes=num_nodes, max_steps=400, **kwargs)
    return stats, engine.last_arrays


def test_a_handed_mesh_triple_keys_the_queues_by_id():
    """The mesh hands its arithmetic ``u * 4 + direction`` ids, whose
    boundary slots share endpoints; the scalar lane queues by those ids
    and hands the triple on as it came."""
    mesh = Mesh2D.square(6)
    link_src, link_dst = compile_mesh(mesh).link_arrays()
    pairs = link_src * mesh.num_nodes + link_dst
    assert np.unique(pairs).size < pairs.size
    perm = np.random.default_rng(8).permutation(mesh.num_nodes)

    def run():
        router = MeshRouter(mesh, seed=3, engine="fast")
        return router.route_permutation(perm), router.last_fast_run

    (scalar, s_run), (vector, v_run) = on_both_lanes(run)
    assert_runs_equal(s_run, v_run)
    assert np.array_equal(s_run.links[0], v_run.links[0])
    assert s_run.links[1] is link_src and s_run.links[2] is link_dst
    ref = MeshRouter(mesh, seed=3, engine="reference").route_permutation(perm)
    assert_stats_equal(scalar, ref)
    assert_stats_equal(vector, ref)
    assert scalar.max_queue >= 2 and scalar.max_node_load >= 2


def test_two_ids_of_one_link_are_two_queues_on_both_lanes():
    """Ids are opaque: two ids that name the same ``(src, dst)`` pair are
    two queues on either lane, where the pair's code would be one."""
    paths = [[0, 1, 2]] * 4
    # packets 0 and 2 leave node 0 on id 0, packets 1 and 3 on id 1
    ids = np.array([0, 2, 1, 2, 0, 2, 1, 2])
    links = (ids, np.array([0, 0, 1]), np.array([1, 1, 2]))
    (s_stats, s_run), (v_stats, v_run) = on_both_lanes(
        lambda: engine_run(paths, 3, links=links)
    )
    assert_runs_equal(s_run, v_run)
    # two at a time leave node 0 and meet on id 2, behind the first pair's tail
    assert (s_run.max_queue, peak_node_load(s_run)) == (3, 4)
    assert (s_stats.max_node_load, v_stats.max_node_load) == (4, 4)
    (coded, _), (interned, _) = on_both_lanes(lambda: engine_run(paths, 3))
    assert_stats_equal(coded, interned)
    assert coded.max_queue == 4 > s_stats.max_queue == v_stats.max_queue


@pytest.mark.parametrize("combine", [False, True])
def test_a_star_population_with_large_sparse_node_ids(combine):
    """110 of the 120-row star network's packets, onto a few hot
    destinations: node ids run to ``2L * 120 + 119`` and the table is
    indexed by them directly, combining or not."""
    net = StarLogicalLeveled(5)
    rng = np.random.default_rng(11)
    sources = rng.integers(0, net.column_size, 110)
    dests = rng.integers(0, 6, 110)
    keys = dests if combine else None

    def run(engine="fast"):
        router = LeveledRouter(net, seed=4, engine=engine)
        return router.route(sources, dests, combine_keys=keys), router.last_fast_run

    (scalar, s_run), (vector, v_run) = on_both_lanes(run)
    assert s_run.links is None and v_run.links is not None
    assert_runs_equal(s_run, v_run)
    ref, _ = run("reference")
    assert_stats_equal(scalar, ref)
    assert_stats_equal(vector, ref)
    assert scalar.max_node_load >= 2 and (scalar.combines > 0) == combine


def test_a_star_crcw_step_with_its_reply_fan_out():
    """A served CRCW step on the star network: the request run combines,
    the reply run fans out by spawn triggers — both on the lane forced,
    the reply keyed by its own codes on the scalar lane."""
    net = StarLogicalLeveled(5)
    rng = np.random.default_rng(3)
    reads = [(pid, int(a)) for pid, a in enumerate(rng.integers(0, 12, 120))]
    step = RequestColumns.of(reads=reads)

    def cost(engine):
        emulator = LeveledEmulator(
            net, 4 * net.column_size, mode="crcw", seed=9, engine=engine
        )
        return emulator.emulate_step(step)

    scalar, vector = on_both_lanes(lambda: cost("fast"))
    ref = cost("reference")
    assert scalar.combines > 0 and scalar.reply_steps > 0
    for field in ("request_steps", "reply_steps", "combines", "max_queue"):
        assert getattr(scalar, field) == getattr(vector, field) == getattr(ref, field)


def sparse(rows, scale=997, shift=13):
    """*rows* with every node id ``v`` renamed ``v * scale + shift``:
    the same run over a large, sparse id space."""
    return [[v * scale + shift for v in row] for row in rows]


def test_a_child_that_fires_at_position_zero_over_sparse_ids():
    """Position-0 spawns (child replies placed before their parent,
    recursively) on node ids in the tens of thousands."""
    paths, parents = scenario_spawn_at_zero()["forest"]
    forest = (sparse(paths), parents)
    stats = run_replies(forest)
    assert stats.max_queue >= 2 and stats.max_node_load >= 2
    requests, _, hosts = reply_population(*forest)
    num_nodes = int(requests.paths.nodes.max()) + 1
    (_, s_run), (_, v_run) = on_both_lanes(
        lambda: engine_run(Replies(requests, hosts), num_nodes)
    )
    assert_runs_equal(s_run, v_run)
    assert s_run.order is not None and s_run.order.size == len(paths)


@pytest.mark.parametrize("n", [255, 256, 300])
def test_a_node_load_past_one_byte(n):
    """Every packet leaves one node: its load reaches the population,
    on either side of what one byte a node could count."""
    stats = run_both([[0, 1, 2]] * n, max_steps=2 * n)
    assert (stats.max_node_load, stats.max_queue, stats.completed) == (n, n, True)


def test_a_timed_out_run_leaves_its_engine_clean():
    """A run that times out with packets still queued (its node loads
    non-zero) is the reference's, and the same engine's next run starts
    from nothing."""
    hub = [[0, 1, 2, 3]] * 6 + [[4, 1, 2, 3]] * 3
    timed_out = run_both(hub, max_steps=3)
    assert not timed_out.completed and timed_out.max_node_load == 6
    after = [[4, 1, 2], [0, 1, 2]]
    for lane in RUN_LANES:
        with forced_run_lane(lane):
            engine = FastPathEngine()
            assert_stats_equal(engine.run(hub, num_nodes=5, max_steps=3), timed_out)
            stats = engine.run(after, num_nodes=5, max_steps=9)
            fresh, fresh_run = engine_run(after, 5)
        assert_stats_equal(stats, fresh)
        assert_runs_equal(engine.last_arrays, fresh_run)
        assert (stats.max_node_load, stats.max_queue) == (2, 2)


#: each lane's admission as its module defines it, before the
#: ``checked_steps`` fixture wraps it in the checker
UNCHECKED_ADMITS = {fast_engine: fast_engine.admit, fast_scalar: fast_scalar.admit}
#: the vector lane's free-flow jump, unchecked
UNCHECKED_JUMP = fast_engine.free_flow

#: five packets through node 2 (links 0→2 and 1→2, then 2→3)
THROUGH_NODE_2 = [[0, 2, 3]] * 3 + [[1, 2, 3]] * 2


def admitting_three_at_step_0(admit):
    """*admit* with the step-0 admission cut to the first three roots."""

    def admit_three_at_step_0(s, batch, t, *rest):
        return admit(s, batch[:3] if t == 0 else batch, t, *rest)

    return admit_three_at_step_0


def test_a_drained_run_raises_alike_and_leaves_its_engine_clean(monkeypatch):
    """The step-0 admission drops the last two roots, so the run owes
    packets nothing will bring (``NetworkDrainedError``) — at the same
    step with the same count on both lanes; the engine's next run, with
    the admission restored, starts from nothing.  The drop goes around
    the checker, which would report it first (the next test): the
    admissions and the vector lane's jump to the last delivery run
    unchecked."""
    paths = THROUGH_NODE_2
    admits = {fast_engine: fast_engine.admit, fast_scalar: fast_scalar.admit}
    jump = fast_engine.free_flow

    seen = []
    for lane in RUN_LANES:
        for module, admit in UNCHECKED_ADMITS.items():
            monkeypatch.setattr(module, "admit", admitting_three_at_step_0(admit))
        monkeypatch.setattr(fast_engine, "free_flow", UNCHECKED_JUMP)
        engine = FastPathEngine()
        with forced_run_lane(lane):
            with pytest.raises(NetworkDrainedError) as exc:
                engine.run(paths, num_nodes=4, max_steps=50)
            seen.append((exc.value.remaining, exc.value.t))
            for module, admit in admits.items():
                monkeypatch.setattr(module, "admit", admit)
            monkeypatch.setattr(fast_engine, "free_flow", jump)
            stats = engine.run(paths, num_nodes=4, max_steps=50)
            fresh, _ = engine_run(paths, 4)
        assert_stats_equal(stats, fresh)
    assert seen == [(2, 4)] * 2


def test_a_root_dropped_at_step_0_is_lost_to_both_checkers(monkeypatch):
    """Every root is admitted at step 0, so right after that admission a
    root in no state is lost, not "not yet injected": on each lane the
    checker names the first of the two roots the admission drops, four
    steps before the engine's drain check would notice."""
    admits = {fast_engine: fast_engine.admit, fast_scalar: fast_scalar.admit}  # checked
    for module, admit in admits.items():
        monkeypatch.setattr(module, "admit", admitting_three_at_step_0(admit))
    for lane in RUN_LANES:
        with forced_run_lane(lane):
            with pytest.raises(RunInvariantError, match=r"root 3 .* at step 0") as exc:
                FastPathEngine().run(THROUGH_NODE_2, num_nodes=4, max_steps=50)
        assert exc.value.invariant == "conservation", lane
    # restored, the admission places them all, and the checker agrees
    for module, admit in admits.items():
        monkeypatch.setattr(module, "admit", admit)
    for lane in RUN_LANES:
        with forced_run_lane(lane):
            assert FastPathEngine().run(THROUGH_NODE_2, num_nodes=4, max_steps=50).completed


# ---- the checker ------------------------------------------------------------


def checked(s, t):
    """The run checker on a scalar run's view."""
    run_view.check(run_view.scalar(s), t)


def a_run_after_one_step(priorities=None):
    """A scalar run of five packets through node 2, injected and stepped
    once: link 0→2 holds 1 then 2, link 1→2 holds 4, and link 2→3 holds
    the two that crossed, 0 then 3."""
    paths = np.asarray([[0, 2, 3]] * 3 + [[1, 2, 3]] * 2)
    flat, last = _normalise_paths(paths)
    s = fast_scalar.ScalarRun(flat, last, priorities=priorities, num_nodes=4)
    admit = fast_scalar.admit
    admit(s, list(range(5)), 0, 0, None)
    admit(s, fast_scalar.transmit(s), 1, 1, None)
    checked(s, 1)
    return s


def link(src, dst):
    return src * 4 + dst


def swap_heads(s):
    s.active[link(0, 2)], s.active[link(2, 3)] = s.active[link(2, 3)], s.active[link(0, 2)]


def swap_head_and_waiter(s):
    k = link(2, 3)
    s.active[k], s.waiting[k][0] = s.waiting[k][0], s.active[k]


def cyclic_chain(s):
    """The lists' form of a chain that loops back: a head among its own
    waiters."""
    k = link(2, 3)
    s.waiting[k].append(s.active[k])


@pytest.mark.parametrize(
    "invariant, breaks",
    [
        ("waiters", lambda s: s.waiting.update({link(1, 2): []})),
        ("waiters", lambda s: s.waiting.update({link(0, 3): [4]})),
        ("chain", lambda s: s.waiting[link(2, 3)].append(1)),
        ("chain", swap_heads),
        ("conservation", lambda s: setattr(s, "remaining", s.remaining + 1)),
        ("conservation", lambda s: s.spawned.append(2) or s.waiting.pop(link(0, 2))),
        ("chain", cyclic_chain),
    ],
)
def test_the_checker_names_each_broken_clause(invariant, breaks):
    s = a_run_after_one_step()
    breaks(s)
    with deadline(10), pytest.raises(RunInvariantError) as exc:
        checked(s, 1)
    assert exc.value.invariant == invariant


def test_the_checker_reads_priorities_and_the_arrival_log():
    """Under furthest-first a chain never rises (0 ranks 5 on its second
    hop, 3 ranks 2), and no slot is logged after the step given."""
    s = a_run_after_one_step(np.asarray([1, 5] * 3 + [1, 2] * 2))
    with pytest.raises(RunInvariantError, match="arrival_log"):
        checked(s, 0)
    swap_head_and_waiter(s)
    with pytest.raises(RunInvariantError, match="out of service order"):
        checked(s, 1)


# ---- the head / waiting split, edge by edge ---------------------------------


def on_both_lanes_equal(paths, num_nodes, **kwargs):
    """One engine run per lane, ``RunArrays`` equal field for field:
    the scalar lane's ``(stats, arrays)``."""
    (stats, run), (_, v_run) = on_both_lanes(
        lambda: engine_run(paths, num_nodes, **kwargs)
    )
    assert_runs_equal(run, v_run)
    return stats, run


def test_an_arrival_that_outranks_the_head_is_sent_next():
    """Packets 0 and 1 wait at node 1 (rank 1); 0 leaves, 1 is the head —
    and 2 arrives ranked 9, takes the head and leaves first: furthest-
    first, where FIFO would have sent 1."""
    paths = [[1, 2], [1, 2], [0, 1, 2]]
    ranks = [[1], [1], [1, 9]]
    stats = run_both(paths, priorities=ranks)
    assert stats.delays == [0, 2, 0]  # steps queued
    flat = np.asarray([r for row in ranks for r in row])
    _, run = on_both_lanes_equal(paths, 3, priorities=flat)
    assert run.arrived.tolist() == [1, 3, 2] and run.max_queue == 2
    assert run_both(paths).delays == [0, 1, 1]  # FIFO


def test_combining_into_the_head_and_into_a_waiter():
    """Four reads onto one link in one batch: 0 is the head, 1 waits;
    2 finds 1 (a waiter) and 3 finds 0 (the head)."""
    paths = [[0, 1, 2]] * 4
    stats = run_both(paths, addresses=[5, 7, 7, 5])
    assert (stats.combines, stats.max_queue) == (2, 2)
    _, run = on_both_lanes_equal(paths, 3, combine_groups=[5, 7, 7, 5])
    assert run.absorbed_by.tolist() == [1, 0] and run.absorbed.tolist() == [2, 3]


def test_a_link_that_empties_rejoins_at_the_end_of_the_activation_order():
    """Link 0→2 sends 0 at step 0 and leaves ``active`` while 1→2 stays
    busy; 3, off its one-hop delay line, reaches node 0 at step 1 and
    activates it again, behind 1→2 and 2→3, so at step 2 2 reaches node
    2 before 3 and is sent first."""
    paths, _ = delay_lines([[0, 2, 3], [1, 2, 3], [1, 2, 3], [0, 2, 3]], [0, 0, 0, 1])
    stats = run_both(paths)
    assert stats.delays == [0, 1, 2, 2]
    _, run = on_both_lanes_equal(paths, 5)
    assert run.arrived.tolist() == [2, 3, 4, 5]


def test_a_position_0_reply_cascade_fires_inside_the_arrival_pass(monkeypatch):
    """Host 0's reply reaches node 5 at step 1, where 1 was absorbed: 1's
    reply spawns there, and with it — each at position 0 of its parent —
    2's and the zero-hop 3's, in the same pass over that step's
    arrivals."""
    fired = []
    spawn_children = fast_scalar.spawn_children
    monkeypatch.setattr(
        fast_scalar,
        "spawn_children",
        lambda s, i, t: fired.append((i, t)) or spawn_children(s, i, t),
    )
    requests, packets = hand_built_requests(
        rows=[[0, 5, 2], [6, 5], [4, 5], [5]],
        hops=[2, 1, 1, 0],
        absorbed_by=[0, 1, 2],
        absorbed=[1, 2, 3],
    )
    stats = assert_three_ways(requests, packets, [0], NODES)
    assert fired == [(0, 1)] * 2  # lists keyed by link ids, then by hop codes
    assert stats.hops == [2, 1, 1, 0] and stats.delays == [0] * 4


def test_a_list_built_reply_run_gathers_its_paths_on_first_read():
    """The step loop never reads a node, so a list-built reply run leaves
    its itineraries deferred; read, they are the array layout's."""
    requests, _ = hand_built_requests(
        rows=[[0, 5, 2], [6, 5], [4, 5], [5]],
        hops=[2, 1, 1, 0],
        absorbed_by=[0, 1, 2],
        absorbed=[1, 2, 3],
    )
    runs = {}
    for lane in RUN_LANES:
        engine = FastPathEngine()
        with forced_run_lane(lane):
            engine.run(Replies(requests, np.asarray([0])), num_nodes=NODES, max_steps=9)
        runs[lane] = engine.last_arrays
    assert isinstance(vars(runs["scalar"])["paths"], Deferred)
    assert not isinstance(vars(runs["vector"])["paths"], Deferred)
    for lists, arrays in zip(runs["scalar"].paths, runs["vector"].paths):
        assert np.array_equal(lists, arrays)
    assert isinstance(vars(runs["scalar"])["paths"], FlatPaths)  # kept once read


def test_the_boundary_is_384_packets_and_384_replies():
    """``SCALAR_RUN_MAX``'s edge, on both kinds of population: 384
    packets take the lists and 385 the arrays, and so do the replies of
    384 and 385 hosts (one reply each, no combining)."""
    assert fast_scalar.takes(384, None, None)
    assert not fast_scalar.takes(385, None, None)
    requests, _ = hand_built_requests(
        rows=[[2 * i, 2 * i + 1] for i in range(385)],
        hops=[1] * 385,
        absorbed_by=[],
        absorbed=[],
    )
    for hosts, layout in ((384, "lists"), (385, "arrays")):
        stats, built = laid_out(requests, list(range(hosts)), 2 * 385)
        assert built == [layout] and stats.total_packets == hosts
        assert stats.completed and stats.steps == 1


def test_an_apps_replay_sized_crcw_step_on_both_lanes_and_the_reference():
    """``apps_replay``'s shape, the runs the 384 boundary moved onto
    lists: 300 hot CRCW reads on a 128-row butterfly combine at several
    levels (packets absorbed after absorbing others), and the 300
    replies of that forest fan back out.  At the default boundary both
    runs take the lists; forced through each lane, each run's stats are
    ``dataclasses.asdict``-equal, and equal to the reference engine's."""

    def step(engine):
        router, hosts, num_nodes, request = routed_hot_reads(
            engine, 6, levels=7, n=300, keys=8
        )
        if engine == "reference":
            return request, reference_replies(router.last_packets, hosts)
        arrays = router.last_fast_run
        reply, built = laid_out(arrays, hosts, num_nodes, budget=400)
        return request, reply, arrays, built

    request, reply, arrays, built = step("fast")
    # the request run took the lists (no link ids, its hop keys kept),
    # and so did its replies
    assert arrays.links is None and arrays.slot_keys is not None
    assert built == ["lists"] and reply.total_packets == 300
    assert set(arrays.absorbed_by.tolist()) & set(arrays.absorbed.tolist())
    (s_req, s_reply, *_), (v_req, v_reply, *_) = on_both_lanes(lambda: step("fast"))
    ref_req, ref_reply = step("reference")
    for scalar, vector, ref in ((s_req, v_req, ref_req), (s_reply, v_reply, ref_reply)):
        assert dataclasses.asdict(scalar) == dataclasses.asdict(vector)
        assert dataclasses.asdict(scalar) == dataclasses.asdict(
            dataclasses.replace(ref, run_mode=scalar.run_mode)
        )
