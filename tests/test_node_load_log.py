"""``max_node_load`` derived from the arrival log, and derived lazily.

A fast run without ``node_capacity`` counts no node loads while it
steps: both lanes log the step each packet arrived at each link slot,
and :func:`repro.routing.fast_phases.peak_node_load` sweeps that log
the first time ``RoutingStats.max_node_load`` is read (a
:class:`~repro.routing.metrics.Deferred` until then).  Here the
derived number must equal the reference engine's running count on
generated leveled and mesh populations, through each lane (the
``run_lane`` fixture; the ``VectorLane`` class collects the suite
again), and no served path may pay for it.
"""

import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import delay_lines, flat_priorities, forced_run_lane

from repro.emulation import LeveledEmulator, MeshEmulator
from repro.routing import FastPathEngine, SynchronousEngine, furthest_first_factory
from repro.routing.fast_phases import Replies
from repro.routing.metrics import Deferred
from repro.sharding import ShardedEmulator
from repro.topology import DAryButterflyLeveled, Mesh2D
from repro.traffic import OnlineEmulator, PoissonArrivals, WorkloadGenerator, ZipfKeys
from test_batch_arrival import DownUntil, _packets
from test_fast_engine import assert_stats_equal, combine_groups
from test_reply_phase import reference_replies, reply_population


def routed(paths=None, *, inject=None, priorities=None, addresses=None,
           forest=None, down=None, max_steps=200):  # fmt: skip
    """``(fast stats, reference stats)`` of one hand-built population —
    packets along *paths*, or the replies of a reply *forest*
    (:func:`test_reply_phase.reply_population`'s ``(paths, parents)``):
    the fast engine on the lane the test forces, the reference engine
    following the same rows (spawning with ``ReplySpawner``).  ``inject``
    puts rows behind delay lines (:func:`conftest.delay_lines`)."""

    def faults():
        return None if down is None else DownUntil(*down)

    if forest is not None:
        requests, packets, hosts = reply_population(*forest)
        fast = FastPathEngine().run(
            Replies(requests, hosts),
            num_nodes=int(requests.paths.nodes.max()) + 1,
            max_steps=max_steps,
            link_faults=faults(),
        )
        assert isinstance(vars(fast)["max_node_load"], Deferred)
        ref = reference_replies(
            packets, hosts, max_steps=max_steps, link_faults=faults()
        )
        return fast, ref

    paths, priorities = delay_lines(paths, inject, priorities)
    last = [len(row) - 1 for row in paths]
    num_nodes = max(max(row) for row in paths) + 1
    fast = FastPathEngine().run(
        paths,
        num_nodes=num_nodes,
        max_steps=max_steps,
        priorities=flat_priorities(priorities, paths),
        combine_groups=combine_groups(addresses, [row[-1] for row in paths])
        if addresses is not None
        else None,
        link_faults=faults(),
    )
    assert isinstance(vars(fast)["max_node_load"], Deferred)

    ref_packets = _packets(paths, addresses)
    queues = {}
    if priorities is not None:
        queues["queue_factory"] = furthest_first_factory(
            lambda p: priorities[p.pid][p.hops]
        )
    ref = SynchronousEngine(**queues).run(
        ref_packets,
        lambda p: None if p.hops == last[p.pid] else paths[p.pid][p.hops + 1],
        max_steps=max_steps,
        link_faults=faults(),
    )
    return fast, ref


def step_from(draw, node, shape, size):
    """One hop on *shape*: a leveled node ``position * N + row`` moves
    to any row of the next position (``None`` past the last); a mesh
    node to any neighbour, so a walk may come back."""
    if shape == "leveled":
        n_rows, levels = size
        position = node // n_rows
        if position == levels:
            return None
        return (position + 1) * n_rows + draw(st.integers(0, n_rows - 1))
    rows, cols = size
    r, c = divmod(node, cols)
    moves = [
        (r + dr) * cols + c + dc
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))
        if 0 <= r + dr < rows and 0 <= c + dc < cols
    ]
    return draw(st.sampled_from(moves))


def walk(draw, start, shape, size, max_hops):
    row = [start]
    for _ in range(draw(st.integers(0, max_hops))):
        nxt = step_from(draw, row[-1], shape, size)
        if nxt is None:
            break
        row.append(nxt)
    return row


@st.composite
def populations(draw):
    """An unconstrained population on a small leveled network (rows of
    equal length, or shorter children) or a small mesh (ragged random
    walks that may revisit nodes): packets behind delay lines and
    combining keys or not, furthest-first priorities or not — or the
    replies of a reply forest over such walks (position-0 cascades
    included) — and, drawn independently, a link down for the first
    steps and a step budget short enough to time out."""
    shape = draw(st.sampled_from(["leveled", "mesh"]))
    if shape == "leveled":
        size = (draw(st.integers(2, 4)), draw(st.integers(1, 3)))
        max_hops = size[1]
        firsts = st.integers(0, size[0] - 1)
    else:
        size = (draw(st.integers(2, 4)), draw(st.integers(2, 4)))
        max_hops = 8
        firsts = st.integers(0, size[0] * size[1] - 1)
    n = draw(st.integers(1, 14))
    paths = [
        walk(draw, draw(firsts), shape, size, max_hops if shape == "mesh" else 99)
        for _ in range(n)
    ]
    case = dict(paths=paths, inject=draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    extra = draw(st.sampled_from(["plain", "combine", "spawn"]))
    if extra == "combine":
        # a shared key implies a shared destination (the caller's guarantee)
        bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        case["addresses"] = [row[-1] * 2 + b for row, b in zip(paths, bits)]
    elif extra == "spawn":
        # the walks so far are the hosts' replies; a child's walk starts
        # at a node of its parent's, where it spawns on the first visit
        parents = [-1] * n
        for child in range(n, n + draw(st.integers(1, 6))):
            parent = draw(st.integers(0, child - 1))
            node = draw(st.sampled_from(paths[parent]))
            paths.append(walk(draw, node, shape, size, max_hops))
            parents.append(parent)
        case = dict(forest=(paths, parents))
    if "forest" not in case and draw(st.booleans()):  # furthest first: the hops still to go
        width = max(map(len, paths))
        case["priorities"] = [
            [len(row) - 1 - k for k in range(width)] for row in paths
        ]
    moving = [row for row in paths if len(row) > 1]
    if moving and draw(st.booleans()):
        case["down"] = (tuple(moving[0][:2]), draw(st.integers(1, 4)))
    case["max_steps"] = draw(st.sampled_from([1, 3, 5, 200, 200, 200]))
    return case


#: one hand-made case per feature the derivation has to close right
NAMED = {
    # two absorbed into a resident; an absorbed arrival never counts
    "combining": dict(
        paths=[[s, 10, 11, 12] for s in range(6)],
        inject=[0, 0, 1, 1, 1, 2],
        addresses=[None, 7, 7, 7, None, 7],
    ),
    # child replies placed before their parent, a grandchild at position 0
    "position-0 cascade": dict(
        forest=(
            [[0, 10, 11], [0, 10, 11], [0, 5, 6], [0, 10, 11], [10, 11, 12], [1, 10, 11]],
            [-1, 0, 0, 1, 0, -1],
        ),
    ),
    "staggered injection": dict(
        paths=[[s, 10, 11] for s in range(8)], inject=[0, 0, 0, 1, 1, 2, 3, 9]
    ),
    "furthest first": dict(
        paths=[[s, 10, 11, 12] for s in range(5)] + [[9, 10, 11]] * 2,
        inject=[0, 1, 1, 2, 2, 0, 1],
        priorities=[[0, 3, 2]] * 5 + [[0, 9, 9]] * 2,
    ),
    # a row through node 1 three times, beside rows that share its links
    "ragged rows revisiting a node": dict(
        paths=[[0, 1, 0, 1, 2, 1, 2], [1, 0, 1, 2], [0, 1, 2], [2, 1]],
        inject=[0, 0, 1, 0],
    ),
    # the hub's out-link is down for four steps: its queue holds
    "a link fault holds a queue": dict(
        paths=[[s, 10, 11] for s in range(5)], inject=[0] * 5, down=((10, 11), 4)
    ),
    # six packets still queued on node 1 when the budget runs out
    "timeout with packets queued": dict(
        paths=[[0, 1, 2, 3]] * 6 + [[4, 1, 2, 3]] * 3, inject=[0] * 9, max_steps=3
    ),
}


class TestDerivedNodeLoad:
    @given(case=populations())
    @settings(
        max_examples=120,
        deadline=None,
        # the fixture only sets the lane constant, and each class (the
        # second executor) draws its own examples
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.differing_executors,
        ],
    )
    def test_the_derived_peak_is_the_reference_count(self, run_lane, case):
        fast, ref = routed(**case)
        assert fast.max_node_load == ref.max_node_load
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("name", NAMED)
    def test_each_case_the_log_has_to_close(self, run_lane, name):
        fast, ref = routed(**NAMED[name])
        assert fast.max_node_load == ref.max_node_load >= 2
        assert_stats_equal(fast, ref)
        if "addresses" in NAMED[name]:
            assert fast.combines > 0
        if name.startswith("timeout"):
            assert not fast.completed and fast.max_node_load == 6

    def test_an_empty_population_peaks_at_zero(self, run_lane):
        stats = FastPathEngine().run([], num_nodes=4, max_steps=9)
        ref = SynchronousEngine().run([], lambda p: None, max_steps=9)
        assert stats.max_node_load == ref.max_node_load == 0
        assert stats.completed and stats.total_packets == 0

    def test_a_stat_resolves_once_and_then_holds_no_arrays(self, run_lane):
        engine = FastPathEngine()
        paths = [[0, 1, 2]] * 5 + [[3, 1, 2]] * 2
        stats = engine.run(paths, num_nodes=4, max_steps=20)
        deferred = vars(stats)["max_node_load"]
        assert isinstance(deferred, Deferred)
        # unread, it pickles with its arrays and resolves on the far side
        copy = pickle.loads(pickle.dumps(stats))
        assert isinstance(vars(copy)["max_node_load"], Deferred)
        arrays = weakref.ref(engine.last_arrays)
        engine.last_arrays = None
        gc.collect()
        assert arrays() is not None  # the unread stat keeps its run
        calls = []
        derive = deferred.derive
        deferred.derive = lambda *args: calls.append(1) or derive(*args)
        assert stats.max_node_load == 5 and stats.max_node_load == 5
        assert calls == [1] and vars(stats)["max_node_load"] == 5
        assert deferred.args is None and deferred.resolve() == 5 and calls == [1]
        gc.collect()
        assert arrays() is None  # ... and lets go of it once read
        # equality, repr and asdict show the number on either copy
        assert copy == stats and "max_node_load=5" in repr(copy)
        assert dataclasses.asdict(copy)["max_node_load"] == 5

    def test_a_capacity_run_counts_its_peak_as_it_goes(self, run_lane):
        engine = FastPathEngine(node_capacity=2, flow_control="credit")
        stats = engine.run([[0, 1, 2]] * 5, num_nodes=3, max_steps=50)
        assert vars(stats)["max_node_load"] == stats.max_node_load == 5
        assert engine.last_arrays.arrival_log is None


class TestDerivedNodeLoadVectorLane(TestDerivedNodeLoad):
    RUN_LANE = "vector"


def one_epoch(emulator, n):
    workload = WorkloadGenerator(
        n, arrivals=PoissonArrivals(0.5 * n), keys=ZipfKeys(4 * n, 1.1), seed=3
    )
    report = OnlineEmulator(emulator, workload).run(1)
    assert report.total_delivered > 0


def test_served_epochs_never_resolve_the_stat(monkeypatch):
    """The served path builds ``StepCost`` and the telemetry without
    ``max_node_load``: one epoch on a mesh, a leveled and a sharded
    emulator resolves no deferred stat (and derives no peak)."""
    resolved = []
    resolve = Deferred.resolve
    monkeypatch.setattr(
        Deferred, "resolve", lambda self: resolved.append(self) or resolve(self)
    )
    mesh = Mesh2D.square(6)
    one_epoch(MeshEmulator(mesh, 4 * mesh.num_nodes, mode="crcw", seed=5), mesh.num_nodes)
    net = DAryButterflyLeveled(2, 5)
    n = net.column_size
    one_epoch(LeveledEmulator(net, 4 * n, mode="crcw", seed=5), n)

    def shard(index, seed):
        return LeveledEmulator(net, 4 * n, mode="crcw", seed=seed)

    one_epoch(ShardedEmulator(shard, 4, 4 * n, seed=7), n)
    assert resolved == []
    # the spy is live: a read resolves through it
    stats = FastPathEngine().run([[0, 1]], num_nodes=2, max_steps=5)
    assert stats.max_node_load == 1 and len(resolved) == 1


def test_the_log_is_one_entry_a_link_slot_on_both_lanes():
    """The arrival log is sized by the hops the paths hold, not by the
    network: a handful of packets over large node ids log as many
    entries as they have link slots."""
    paths = [[10_000, 20_000, 30_000], [10_001, 20_000]]
    logs = []
    for lane in ("scalar", "vector"):
        with forced_run_lane(lane):
            engine = FastPathEngine()
            engine.run(paths, num_nodes=40_000, max_steps=9)
        logs.append(np.asarray(engine.last_arrays.arrival_log).tolist())
    # packet 0 arrives at its slots at steps 0 and 1; packet 1 at 0
    assert logs == [[0, 1, 0]] * 2
