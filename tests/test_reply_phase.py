"""The CRCW reply phase in arrays: fast ≡ ``ReplySpawner``, field for field.

``route_replies_fast`` lays the combining forest out breadth first,
reverses the compiled request paths and hands the engine a static spawn
plan; the reference engine walks recorded traces with ``ReplySpawner``
deciding, arrival by arrival, which child replies to spawn.  The step
costs only carry three numbers of a reply run, so the sweeps here
compare the reply ``RoutingStats`` themselves — including the order of
``delays`` / ``hops``, which is the forest's breadth-first order — on
generated hot-key steps.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulation import LeveledEmulator, MeshEmulator
from repro.emulation.combining import MergeNodeMissingError, route_replies_fast
from repro.pram.trace import ReadRequest, StepTrace, WriteRequest
from repro.routing import Packet, collect_stats
from repro.routing.fast_engine import RunArrays
from repro.routing.metrics import stats_from_arrays
from repro.topology import DAryButterflyLeveled, Mesh2D, StarLogicalLeveled
from test_fast_engine import assert_stats_equal


def reply_stats(make_emulator, step, engine):
    """The reply run's ``RoutingStats`` of one emulated step, plus its cost."""
    emulator = make_emulator(engine)
    seen = []
    inner = emulator._reverse_path_replies

    def spy(*args, **kwargs):
        seen.append(inner(*args, **kwargs))
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
    assert fast.completed and fast.delivered == len(step.reads)
    assert fast_cost.combines == ref_cost.combines
    return fast_cost


@st.composite
def hot_mesh_steps(draw):
    """CRCW reads on a small mesh under direct placement (address =
    module), drawn so that many readers share a few addresses and many
    of those sit in the reader's own column: such a route runs up the
    column to its random row and back down it, so the reply path visits
    nodes twice — the first-occurrence rule of the spawn plan."""
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
            reads.append(ReadRequest(pid, addr))
    writes = [
        WriteRequest(pid, draw(st.sampled_from(hot)), pid)
        for pid in draw(st.lists(st.integers(0, n - 1), max_size=3))
    ]
    return rows, cols, draw(st.integers(0, 2**16)), StepTrace(reads=reads, writes=writes)


@given(case=hot_mesh_steps())
@settings(max_examples=40, deadline=None)
def test_mesh_hot_key_replies_match_reference(case):
    rows, cols, seed, step = case
    if not step.reads:
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
        ReadRequest(
            pid,
            draw(st.sampled_from(hot))
            if draw(st.integers(0, 3))
            else draw(st.integers(0, space - 1)),
        )
        for pid in range(num_processors)
        for _ in range(draw(st.integers(0, 2)))
    ]
    return draw(st.integers(0, 2**16)), StepTrace(reads=reads)


@pytest.mark.parametrize("network", LEVELED)
@pytest.mark.parametrize("intermediate", ["coin", "node"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_leveled_hot_key_replies_match_reference(network, intermediate, data):
    net = LEVELED[network]()
    seed, step = data.draw(hot_leveled_steps(net.column_size))
    if not step.reads:
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
    step = StepTrace(reads=[ReadRequest(pid, 9) for pid in range(18)] * 2)

    def make(engine):
        return MeshEmulator(
            mesh, 18, mode="crcw", placement="direct", seed=11, engine=engine
        )

    cost = assert_reply_phase_matches(make, step)
    assert cost.combines > len(step.reads) // 2  # most replies are spawned


# ---- the array-backed stats constructor -------------------------------------


def test_stats_from_arrays_equals_collect_stats():
    """Same packets, once as objects and once as three arrays: every
    field agrees, undelivered packets are counted but not measured."""
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
    counters = dict(
        steps=17,
        max_queue=3,
        completed=False,
        combines=2,
        max_node_load=5,
        credits_stalled=7,
        escape_hops=1,
        fault_stalls=4,
        run_mode="batch",
    )
    from_arrays = stats_from_arrays(hops, injected, arrived, **counters)
    assert from_arrays == collect_stats(packets, **counters)
    assert 0 < from_arrays.delivered < from_arrays.total_packets == n
    assert all(type(v) is int for v in from_arrays.delays + from_arrays.hops)
    empty = np.empty(0, dtype=np.int64)
    assert stats_from_arrays(empty, empty, empty, **counters) == collect_stats(
        [], **counters
    )


# ---- the typed failure ------------------------------------------------------


def test_missing_merge_node_is_a_typed_error():
    """Arrays that disagree with one another — request 1 claims to have
    been absorbed by request 0 at node 7, which request 0 never visited —
    name the rows and the node instead of a bare RuntimeError."""
    empty = np.empty(0, dtype=np.int64)
    requests = RunArrays(
        paths=np.asarray([[0, 1, 2], [5, 6, 7]], dtype=np.int64),
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
