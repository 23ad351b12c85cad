"""Exact-length itineraries: the fast engine's flat path layout, pinned.

Every router hands the engine one row per packet, exactly as long as its
path, laid end to end (:class:`~repro.topology.compiled.FlatPaths`), and
every per-position table of a run — link ids, priorities, the arrays a
finished run leaves for its replies — has one entry per hop a packet
makes.  The differential cases here are the populations whose rows differ
most in length (the ones a padded matrix used to widen): fast ≡
reference, field for field.  The size test keeps padding from coming back
unnoticed.
"""

import numpy as np
import pytest

from repro.faults import FaultSchedule
from repro.faults.runtime import LinkFaultTimeline
from repro.routing import (
    GreedyRouter,
    MeshRouter,
    StarRouter,
    ValiantHypercubeRouter,
    fast_engine,
)
from repro.topology import DWayShuffle, Hypercube, Mesh2D, StarGraph
from repro.topology.compiled import compact_paths, hypercube_paths
from conftest import forced_run_lane
from test_batch_arrival import _routed
from test_fast_engine import assert_stats_equal


def assert_flat(paths, n):
    """CSR invariants: n rows of at least one node, offsets from 0 to the
    node count, one link position per node but each row's last."""
    assert paths.offsets.shape == (n + 1,)
    assert paths.offsets[0] == 0 and paths.offsets[-1] == paths.nodes.size
    assert (np.diff(paths.offsets) >= 1).all()
    assert paths.nodes.ndim == 1 and paths.hops.sum() == paths.nodes.size - n


def mixed_mesh_population(side):
    """Every node sends once: a quarter to itself (a zero-length row
    when its random row is its own), the corners along their row to the
    opposite corner (up to ``3 * (side - 1)`` hops, the longest a route
    can be), the rest to a random node."""
    n = side * side
    rng = np.random.default_rng(side)
    dests = rng.integers(0, n, size=n)
    stay = rng.random(n) < 0.25
    dests[stay] = np.flatnonzero(stay)
    for a, b in ((0, side - 1), (n - side, n - 1)):
        dests[a], dests[b] = b, a
    return np.arange(n), dests


@pytest.mark.parametrize("discipline", ["fifo", "furthest_first"])
@pytest.mark.parametrize(
    "constraint", [None, ("none", 2), ("credit", 2)], ids=["free", "cap2", "credit2"]
)
@pytest.mark.parametrize("down", [False, True], ids=["up", "down"])
def test_mesh_rows_of_zero_and_maximum_length_match_reference(
    discipline, constraint, down
):
    side = 6
    mesh = Mesh2D.square(side)
    sources, dests = mixed_mesh_population(side)
    flow, capacity = constraint or ("none", None)
    wire = (side + 2, 2 * side + 2)  # a column wire, down for the first steps
    sched = FaultSchedule().link_down(0, wire).link_up(6, wire)

    def run(engine):
        router = MeshRouter(
            mesh,
            seed=3,
            slice_rows=side,  # one slice: stage 0 may cross the whole mesh
            discipline=discipline,
            node_capacity=capacity,
            flow_control=flow,
            engine=engine,
            link_faults=LinkFaultTimeline(sched.link_events) if down else None,
        )
        stats, dead = _routed(lambda: router.route(sources, dests, max_steps=2000))
        return router, stats, dead

    router, fast, fast_dead = run("fast")
    ref_router, ref, ref_dead = run("reference")
    assert fast_dead == ref_dead
    assert_stats_equal(fast, ref)
    # row by row, a wedged run too: hops made, arrival step, last node
    arrays = router.last_fast_run
    for a, b in zip(router.row_outcomes(), ref_router.row_outcomes()):
        assert a.tolist() == b.tolist()
    at = arrays.paths.nodes[arrays.paths.offsets[:-1] + arrays.hops]
    assert at.tolist() == [p.node for p in ref_router.last_packets]
    # the population both engines routed, compiled again from the same draw
    probe = MeshRouter(mesh, seed=3, slice_rows=side, discipline=discipline)
    run = probe._compile(sources, dests, probe._draw(sources, dests))
    assert_flat(run.paths, sources.size)
    hops = run.paths.hops
    assert (hops == 0).any() and hops.max() >= 2 * (side - 1)
    assert run.links[0].shape == (int(hops.sum()),)
    assert np.array_equal(arrays.paths.nodes, run.paths.nodes)
    if not fast_dead:
        assert fast.completed and arrays.hops.tolist() == hops.tolist()


RAGGED = {
    "star": lambda engine: StarRouter(StarGraph(5), seed=5, engine=engine),
    "shuffle": lambda engine: GreedyRouter(DWayShuffle(3, 3), engine=engine),
}


@pytest.mark.parametrize("network", RAGGED)
def test_ragged_lists_are_concatenated_not_padded(network):
    """The star's greedy cycles and the shuffle's greedy walks come as a
    ragged list of per-packet paths: the run keeps them as they are."""
    router = RAGGED[network]("fast")
    sources = np.arange(router.num_endpoints)
    perm = np.random.default_rng(5).permutation(sources.size)
    fast = router.route_permutation(perm)
    ref = RAGGED[network]("reference").route_permutation(perm)
    assert fast.completed
    assert_stats_equal(fast, ref)
    # the same draw, compiled again: one list per packet, lengths differ
    again = RAGGED[network]("fast")
    rows = again._compile(sources, perm, again._draw(sources, perm)).paths
    assert isinstance(rows, list) and len({len(r) for r in rows}) > 1
    paths = router.last_fast_run.paths
    assert_flat(paths, len(rows))
    assert paths.nodes.tolist() == [v for row in rows for v in row]
    assert paths.hops.tolist() == [len(r) - 1 for r in rows]


def test_compact_paths_squeezes_rows_to_their_hops():
    """Two-phase bit fixing emits one column per potential hop; a row
    keeps only its moves, and nothing is appended after its end."""
    arr = np.asarray([[0, 1, 1, 3, 3], [5, 5, 5, 5, 5], [2, 2, 6, 7, 7]])
    paths = compact_paths(arr)
    assert_flat(paths, 3)
    assert paths.nodes.tolist() == [0, 1, 3, 5, 2, 6, 7]
    assert paths.offsets.tolist() == [0, 3, 4, 7]
    cube = Hypercube(5)
    rng = np.random.default_rng(6)
    src, dst, via = (rng.integers(0, cube.num_nodes, 40) for _ in range(3))
    paths = hypercube_paths(cube.n, src, dst, inters=via)
    assert_flat(paths, 40)
    for i in range(40):
        row = paths.nodes[paths.offsets[i] : paths.offsets[i + 1]]
        assert (row[0], row[-1]) == (src[i], dst[i])
        # one bit flips per hop: a real hypercube edge, never a repeat
        flips = np.bitwise_xor(row[1:], row[:-1])
        assert (flips > 0).all() and (flips & (flips - 1) == 0).all()


@pytest.mark.parametrize("randomized", [True, False])
def test_hypercube_rows_match_reference(randomized):
    cube = Hypercube(6)
    dests = np.random.default_rng(9).integers(0, cube.num_nodes, cube.num_nodes)

    def run(engine):
        router = ValiantHypercubeRouter(
            cube, seed=4, randomized=randomized, engine=engine
        )
        return router, router.route(np.arange(cube.num_nodes), dests)

    router, fast = run("fast")
    _, ref = run("reference")
    assert fast.completed
    assert_stats_equal(fast, ref)
    assert_flat(router.last_fast_run.paths, cube.num_nodes)
    assert router.last_fast_run.paths.hops.tolist() == fast.hops


def test_no_per_position_table_is_padded(monkeypatch):
    """The memory property, on a seeded 16x16 §3.4 run: the flat link and
    priority tables hold exactly one entry per hop of the population, and
    nothing the finished run keeps is a (packets x positions) matrix."""
    states = []
    finish = fast_engine.finish

    def spy(s, t, deadlocked):
        states.append(s)
        return finish(s, t, deadlocked)

    monkeypatch.setattr(fast_engine, "finish", spy)
    mesh = Mesh2D.square(16)
    router = MeshRouter(mesh, seed=7, engine="fast")
    # 256 packets would take the scalar lane, which keeps no such tables
    with forced_run_lane("vector"):
        assert router.route_random_permutation().completed
    (s,) = states
    arrays = router.last_fast_run
    hops = arrays.paths.hops
    assert s.li_flat.size == s.prio_flat.size == int(hops.sum()) == int(
        arrays.hops.sum()
    )
    assert arrays.paths.nodes.size == int(hops.sum()) + mesh.num_nodes
    held = [getattr(arrays, f) for f in arrays.__dataclass_fields__]
    held += [*arrays.paths, *arrays.links]
    for value in held:
        if isinstance(value, np.ndarray):
            assert value.ndim == 1
