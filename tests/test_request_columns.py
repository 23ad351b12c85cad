"""The request phase in columns: both engines must serve a step alike.

An emulator hands its router ``(source, module, combine key)`` columns
and never builds a ``Packet``.  On the fast engine that run is an
anonymous population; on the reference engine
``Router.route_packets`` materialises the packets.  The two are one
simulation: same ``StepCost``, same ``RoutingStats`` for every routing
run (``delays`` / ``hops`` order included), same memory, same RNG
state afterwards — over generated networks, access modes, phase-1
flavours and fault scenarios, and on the degenerate steps (empty, all
writes, everything combined into one host).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulation import (
    KarlinUpfalMeshEmulator,
    LeveledEmulator,
    MeshEmulator,
    RanadeEmulator,
    ReplyCountError,
    RequestRoutingError,
)
from repro.faults import FaultPlan, FaultSchedule, RehashStormError
from repro.obs import Observer
from repro.pram.trace import RequestColumns
from repro.routing import LeveledRouter, MeshRouter, Packet
from repro.sharding import ShardedEmulator
from repro.topology import DAryButterflyLeveled, Mesh2D, StarLogicalLeveled
from test_fast_engine import assert_stats_equal

NETWORKS = {
    "butterfly": DAryButterflyLeveled(2, 3),
    "star": StarLogicalLeveled(4),
    "mesh": Mesh2D(4, 4),
}
FAULTS = ("none", "dead_module", "dead_processor", "down_link")


def n_procs(net) -> int:
    return net.num_nodes if isinstance(net, Mesh2D) else net.column_size


def make_emulator(net, mode, intermediate, faults, seed, engine):
    space = 4 * n_procs(net)
    common = dict(mode=mode, seed=seed, engine=engine, faults=faults)
    if isinstance(net, Mesh2D):
        return MeshEmulator(net, space, **common)
    return LeveledEmulator(net, space, intermediate=intermediate, **common)


def fault_spec(kind, net, mode, intermediate, seed, step):
    """A fault that bites *step*: the module its first address hashes to
    dies at step 0 (undetected: fail-fast + rehash), its first
    processor is dead (remapped), or a wire out of that processor is
    down for the first steps of the request run."""
    pid, addr = int(step.pids[0]), int(step.addrs[0])
    if kind == "none":
        return None
    if kind == "dead_processor":
        return FaultPlan(dead_processors={pid})
    if kind == "dead_module":
        # same seed, same first hash function
        probe = make_emulator(net, mode, intermediate, None, seed, "fast")
        return FaultSchedule().kill_module(0, probe.module_of(addr))
    if isinstance(net, Mesh2D):
        wire = (pid, pid + 1 if (pid + 1) % net.cols else pid - 1)
    else:
        wire = (0, pid, net.out_neighbors(0, pid)[0])
    return FaultSchedule().link_down(0, wire).link_up(9, wire)


def serve(emulator, steps):
    """Emulate *steps*; returns everything the two engines must agree
    on."""
    runs = []
    make_router = emulator._make_router

    def spied_router(fault_base=0):
        router = make_router(fault_base)
        route = router.route

        def spy(sources, dests, *, max_steps=None, combine_keys=None):
            stats = route(sources, dests, max_steps=max_steps, combine_keys=combine_keys)
            runs.append(stats)
            return stats

        router.route = spy
        return router

    reverse_path_replies = emulator._reverse_path_replies

    def spied_replies(*args, **kwargs):
        runs.append(reverse_path_replies(*args, **kwargs))
        return runs[-1]

    emulator._make_router = spied_router
    emulator._reverse_path_replies = spied_replies
    costs = [emulator.emulate_step(step) for step in steps]
    memory = emulator.memory
    return dict(
        costs=costs,
        runs=runs,
        memory={addr: memory.read(addr) for addr in memory.touched()},
        rng=emulator.rng.bit_generator.state,
        hash=emulator.hash.coeffs,
        rehashes=emulator.rehash_count,
        clock=emulator.virtual_clock,
        known_dead=emulator.faults.known_dead,
    )


def assert_same_simulation(a, b):
    assert len(a["runs"]) == len(b["runs"])
    for x, y in zip(a["runs"], b["runs"]):
        assert_stats_equal(x, y)
    for x, y in zip(a["costs"], b["costs"]):
        # run_modes name the engine; everything else is the simulation
        assert x == replace(y, run_modes=x.run_modes)
        assert len(x.run_modes) == len(y.run_modes)
    for field in ("memory", "rng", "hash", "rehashes", "clock", "known_dead"):
        assert a[field] == b[field], field


def both_engines(net, mode, intermediate, faults, seed, steps):
    make = lambda engine: make_emulator(net, mode, intermediate, faults, seed, engine)
    columns = serve(make("fast"), steps)
    assert_same_simulation(columns, serve(make("reference"), steps))
    return columns


@st.composite
def served_steps(draw):
    name = draw(st.sampled_from(sorted(NETWORKS)))
    net = NETWORKS[name]
    n = n_procs(net)
    mode = draw(st.sampled_from(["erew", "crcw"]))
    intermediate = draw(st.sampled_from(["node", "coin"]))
    steps = []
    for _ in range(draw(st.integers(1, 2))):
        if mode == "erew":
            # one request per processor, every address its own
            pids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
            addrs = draw(
                st.lists(
                    st.integers(0, 4 * n - 1),
                    min_size=len(pids),
                    max_size=len(pids),
                    unique=True,
                )
            )
        else:
            # hot keys: many processors, a few addresses
            hot = draw(st.lists(st.integers(0, 4 * n - 1), min_size=1, max_size=3))
            pids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
            addrs = [draw(st.sampled_from(hot)) for _ in pids]
        reads, writes = [], []
        for pid, addr in zip(pids, addrs):
            if draw(st.integers(0, 3)):
                reads.append((pid, addr))
            else:
                writes.append((pid, addr, pid + 100))
        steps.append(RequestColumns.of(reads, writes))
    fault = draw(st.sampled_from(FAULTS))
    seed = draw(st.integers(0, 2**16))
    return net, mode, intermediate, fault, seed, steps


@given(case=served_steps())
@settings(max_examples=60, deadline=None)
def test_columns_and_reference_agree(case):
    net, mode, intermediate, fault, seed, steps = case
    faults = fault_spec(fault, net, mode, intermediate, seed, steps[0])
    served = both_engines(net, mode, intermediate, faults, seed, steps)
    first = served["costs"][0]
    assert first.requests == steps[0].num_requests
    if fault == "dead_module":
        # the kill was found by a request aimed at it: NACK, rehash, retry
        assert first.run_modes[0] == "fault-failfast" and first.rehashes >= 1
        assert served["known_dead"]


@pytest.mark.parametrize("short", ["pids", "addrs", "is_read", "values"])
@pytest.mark.parametrize("fleet", [False, True], ids=["bare", "sharded"])
def test_misaligned_columns_are_rejected(short, fleet):
    """A short column used to be served silently: ``_step_columns``
    indexed every column by the rows of ``is_read`` and dropped the
    requests the short one lacked."""
    net = NETWORKS["butterfly"]

    def shard(index, seed):
        return LeveledEmulator(net, 32, mode="crcw", seed=seed)

    emulator = ShardedEmulator(shard, 2, 32, seed=1) if fleet else shard(0, 1)
    columns = {
        "pids": np.arange(5),
        "addrs": np.arange(3, 8),
        "is_read": np.ones(5, dtype=bool),
        "values": np.zeros(5, dtype=np.int64),
    }
    columns[short] = columns[short][:3]
    with pytest.raises(ValueError, match=rf"RequestColumns\.{short} has 3 rows but \w+ has 5"):
        emulator.emulate_step(RequestColumns(**columns))
    assert emulator.virtual_clock == 0


@pytest.mark.parametrize("name", sorted(NETWORKS))
@pytest.mark.parametrize("intermediate", ["node", "coin"])
def test_the_empty_step(name, intermediate):
    served = both_engines(NETWORKS[name], "crcw", intermediate, None, 3, [RequestColumns.of()])
    (cost,) = served["costs"]
    assert (cost.requests, cost.total_steps, cost.combines) == (0, 0, 0)
    assert len(served["runs"]) == 1 and not served["memory"]


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_an_all_writes_step_has_no_reply_phase(name):
    net = NETWORKS[name]
    n = n_procs(net)
    # every processor writes; the even ones fight over address 5
    step = RequestColumns.of(
        writes=[(p, p + 8 if p % 2 else 5, 10 * p) for p in range(n)]
    )
    served = both_engines(net, "crcw", "coin", None, 11, [step])
    (cost,) = served["costs"]
    assert cost.reply_steps == 0 and len(cost.run_modes) == 1
    assert cost.combines > 0 and len(served["runs"]) == 1
    # ARBITRARY write policy: the lowest processor id wins
    assert served["memory"] == {5: 0, **{p + 8: 10 * p for p in range(1, n, 2)}}


def test_every_request_combined_into_one_host():
    """Six reads of one cell from one processor of a 1 x 5 mesh share
    their first link: the first is queued, five are absorbed at
    injection, one host reaches the module and its reply fans out to
    all six."""
    net = Mesh2D(1, 5)
    step = RequestColumns.of(reads=[(0, 4)] * 6)
    results = {}
    for engine in ("fast", "reference"):
        emulator = MeshEmulator(
            net, 5, mode="crcw", placement="direct", seed=2, engine=engine
        )
        seen = []
        serve_memory = emulator._serve_memory
        emulator._serve_memory = lambda *a: seen.append(serve_memory(*a)) or seen[-1]
        results[engine] = (emulator.emulate_step(step), seen)
    for cost, (read_hosts,) in results.values():
        assert cost.combines == 5 and cost.requests == 6
        assert (cost.request_steps, cost.reply_steps) == (4, 4)
        assert read_hosts.tolist() == [0]
    fast, ref = results["fast"][0], results["reference"][0]
    assert fast == replace(ref, run_modes=fast.run_modes)


def test_a_run_that_gives_up_without_faults_is_typed_and_terminal():
    """No fault schedule: non-completion is a bug, not a storm — a
    ``RequestRoutingError`` (never the retryable ``RehashStormError``)
    carrying the attempt accounting."""
    net = NETWORKS["butterfly"]
    emulator = LeveledEmulator(net, 32, seed=1, rehash_factor=0.01, max_rehashes=2)
    # an allotment of one step cannot be met; shrink the last resort too
    emulator._make_router = lambda base=0, make=emulator._make_router: _capped(make(base))
    step = RequestColumns.of(reads=[(p, p) for p in range(net.column_size)])
    with pytest.raises(RequestRoutingError, match="request routing failed") as exc:
        emulator.emulate_step(step)
    err = exc.value
    assert not isinstance(err, RehashStormError) and isinstance(err, RuntimeError)
    assert err.rehashes == 2 and err.stall_steps == 4  # four one-step attempts
    assert len(err.run_modes) == 4 and err.flight_tail == ()


@pytest.mark.parametrize("engine", ("fast", "reference"))
def test_a_lost_reply_is_typed_terminal_and_carries_the_step_accounting(engine):
    """The replies of a completed reply phase are counted; a
    mismatch is a ``ReplyCountError`` — a ``RequestRoutingError``, so
    the driver does not retry it — with the attempt log and the flight
    tail, not a bare ``AssertionError``."""
    net = NETWORKS["butterfly"]
    emulator = LeveledEmulator(
        net, 32, seed=1, engine=engine, observer=Observer(flight_recorder=8)
    )
    replies = emulator._reverse_path_replies

    def one_short(*args, **kwargs):
        stats = replies(*args, **kwargs)
        stats.delivered -= 1
        return stats

    emulator._reverse_path_replies = one_short
    n = net.column_size
    step = RequestColumns.of(reads=[(p, p) for p in range(n)])
    with pytest.raises(ReplyCountError, match=f"{n} reads but {n - 1} replies delivered") as exc:
        emulator.emulate_step(step)
    err = exc.value
    assert isinstance(err, RequestRoutingError) and not isinstance(err, AssertionError)
    assert err.rehashes == 0 and len(err.run_modes) == 1
    assert isinstance(err.flight_tail, tuple)


def test_a_baseline_that_runs_out_its_budget_is_typed_too():
    """The Karlin–Upfal leg and the Ranade pass used to raise bare
    ``RuntimeError``s; both carry the burned steps now, and the leg goes
    through ``_failure`` like every routing phase (retryable under a
    fault schedule, terminal without)."""
    mesh = Mesh2D.square(4)
    step = RequestColumns.of(reads=[(p, p) for p in range(mesh.num_nodes)])
    for faults, expected in (
        (None, RequestRoutingError),
        (FaultSchedule().kill_module(10_000, 3), RehashStormError),
    ):
        ku = KarlinUpfalMeshEmulator(
            mesh, 64, seed=1, faults=faults, observer=Observer(flight_recorder=8)
        )
        ku._make_router = lambda base=0, make=ku._make_router: _capped(make(base))
        with pytest.raises(expected, match="leg did not complete") as exc:
            ku.emulate_step(step)
        assert type(exc.value) is expected and exc.value.stall_steps == 1
        assert len(exc.value.run_modes) == 1 and isinstance(exc.value.flight_tail, tuple)
    ranade = RanadeEmulator(3, 64, seed=1, max_pass_steps=2)
    with pytest.raises(RequestRoutingError, match="Ranade pass exceeded 2 steps") as exc:
        ranade.emulate_step(RequestColumns.of(reads=[(p, p) for p in range(8)]))
    assert (exc.value.stall_steps, exc.value.run_modes) == (2, ())


#: two routers with 8 endpoints each: a leveled and a flat network
ROUTERS = {
    "leveled": lambda **kw: LeveledRouter(NETWORKS["butterfly"], **kw),
    "flat": lambda **kw: MeshRouter(Mesh2D(2, 4), **kw),
}
BOTH = pytest.mark.parametrize("engine", ("fast", "reference"))
EACH = pytest.mark.parametrize("name", sorted(ROUTERS))


@BOTH
@EACH
def test_a_short_combine_key_column_is_rejected_on_either_engine(name, engine):
    """The fast engine refused it; the reference engine routed anyway,
    silently dropping the rows past the key column's end
    (``completed=True`` for one packet of three)."""
    router = ROUTERS[name](engine=engine, seed=1)
    with pytest.raises(ValueError, match="one combine key per packet"):
        router.route([0, 1, 2], [1, 1, 1], combine_keys=[5])
    stats = router.route([0, 1, 2], [1, 1, 1], combine_keys=[5, 5, 5])
    assert (stats.delivered, stats.total_packets) == (3, 3)


@BOTH
@EACH
def test_an_endpoint_out_of_range_is_the_same_value_error_on_either_engine(name, engine):
    """Used to be an ``IndexError``, a ``RouteStalledError`` or a wrong
    answer, depending on engine, network and sign; now one ``ValueError``
    naming the first offending row, raised before anything is drawn."""
    router = ROUTERS[name](engine=engine, seed=1)
    rng_before = router.rng.bit_generator.state
    for sources, dests, message in (
        ([0, 1, 9], [1, 1, 1], r"sources\[2\]=9 is not one of the 8 endpoints"),
        ([0, -1, 2], [1, 1, 1], r"sources\[1\]=-1 is not one of the 8 endpoints"),
        ([0, 1, 2], [8, 1, 1], r"dests\[0\]=8 is not one of the 8 endpoints"),
        ([0, 1, 2], [1, 1, -3], r"dests\[2\]=-3 is not one of the 8 endpoints"),
    ):
        with pytest.raises(ValueError, match=message):
            router.route(sources, dests)
    assert router.rng.bit_generator.state == rng_before


def _capped(router):
    """*router* with every run cut to one step."""
    route = router.route
    router.route = lambda s, d, *, max_steps=None, combine_keys=None: route(
        s, d, max_steps=1, combine_keys=combine_keys
    )
    return router


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_a_served_step_builds_packets_on_the_reference_engine_only(name, monkeypatch):
    built = []
    init = Packet.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Packet, "__init__", counting)
    net = NETWORKS[name]
    n = n_procs(net)
    step = RequestColumns.of(
        reads=[(p, p % 3) for p in range(n)],
        writes=[(p, 7, p) for p in range(0, n, 2)],
    )
    fast = make_emulator(net, "crcw", "coin", None, 4, "fast").emulate_step(step)
    assert not built and fast.combines
    make_emulator(net, "crcw", "coin", None, 4, "reference").emulate_step(step)
    # the request population, then one reply per read
    assert [p.pid for p in built[: step.num_requests]] == list(range(step.num_requests))
    assert len(built) == step.num_requests + np.count_nonzero(step.is_read)
