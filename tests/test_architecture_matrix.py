"""The router rows of the docs/architecture.md coverage matrix, executed.

Each probe names a row of the matrix (by the start of its first cell),
runs that component on a small instance with ``engine="fast"`` and
asserts the dispatch mode the row claims — both in behaviour
(``RoutingStats.run_mode``) and in the row's own words, so neither the
code nor the table can drift alone.  Emulator and cross-cutting rows
("as the underlying row dictates") are pinned by their own suites.

The document's "The fast path" section also promises a shape — a step
loop over phase functions that each take the run state explicitly —
which a test here pins, so it cannot regrow into one method.  Its
"Routers" section promises another — seven routers on one base that
meets an engine in exactly one place, with no option added or lost —
and the last tests pin that — plus where a run's links get their ids
and that queue state is per link, never per (link, priority class).
"""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.emulation
import repro.routing
import repro.sharding
import repro.topology.compiled
import repro.traffic
from repro.routing import (
    GreedyMeshRouter,
    GreedyRouter,
    LeveledRouter,
    MeshRouter,
    ShuffleRouter,
    StarRouter,
    ValiantHypercubeRouter,
    route_linear,
    valiant_shuffle_route,
)
from repro.topology import (
    DAryButterflyLeveled,
    DWayShuffle,
    Hypercube,
    Mesh2D,
    StarGraph,
)

DOC = Path(__file__).resolve().parent.parent / "docs" / "architecture.md"

#: how a row's "Fast path taken" cell spells each fast run_mode; a
#: "reference" probe needs a "Falls back to reference when" cell instead
PHRASE = {"batch": "vectorized batch", "batch-constrained": "constrained batch"}

CAPACITY = dict(node_capacity=3, flow_control="credit")


def matrix_rows() -> dict[str, tuple[str, str]]:
    """Component cell -> (fast path taken, falls back when) cells."""
    rows = {}
    for line in DOC.read_text().splitlines():
        if line.startswith("| `"):
            component, fast, fallback = line[1:].split("|")[:3]
            rows[component.strip()] = (fast.strip(), fallback.strip())
    return rows


MATRIX = matrix_rows()


class OddButterfly(DAryButterflyLeveled):
    """Coins cannot be pre-drawn without uniform out-degree tables."""

    uniform_out_degree = False


def _leveled(intermediate, net=DAryButterflyLeveled(2, 3), **kwargs):
    return lambda: LeveledRouter(
        net, intermediate=intermediate, seed=1, engine="fast", **kwargs
    ).route_random_permutation()


def _permutation(topology, make_router):
    n = topology.num_nodes
    perm = np.random.default_rng(0).permutation(n)
    return lambda: make_router(topology).route(np.arange(n), perm)


def _greedy(topology, **kwargs):
    return _permutation(
        topology, lambda t: GreedyRouter(t, engine="fast", **kwargs)
    )


MESH = Mesh2D.square(4)
LEVELED_COIN = "`LeveledRouter` coin mode"
LEVELED_NODE = "`LeveledRouter` node mode"
GREEDY = "`GreedyMeshRouter`, `GreedyRouter`"

#: (row prefix, expected run_mode, probe) — one entry per claim of a row
PROBES = {
    "leveled-coin": (LEVELED_COIN, "batch", _leveled("coin")),
    "leveled-coin-capacity": (
        LEVELED_COIN,
        "batch-constrained",
        _leveled("coin", **CAPACITY),
    ),
    "leveled-coin-nonuniform": (
        LEVELED_COIN,
        "reference",
        _leveled("coin", OddButterfly(2, 3)),
    ),
    "leveled-node": (LEVELED_NODE, "batch", _leveled("node")),
    "leveled-node-capacity": (
        LEVELED_NODE,
        "batch-constrained",
        _leveled("node", **CAPACITY),
    ),
    "leveled-node-nonuniform": (
        LEVELED_NODE,
        "batch",
        _leveled("node", OddButterfly(2, 3)),
    ),
    "shuffle": (
        "`ShuffleRouter`",
        "batch",
        lambda: ShuffleRouter(
            DWayShuffle(2, 3), seed=1, engine="fast"
        ).route_random_permutation(),
    ),
    "star-randomized": (
        "`StarRouter`",
        "batch",
        lambda: StarRouter(
            StarGraph(4), seed=1, engine="fast"
        ).route_random_permutation(),
    ),
    "star-greedy": (
        "`StarRouter`",
        "batch",
        lambda: StarRouter(
            StarGraph(4), randomized=False, engine="fast"
        ).route_random_permutation(),
    ),
    "mesh": (
        "`MeshRouter` (furthest-first",
        "batch",
        _permutation(MESH, lambda m: MeshRouter(m, seed=1, engine="fast")),
    ),
    "mesh-capacity": (
        "`MeshRouter` with `node_capacity`",
        "batch-constrained",
        _permutation(
            MESH, lambda m: MeshRouter(m, seed=1, engine="fast", **CAPACITY)
        ),
    ),
    "greedy-mesh": (
        GREEDY,
        "batch",
        _permutation(MESH, lambda m: GreedyMeshRouter(m, engine="fast")),
    ),
    "greedy-mesh-capacity": (
        GREEDY,
        "batch-constrained",
        _permutation(MESH, lambda m: GreedyMeshRouter(m, engine="fast", **CAPACITY)),
    ),
    "greedy-hypercube": (GREEDY, "batch", _greedy(Hypercube(3))),
    "greedy-ragged": (GREEDY, "batch", _greedy(StarGraph(4))),
    "greedy-ragged-capacity": (
        GREEDY,
        "batch-constrained",
        _greedy(StarGraph(4), **CAPACITY),
    ),
    "valiant-hypercube": (
        "`ValiantHypercubeRouter`",
        "batch",
        _permutation(
            Hypercube(3), lambda c: ValiantHypercubeRouter(c, seed=1, engine="fast")
        ),
    ),
    "valiant-shuffle": (
        "`valiant_shuffle_route`",
        "reference",
        lambda: valiant_shuffle_route(
            DWayShuffle(2, 3), np.arange(8), np.arange(8)[::-1], seed=1
        ),
    ),
    "route-linear": (
        "`route_linear` helper",
        "batch",
        lambda: route_linear(8, range(8), range(7, -1, -1), engine="fast"),
    ),
}


def _row(prefix: str) -> tuple[str, str]:
    hits = [
        cells
        for component, cells in MATRIX.items()
        if component.startswith(prefix)
    ]
    assert len(hits) == 1, f"{prefix!r} names {len(hits)} rows of the matrix"
    return hits[0]


@pytest.mark.parametrize("name", PROBES)
def test_router_row_takes_the_mode_it_documents(name):
    prefix, mode, probe = PROBES[name]
    fast, fallback = _row(prefix)
    if mode == "reference":
        assert fallback != "—"
    else:
        assert PHRASE[mode] in fast
    stats = probe()
    assert stats.completed
    assert stats.run_mode == mode


def test_every_router_row_is_probed():
    routers = {c for c in MATRIX if "Router" in c or "route" in c}
    probed = {
        c
        for c in routers
        if any(c.startswith(prefix) for prefix, _, _ in PROBES.values())
    }
    assert routers and probed == routers


#: the fast engine and every module split out of it, the reference
#: engine (its rule functions over one ``ReferenceRun``), and the run
#: checker all three share
ENGINE_MODULES = (
    "fast_engine.py", "fast_phases.py", "fast_scalar.py", "engine.py", "run_view.py",
)  # fmt: skip
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@pytest.mark.parametrize("module", ENGINE_MODULES)
def test_fast_engine_stays_a_loop_over_phase_functions(module):
    """No function past 150 lines (docstring included), none defined
    inside another (closures over a run's locals are what the phase and
    rule functions replaced), no ``nonlocal`` — in both engines."""
    source = (DOC.parent.parent / "src/repro/routing" / module).read_text()
    tree = ast.parse(source)
    for fn in (n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)):
        length = fn.end_lineno - fn.lineno + 1
        assert length <= 150, f"{module}:{fn.name} is {length} lines"
        nested = [
            n.lineno
            for n in ast.walk(fn)
            if n is not fn and isinstance(n, (*FUNCTIONS, ast.Lambda))
        ]
        assert not nested, f"{module}:{fn.name} nests a def/lambda at line {nested}"
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Nonlocal)]


#: the phases every network step of every fast run calls
PER_STEP_PHASES = ("admit", "enqueue", "pop_heads", "transmit_unconstrained")


def test_the_per_step_phases_call_no_reduction_method():
    """An ndarray reduction method costs ~2 µs whatever the array's
    size — a 16-packet step pays several per step for nothing.  The
    per-step phases test with ``np.count_nonzero`` and log their peaks
    for ``fold_peaks``; no ``.any()`` / ``.all()`` / ``.max()`` /
    ``.min()`` / ``.sum()`` call, on any receiver."""
    tree = ast.parse((DOC.parent.parent / "src/repro/routing/fast_phases.py").read_text())
    fns = {n.name: n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)}
    for name in PER_STEP_PHASES:
        found = [
            (node.lineno, node.func.attr)
            for node in ast.walk(fns[name])
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"any", "all", "max", "min", "sum"}
        ]
        assert not found, f"{name} reduces per step: {found}"


#: the scalar lane's functions that every network step of its runs calls
SCALAR_STEP_FUNCTIONS = ("run_steps", "transmit", "admit", "spawn_children")


def test_the_scalar_lane_steps_without_numpy():
    """A numpy call costs 0.4-2.5 µs whatever its size — the cost the
    scalar lane exists to avoid — so its per-step functions name no
    ``np.`` attribute; set-up and ``finish`` build the arrays."""
    tree = ast.parse((DOC.parent.parent / "src/repro/routing/fast_scalar.py").read_text())
    fns = {n.name: n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)}
    for name in SCALAR_STEP_FUNCTIONS:
        found = [
            (node.lineno, node.attr)
            for node in ast.walk(fns[name])
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in {"np", "numpy"}
        ]
        assert not found, f"{name} calls numpy per step: {found}"


def _names(node) -> set[str]:
    """Every name and attribute *node* mentions."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_the_scalar_lane_counts_no_node_load():
    """Node loads are derived from the arrival log when read
    (``fast_phases.peak_node_load``), so the scalar lane's step names no
    load table, node table or node peak."""
    tree = ast.parse((DOC.parent.parent / "src/repro/routing/fast_scalar.py").read_text())
    fns = {n.name: n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)}
    for name in ("run_steps", "transmit", "admit"):
        found = _names(fns[name]) & {"load", "node_load", "src", "max_node_load"}
        assert not found, f"{name} keeps a node table: {sorted(found)}"


def test_only_capacity_runs_count_node_loads_per_step():
    """The vector lane's per-step phases touch ``node_load`` only under
    an ``if`` on the run's capacity: every other run logs arrivals."""
    tree = ast.parse((DOC.parent.parent / "src/repro/routing/fast_phases.py").read_text())
    fns = {n.name: n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)}
    for name in ("pop_heads", "enqueue"):
        guarded = set()
        for node in ast.walk(fns[name]):
            if isinstance(node, ast.If) and "capacity" in _names(node.test):
                guarded |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
        loose = [
            n.lineno
            for n in ast.walk(fns[name])
            if isinstance(n, (ast.Name, ast.Attribute))
            and "node_load" in (getattr(n, "id", None), getattr(n, "attr", None))
            and id(n) not in guarded
        ]
        assert not loose, f"{name} touches node_load outside a capacity branch: {loose}"
        assert guarded, f"{name} has no capacity branch"


def test_queue_state_has_no_priority_class_tables():
    """One chain per link serves FIFO and furthest-first: nothing in
    ``fast_phases`` is indexed by a (link, priority class) pair, so no
    identifier of the class machinery survives — as a name, attribute,
    argument or ``RunState`` slot."""
    from repro.routing.fast_phases import RunState

    gone = {"n_virtual", "vli_flat", "cls_max", "counts", "n_classes", "cls_flat"}
    source = (DOC.parent.parent / "src/repro/routing/fast_phases.py").read_text()
    names = {
        getattr(node, field, None)
        for node in ast.walk(ast.parse(source))
        for field in ("name", "arg", "id", "attr")
    }
    assert not names & gone
    assert not set(RunState.__slots__) & gone
    assert "prio_flat" in RunState.__slots__


#: the router skeleton and every module built on it
ROUTER_MODULES = (
    "router.py",
    "leveled_router.py",
    "mesh_router.py",
    "star_router.py",
    "shuffle_router.py",
    "greedy.py",
    "valiant.py",
    "linear.py",
)


def test_routers_meet_an_engine_in_one_place():
    """One construction site per engine, one definition of every shared
    entry point, no per-class dispatch block — over all router modules."""
    calls, defs = Counter(), Counter()
    for module in ROUTER_MODULES:
        source = (DOC.parent.parent / "src/repro/routing" / module).read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                # a bare name or an attribute; None for a called call
                func = node.func
                calls[getattr(func, "id", None) or getattr(func, "attr", None)] += 1
            elif isinstance(node, FUNCTIONS):
                defs[node.name] += 1
    assert calls["FastPathEngine"] == 1
    assert calls["SynchronousEngine"] == 1
    assert calls["resolve_engine_mode"] <= 2
    assert defs["_run_fast"] == 0
    for shared in ("route_permutation", "route_random_permutation", "route_n_relation"):
        assert defs[shared] == 1, shared
    # star ≡ cube ≡ greedy(-mesh), shuffle ≡ serialized shuffle: a walk
    # policy exists once per distinct itinerary
    assert defs["_next_hop"] == 5  # base stub, leveled, mesh, greedy, shuffle


def _calls(tree) -> set:
    """Names called anywhere under *tree* (bare or as an attribute)."""
    return {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }


def test_the_request_phase_is_columns_until_the_reference_engine():
    """Routers are handed ``(sources, dests)`` columns: no ``_draw`` /
    ``_compile`` sees a packet (by argument, by name or by loop), the
    served emulators build none, and the fast engine's per-packet
    combine-key loop is gone — ``Packet`` objects are made by
    ``Router._materialise``, on the reference side of the one branch."""
    src = DOC.parent.parent / "src/repro"
    for module in ROUTER_MODULES:
        tree = ast.parse((src / "routing" / module).read_text())
        for fn in (n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)):
            if fn.name not in ("_draw", "_compile"):
                continue
            args = [a.arg for a in fn.args.args]
            assert args[:3] == ["self", "sources", "dests"], (module, fn.name)
            assert len(args) == (3 if fn.name == "_draw" else 4), (module, fn.name)
            names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
            assert not names & {"packets", "p", "Packet", "make_packets"}, (
                module,
                fn.name,
            )
    for module in ("base.py", "leveled.py", "mesh.py"):
        tree = ast.parse((src / "emulation" / module).read_text())
        assert not _calls(tree) & {"Packet", "make_packets"}, module
    # Packets are made in the skeleton, once: route_with_restarts routes
    # columns too, and reads its stragglers back by row
    makers = {
        module: _calls(ast.parse((src / "routing" / module).read_text()))
        & {"Packet", "make_packets"}
        for module in ROUTER_MODULES
    }
    assert {m: c for m, c in makers.items() if c} == {"router.py": {"Packet"}}
    # across the package: the skeleton's materialisation, the reference
    # reply packets, and the reference engine's caller-side constructor
    packet_calls = {
        (path.relative_to(src).as_posix(), fn.name)
        for path in sorted(src.rglob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, FUNCTIONS) and "Packet" in _calls(fn)
    }
    assert packet_calls == {
        ("routing/router.py", "_materialise"),
        ("emulation/combining.py", "make_reply"),
        ("routing/packet.py", "make_packets"),
    }
    engine = ast.parse((src / "routing/fast_engine.py").read_text())
    defined = {n.name for n in ast.walk(engine) if isinstance(n, FUNCTIONS)}
    assert "_combine_groups" not in defined
    run = next(n for n in ast.walk(engine) if isinstance(n, FUNCTIONS) and n.name == "run")
    assert "combine_groups" in [a.arg for a in run.args.kwonlyargs]


@pytest.fixture
def built_packets(monkeypatch):
    """Every ``Packet`` constructed during the test, in order."""
    built = []
    init = repro.routing.Packet.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(repro.routing.Packet, "__init__", counting)
    return built


@pytest.mark.parametrize(
    "name", [name for name, (_, mode, _) in PROBES.items() if mode != "reference"]
)
def test_a_fast_run_from_columns_constructs_no_packet(name, built_packets):
    """Counted: ``route`` / ``route_permutation`` on the fast engine is
    an anonymous population — zero ``Packet`` objects built."""
    assert PROBES[name][2]().completed
    assert not built_packets


def test_a_reference_run_from_columns_materialises_one_packet_a_row(built_packets):
    router = LeveledRouter(DAryButterflyLeveled(2, 3), seed=1, engine="reference")
    assert router.route_random_permutation().completed
    assert built_packets == router.last_packets and len(built_packets) == 8
    # a source row is its own node key; the exit key is the last-column
    # row at position 2L of the compiled ids (L=3, N=8)
    assert [p.source for p in built_packets] == list(range(8))
    assert sorted(p.dest for p in built_packets) == list(range(48, 56))
    assert all(p.node == p.dest for p in built_packets)


def test_the_fast_engine_takes_columns_and_a_network_has_one_id_space():
    """The boundary, pinned: ``FastPathEngine.run`` routes rows of a
    path matrix (no packet list, no key decoders, no ``track_paths``),
    neither engine module names ``Packet``, the reference engine has no
    key-space reconciliation options, and the translation hooks between
    a leveled network's two old id spaces exist nowhere in ``src``.
    Neither engine's ``run`` takes a caller-built spawn plan or a
    raise-on-timeout switch: reply fan-out enters the fast engine only
    as a ``Replies`` population, and a timed-out run returns its stats.
    Nor an injection schedule: every packet enters at step 0, and a
    router routes integer columns only."""
    from repro.routing import FastPathEngine, SynchronousEngine
    from repro.routing.router import CompiledRun, Router

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(FastPathEngine.run) == [
        "self", "paths", "num_nodes", "max_steps", "priorities",
        "links", "combine_groups", "link_faults", "fault_base",
    ]
    # one population form: integer columns, every packet in at step 0
    assert params(Router.route_packets) == ["self", "cols", "max_steps"]
    assert params(LeveledRouter.route_packets) == ["self", "cols", "max_steps"]
    assert params(SynchronousEngine.run) == [
        "self", "packets", "next_hop", "max_steps", "on_arrival", "link_faults",
        "fault_base",
    ]
    # no combining switch (a run combines iff its population carries
    # keys) and no trace switch (the reference engine always traces)
    assert params(FastPathEngine.__init__) == [
        "self", "node_capacity", "flow_control", "observer",
    ]
    assert params(SynchronousEngine.__init__) == [
        "self", "queue_factory", "node_capacity", "node_service_rate",
        "flow_control", "observer",
    ]
    assert CompiledRun._fields == ("paths", "num_nodes", "priorities", "links")
    src = DOC.parent.parent / "src/repro"

    def identifiers(path) -> set:
        # every way a name is spelled: def, argument, keyword, import
        # alias, bare name, attribute
        return {
            getattr(node, field, None)
            for node in ast.walk(ast.parse(path.read_text()))
            for field in ("name", "arg", "id", "attr")
        }

    for module in ("fast_engine.py", "fast_phases.py"):
        assert not identifiers(src / "routing" / module) & {
            "Packet", "make_packets", "combine_groups_of", "write_back",
        }, module
    everywhere = set().union(*map(identifiers, sorted(src.rglob("*.py"))))
    assert not everywhere & {
        "encode_key", "node_key", "trace_key", "exit_dest", "capacity_key",
        "_source_key", "_endpoint", "_wire", "_write_back",
        "_reference_fault_keys", "_fast_fault_keys",
        "spawn_plan", "raise_on_timeout", "dormant",
        "write_back", "injection_times", "combine_groups_of", "_injection_batches",
    }
    # the reference engine keeps no injection schedule either
    assert "due" not in identifiers(src / "routing/engine.py")
    # one fault-key hook, defined where a network has wires to name
    assert "_fault_keys" in Router.__dict__
    assert "_fault_keys" in LeveledRouter.__dict__ and "_fault_keys" in MeshRouter.__dict__
    assert "_reference_options" not in LeveledRouter.__dict__


def test_links_are_interned_in_one_place():
    """A run's links get their dense ids in ``fast_phases.link_tables``
    and nowhere else: the only ``np.unique`` in ``routing/`` +
    ``emulation/`` is its own — combining interns no (link, key) codes,
    its residents are found on the link chains — the leveled arithmetic
    id space is gone, and the reply run is handed the request run's
    tables instead of a per-emulator ``links_of`` hook."""
    src = DOC.parent.parent / "src/repro"
    uniques, names = [], set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            # every way an identifier is spelled: def, argument, keyword,
            # bare name, attribute
            for field in ("name", "arg", "id", "attr"):
                names.add(getattr(node, field, None))
        if path.parent.name in ("routing", "emulation"):
            uniques += [
                (path.name, fn.name)
                for fn in ast.walk(tree)
                if isinstance(fn, FUNCTIONS)
                for node in ast.walk(fn)
                if isinstance(node, ast.Attribute) and node.attr == "unique"
            ]
    assert uniques == [("fast_phases.py", "link_tables")]
    assert not names & {"links_of", "_reply_links"}
    assert not names & {"combine_codes", "host_at", "vc_flat", "combine_arrivals"}
    compiled = repro.topology.compiled
    assert not hasattr(compiled.CompiledLeveledTopology, "link_matrix")
    assert not hasattr(compiled.CompiledLeveledTopology, "link_arrays")
    # the mesh's 4N arithmetic ids are kept, emitted straight from the
    # route's segments: no padded builder, no pass over a node matrix
    assert hasattr(compiled.CompiledMesh2D, "link_arrays")
    assert not {"three_stage", "link_matrix"} & set(vars(compiled.CompiledMesh2D))
    assert not hasattr(compiled, "TrajectoryPlan")


def test_traced_entry_points_stay_on_their_own_classes():
    """benchmarks/e2e wraps these two by ``owner.__dict__[attr]``."""
    assert "route" in MeshRouter.__dict__
    assert "route_packets" in LeveledRouter.__dict__
    assert repro.routing.mesh_router.MeshRouter is MeshRouter
    assert repro.routing.leveled_router.LeveledRouter is LeveledRouter


#: the public surface, pinned: an option is added or removed only with
#: this table.  There is no combining or trace switch: a population
#: combines iff it carries keys, and a reference run always traces
SIGNATURES = {
    LeveledRouter: "(net, *, intermediate='coin', seed=None, "
    "node_capacity=None, flow_control='none', engine='auto', "
    "link_faults=None, fault_base=0, observer=None)",
    MeshRouter: "(mesh, *, seed=None, slice_rows=None, discipline='furthest_first', "
    "node_capacity=None, flow_control='none', "
    "engine='auto', link_faults=None, fault_base=0, observer=None)",
    GreedyMeshRouter: "(mesh, *, node_capacity=None, flow_control='none', "
    "engine='auto', observer=None)",
    GreedyRouter: "(topology, *, node_capacity=None, flow_control='none', engine='auto')",
    StarRouter: "(star, *, seed=None, randomized=True, engine='auto')",
    ShuffleRouter: "(shuffle, *, seed=None, randomized=True, engine='auto')",
    ValiantHypercubeRouter: "(cube, *, seed=None, randomized=True, engine='auto')",
    route_linear: "(n, origins, dests, *, discipline='furthest_first', "
    "max_steps=None, engine='auto')",
    valiant_shuffle_route: "(shuffle, sources, dests, *, seed=None, max_steps=None)",
    # ... and the serving front end's, before it moved to columns
    repro.traffic.OnlineEmulator: "(emulator, workload, *, admit_limit=None, "
    "queue_limit=None, overflow='defer', exclusive=None, request_timeout=None, "
    "retry_limit=3, backoff=4, rehash_storm_cap=None, observer=None, policies=(), "
    "default_policy=None)",
    repro.traffic.WorkloadGenerator: "(n_procs, *, arrivals, keys, read_fraction=1.0, "
    "seed=None)",
    repro.sharding.MultiTenantWorkload: "(sources)",
    repro.sharding.ShardedEmulator: "(shard_factory, n_shards, address_space, *, "
    "seed=None, placement_degree=4, observer=None)",
}

PUBLIC_NAMES = """
    CreditState DeadlockError FIFOQueue FLOW_CONTROL_MODES FastPathEngine
    FurthestFirstQueue GreedyMeshRouter GreedyRouter LeveledRouter MeshRouter
    NetworkDrainedError Packet RoutingStats RoutingTimeout ShuffleRouter StarRouter
    SynchronousEngine ValiantHypercubeRouter adversarial_star_permutation
    bitonic_route bitonic_stage_count default_slice_rows fifo_factory
    furthest_first_factory make_packets random_linear_instance resolve_engine_mode
    resolve_flow_control route_linear transpose_permutation valiant_shuffle_route
"""


@pytest.mark.parametrize("entry", SIGNATURES, ids=lambda entry: entry.__name__)
def test_no_router_option_added_or_lost(entry):
    sig = inspect.signature(entry)
    empty = inspect.Parameter.empty
    bare = sig.replace(
        parameters=[p.replace(annotation=empty) for p in sig.parameters.values()],
        return_annotation=empty,
    )
    assert str(bare) == SIGNATURES[entry]


def test_public_routing_names_unchanged():
    assert sorted(repro.routing.__all__) == sorted(PUBLIC_NAMES.split())


def test_the_front_end_has_one_admission_pass():
    """One ``_enqueue`` and one ``_admit`` in all of ``src/repro`` (the
    QoS driver used to carry a copy of each), both in the driver's
    module, and the QoS driver's name is the driver itself."""
    src = DOC.parent.parent / "src/repro"
    found = [
        (path.relative_to(src).as_posix(), fn.name)
        for path in sorted(src.rglob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, FUNCTIONS) and fn.name in ("_admit", "_enqueue")
    ]
    assert sorted(found) == [
        ("traffic/driver.py", "_admit"),
        ("traffic/driver.py", "_enqueue"),
    ]
    assert repro.sharding.MultiTenantOnlineEmulator is repro.traffic.OnlineEmulator
    assert repro.sharding.TenantPolicy is repro.traffic.TenantPolicy


# ---------------------------------------------------------------------------
# the front end in columns: one request table from generator to EpochRecord
# ---------------------------------------------------------------------------

SRC = DOC.parent.parent / "src/repro"


def _function(relpath: str, name: str):
    tree = ast.parse((SRC / relpath).read_text())
    (fn,) = [f for f in ast.walk(tree) if isinstance(f, FUNCTIONS) and f.name == name]
    return fn


def _loops(fn) -> list[str]:
    """Every ``for`` / ``while`` / comprehension in *fn*, as source of
    what it iterates (``while`` loops: their test)."""
    found = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.comprehension)):
            found.append(ast.unparse(node.iter))
        elif isinstance(node, ast.While):
            found.append("while " + ast.unparse(node.test))
    return found


def test_the_driver_keeps_no_heap_and_no_deque():
    tree = ast.parse((SRC / "traffic/driver.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {alias.name for alias in node.names}
    assert not imported & {"heapq", "collections", "deque", "heappush", "heappop"}


def test_the_served_path_loops_over_epochs_and_tenants_only():
    """No ``for`` over requests: admission is array selections on the
    pending table, the ``EpochRecord`` is read off the served slice, and
    dead letters are one ``+= zip(row views, ...)``."""
    driver = "traffic/driver.py"
    assert _loops(_function(driver, "run")) == ["range(epochs)"]  # the epoch loop
    assert _loops(_function(driver, "_enqueue")) == []
    assert _loops(_function(driver, "_admit")) == [
        "while True",  # one pass per quota'd tenant that is hit ...
        "enumerate(self._quota)",  # ... found by the quota'd-tenant loop
    ]
    assert _loops(_function(driver, "_requeue_failed")) == []


def test_step_columns_has_one_body_behind_one_entry_conversion():
    fn = _function("emulation/base.py", "_step_columns")
    body = [s for s in fn.body if not isinstance(s, ast.Expr)]  # drop the docstring
    assert ast.unparse(body[0]) == "step = step.reads_first()"
    rest = {
        getattr(node, field, None)
        for stmt in body[1:]
        for node in ast.walk(stmt)
        for field in ("id", "attr")
    }
    # the reorder is RequestColumns.reads_first's, done once, at entry
    assert not rest & {"isinstance", "argsort", "reads_first"}


def test_one_request_format_from_the_machine_to_every_emulator():
    """A PRAM step is ``RequestColumns`` from ``PRAM.step()`` to every
    ``emulate_step``: no request-object classes, no crossover to and
    from them, and the reads-first reorder defined in one place."""
    gone = {"StepTrace", "ReadRequest", "WriteRequest"}
    found, crossovers, reorders = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            found += [(rel, name) for name in names & gone]
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("trace", "columns")
                and not node.args
            ):
                crossovers.append((rel, node.lineno))
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("argsort"):
                if "is_read" in ast.unparse(node):
                    reorders.append(rel)
    assert found == [] and crossovers == []
    assert reorders == ["pram/trace.py"]


# ---------------------------------------------------------------------------
# one emulator object: a shared constructor, one way to step it
# ---------------------------------------------------------------------------


def test_the_router_alone_resolves_the_engine_and_keys_alone_combine():
    """One owner per decision: an emulator builds its routers with
    ``engine=self.engine_mode`` and lets ``Router.route_packets`` resolve
    it — ``resolve_engine_mode`` is called under ``emulation/`` only by
    ``Emulator.__init__``'s eager validation, and no emulator method
    takes an ``engine_mode`` — and nothing there switches combining or
    traces: whether a run combines is whether its rows carry keys."""
    from repro.routing import SynchronousEngine
    from repro.routing.engine import ReferenceRun
    from repro.routing.router import Router

    found = []  # (module, enclosing definition, what)
    for path in sorted((SRC / "emulation").glob("*.py")):
        tree = ast.parse(path.read_text())
        where = {}
        for top in tree.body:
            defs = top.body if isinstance(top, ast.ClassDef) else [top]
            for fn in (f for f in defs if isinstance(f, FUNCTIONS)):
                label = f"{top.name}.{fn.name}" if fn is not top else fn.name
                where.update((id(node), label) for node in ast.walk(fn))
        for node in ast.walk(tree):
            site = (path.name, where.get(id(node), "<module>"))
            if isinstance(node, ast.Call):
                func = node.func
                if (getattr(func, "id", None) or getattr(func, "attr", None)) == (
                    "resolve_engine_mode"
                ):
                    found.append((*site, "resolve_engine_mode"))
                found += [
                    (*site, f"{k.arg}=")
                    for k in node.keywords
                    if k.arg in ("combine", "track_paths")
                ]
            elif isinstance(node, ast.arg) and node.arg == "engine_mode":
                found.append((*site, "engine_mode parameter"))
    assert found == [("base.py", "Emulator.__init__", "resolve_engine_mode")]
    for fn in (Router.__init__, LeveledRouter, MeshRouter, SynchronousEngine.__init__):
        assert not {"combine", "track_paths"} & set(inspect.signature(fn).parameters)
    assert not {"combine", "track_paths"} & set(vars(ReferenceRun(SynchronousEngine(), [], None)))
    assert "addresses" not in inspect.signature(LeveledRouter.route).parameters


def test_an_emulator_has_one_verb_and_one_builder_of_its_shared_state():
    """``Emulator`` carries no mailbox (``emulate_step`` is how a shard is
    stepped, so a failed gather has nothing to clean up), and the state
    the step pipeline reads is assigned by ``Emulator.__init__`` alone:
    the network emulators hand their arguments through."""
    base = ast.parse((SRC / "emulation/base.py").read_text())
    (emulator,) = [
        c for c in ast.walk(base) if isinstance(c, ast.ClassDef) and c.name == "Emulator"
    ]
    defined = {f.name for f in emulator.body if isinstance(f, FUNCTIONS)}
    assert not defined & {"submit", "step", "drain", "inbox", "pending"}
    (init,) = [f for f in emulator.body if isinstance(f, FUNCTIONS) and f.name == "__init__"]

    def self_assigned(tree) -> set:
        return {
            t.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, ast.Attribute) and ast.unparse(t.value) == "self"
        }

    shared = self_assigned(init)
    assert shared >= {
        "mode", "n_processors", "observer", "engine_mode", "write_policy", "combine_op",
        "node_capacity", "flow_control", "rehash_factor", "max_rehashes",
        "rng", "memory", "family", "hash", "rehash_count", "faults", "virtual_clock",
    }
    # the reply-count check is unconditional and the hash degree is the
    # diameter's: neither is a constructor knob, nor is a reply's pid base
    assert not {"validate", "hash_c"} & ({a.arg for a in init.args.kwonlyargs} | shared)
    assert list(inspect.signature(repro.emulation.build_replies).parameters) == [
        "hosts",
    ]
    constructed = {"SharedMemory", "HashFamily", "FaultState"}
    assert constructed <= _calls(init)
    for module in ("emulation/leveled.py", "emulation/mesh.py"):
        tree = ast.parse((SRC / module).read_text())
        assert not self_assigned(tree) & shared, module
        assert not _calls(tree) & constructed, module


# ---------------------------------------------------------------------------
# the star's tables are closed-form: no per-node loop
# ---------------------------------------------------------------------------


def test_the_star_tables_have_no_per_node_loop():
    """``StarLogicalLeveled``'s neighbor and symbol tables and
    ``adversarial_star_permutation`` are built by the numpy kernels of
    ``topology/star.py``: no loop or comprehension over the N = n! nodes
    (the loops left run over symbols and swap columns), and no call of
    the scalar per-node functions, which stay as the tests' reference."""
    leveled = ast.parse((SRC / "topology/leveled.py").read_text())
    (star,) = [
        c for c in ast.walk(leveled)
        if isinstance(c, ast.ClassDef) and c.name == "StarLogicalLeveled"
    ]
    builders = [
        f for f in star.body
        if isinstance(f, FUNCTIONS) and f.name in ("out_neighbor_table", "_symbol_tables")
    ]
    builders += [
        _function("routing/star_router.py", "adversarial_star_permutation"),
        _function("topology/star.py", "lexicographic_perms"),
        _function("topology/star.py", "perm_rank_batch"),
    ]
    assert len(builders) == 5
    per_node = {"column_size", "num_nodes", "N", "fact"}
    scalar = {"perm_unrank", "perm_rank", "neighbors", "label", "node_id", "swap_j"}
    for fn in builders:
        for loop in _loops(fn):
            assert not per_node & set(re.findall(r"\w+", loop)), (fn.name, loop)
        assert not _calls(fn) & scalar, fn.name
