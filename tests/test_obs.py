"""Unified observability layer: metrics, tracing, flight data, schemas.

Pins the ISSUE 10 contracts:

* **registry** — labeled counters / gauges / histograms with
  deterministic snapshots, runtime name/kind validation (the runtime
  half of REPRO007);
* **tracer** — spans carry both clocks and export valid Chrome
  trace-event (Perfetto) JSON;
* **flight recorder** — the ring buffer never exceeds its bound, and
  forced :class:`DeadlockError` / :class:`RehashStormError` /
  :class:`RaceError` all arrive with the recorder's tail attached;
* **zero-overhead opt-out** — a run with :class:`NullObserver` (or a
  full :class:`Observer`) is bit-identical to a run with no observer
  at all, on both engines;
* **schema** — the traffic report's ``to_dict`` carries the versioned
  envelope + grouped sections and round-trips byte-identically across
  the fast and reference engines under a fixed seed.
"""

import json
import sys

import pytest

from conftest import batch_of
from repro.apps import (
    connected_components,
    connected_components_oracle,
    gnp_graph,
    run_app,
)
from repro.emulation import LeveledEmulator, MeshEmulator
from repro.emulation.base import Emulator, StepCost
from repro.faults import RehashStormError
from repro.obs import (
    NULL_OBSERVER,
    SCHEMA_VERSION,
    FlightRecorder,
    MetricsError,
    MetricsRegistry,
    NullObserver,
    Observer,
    SpanTracer,
    schema_of,
    stable_json,
    versioned,
)
from repro.pram.machine import PRAM
from repro.pram.trace import hotspot_step, permutation_step
from repro.pram.variants import AccessMode
from repro.routing import (
    DeadlockError,
    FastPathEngine,
    SynchronousEngine,
    make_packets,
)
from repro.topology import DAryButterflyLeveled, Mesh2D
from repro.traffic import (
    HotspotKeys,
    OnlineEmulator,
    PoissonArrivals,
    TrafficRequest,
    WorkloadGenerator,
)


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("steps_total")
        reg.counter("steps_total", 4)
        assert reg.value("steps_total") == 5

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("backlog", 7)
        reg.gauge("backlog", 3)
        assert reg.value("backlog") == 3

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (2, 5, 11):
            reg.histogram("step_steps", v)
        summary = reg.value("step_steps")
        assert summary == {"count": 3, "sum": 18, "min": 2, "max": 11}

    def test_labels_are_independent_series(self):
        reg = MetricsRegistry()
        reg.counter("steps_total", 2, network="mesh")
        reg.counter("steps_total", 5, network="leveled")
        assert reg.value("steps_total", network="mesh") == 2
        assert reg.value("steps_total", network="leveled") == 5

    def test_snapshot_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            # registration order deliberately shuffled between series
            reg.counter("b_total", 1, zone="z", net="mesh")
            reg.gauge("a_now", 9)
            reg.counter("b_total", 2, net="leveled", zone="y")
            return reg

        a, b = build(), build()
        assert a.snapshot() == b.snapshot()
        assert json.dumps(a.snapshot()) == json.dumps(b.snapshot())
        # sorted names, sorted label keys inside each series key
        names = list(a.snapshot()["metrics"])
        assert names == sorted(names)

    def test_snapshot_has_envelope(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        assert schema_of(reg.snapshot()) == (SCHEMA_VERSION, "metrics")

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("stepsTotal", "step.time", "steps-total", "2steps", ""):
            with pytest.raises(MetricsError):
                reg.counter(bad)

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("backlog")
        with pytest.raises(MetricsError, match="counter"):
            reg.gauge("backlog", 1)


# ---------------------------------------------------------------------------
# span tracer
# ---------------------------------------------------------------------------

class TestSpanTracer:
    def test_span_records_both_clocks(self):
        tracer = SpanTracer()
        with tracer.span("step", category="engine", virtual_clock=10) as sp:
            sp.virtual_end = 14
        (ev,) = tracer.to_chrome_trace()["traceEvents"]
        assert ev["name"] == "step"
        assert ev["cat"] == "engine"
        assert ev["args"]["virtual_start"] == 10
        assert ev["args"]["virtual_end"] == 14
        assert ev["dur"] >= 0

    def test_chrome_trace_is_valid(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("a", category="request", virtual_clock=0, attempt=1) as sp:
            sp.virtual_end = 3
        with tracer.span("b"):
            pass
        doc = tracer.to_chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert len(doc["traceEvents"]) == 2
        first = doc["traceEvents"][0]
        assert first["ph"] == "X"  # complete events: ts + dur in µs
        assert first["ts"] >= 0 and first["dur"] >= 0
        assert first["args"]["attempt"] == 1
        assert first["args"]["virtual_start"] == 0
        assert first["args"]["virtual_end"] == 3
        # virtual clocks are optional; span b carries none
        assert "virtual_start" not in doc["traceEvents"][1]["args"]
        path = tmp_path / "trace.json"
        tracer.write(path)
        assert json.loads(path.read_text())["traceEvents"] == doc["traceEvents"]

    def test_spans_survive_exceptions(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert len(tracer) == 1
        assert tracer.to_chrome_trace()["traceEvents"][0]["dur"] >= 0


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_bound_is_hard(self):
        rec = FlightRecorder(4)
        for i in range(100):
            rec.record("engine_step", virtual_clock=i)
        assert len(rec) == 4
        tail = rec.tail()
        assert [e["virtual_clock"] for e in tail] == [96, 97, 98, 99]

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)
        with pytest.raises(ValueError):
            FlightRecorder(-3)

    def test_events_keep_fields(self):
        rec = FlightRecorder(8)
        rec.record("rehash", virtual_clock=12, attempt=2, wedged=True)
        (ev,) = rec.tail()
        assert ev == {
            "kind": "rehash", "virtual_clock": 12, "attempt": 2, "wedged": True
        }


# ---------------------------------------------------------------------------
# observer composition
# ---------------------------------------------------------------------------

class TestObserverComposition:
    def test_null_observer_is_inert(self):
        obs = NullObserver()
        assert not obs.enabled
        assert obs.metrics is obs.tracer is obs.profile is obs.recorder is None
        with obs.span("x", virtual_clock=1) as sp:
            sp.virtual_end = 2  # must tolerate the live-span protocol
        obs.count("a_total")
        obs.observe("c_steps", 1)
        obs.record("step")
        assert obs.flight_tail() == ()
        assert not NULL_OBSERVER.enabled

    def test_components_are_opt_in(self):
        obs = Observer(metrics=True, tracing=False, profiling=False,
                       flight_recorder=0)
        assert obs.tracer is None and obs.profile is None
        assert obs.recorder is None
        obs.count("a_total")
        with obs.span("x"):
            pass  # degrades to the null span
        obs.record("step")
        assert obs.flight_tail() == ()
        assert obs.metrics.value("a_total") == 1

    def test_full_observer_routes_hooks(self):
        obs = Observer(flight_recorder=2)
        obs.count("a_total", 3)
        obs.observe("c_steps", 5)
        with obs.span("s", virtual_clock=0) as sp:
            sp.virtual_end = 1
        for i in range(5):
            obs.record("step", virtual_clock=i)
        assert obs.metrics.value("a_total") == 3
        assert len(obs.tracer) == 1
        assert [e["virtual_clock"] for e in obs.flight_tail()] == [3, 4]


# ---------------------------------------------------------------------------
# error diagnostics carry the flight tail
# ---------------------------------------------------------------------------

# the canonical wedge from test_flow_control: two packets crossing on a
# line of capacity-1 nodes under plain backpressure
CROSS_PATHS = [[1, 2, 3], [2, 1, 0]]


def _crossing_packets():
    return make_packets([p[0] for p in CROSS_PATHS], [p[-1] for p in CROSS_PATHS])


def _crossing_next_hop(p):
    path = CROSS_PATHS[p.pid]
    if p.node == p.dest:
        return None
    return path[path.index(p.node) + 1]


class TestErrorFlightTails:
    def test_reference_deadlock_carries_tail(self):
        obs = Observer(flight_recorder=8)
        engine = SynchronousEngine(node_capacity=1, observer=obs)
        with pytest.raises(DeadlockError) as exc:
            engine.run(_crossing_packets(), _crossing_next_hop, max_steps=100)
        tail = exc.value.flight_tail
        assert tail and len(tail) <= 8
        assert all(e["kind"] == "engine_step" for e in tail)

    def test_fast_deadlock_carries_tail(self):
        obs = Observer(flight_recorder=8)
        engine = FastPathEngine(node_capacity=1, observer=obs)
        with pytest.raises(DeadlockError) as exc:
            engine.run(CROSS_PATHS, num_nodes=4, max_steps=100)
        assert exc.value.flight_tail
        assert len(exc.value.flight_tail) <= 8

    def test_without_observer_tail_is_empty(self):
        with pytest.raises(DeadlockError) as exc:
            SynchronousEngine(node_capacity=1).run(
                _crossing_packets(), _crossing_next_hop, max_steps=100
            )
        assert exc.value.flight_tail == ()

    def test_rehash_storm_carries_tail(self):
        """Driver storm-cap abort: the exception arrives with the last-K
        events (here the successful epoch before the storm)."""

        class _StubEmulator(Emulator):
            def __init__(self, outcomes):
                self._outcomes = list(outcomes)
                self.virtual_clock = 0

            def emulate_step(self, step):
                return self._outcomes.pop(0)

        class _StubWorkload:
            n_procs = 4
            address_space = 64

            def __init__(self, epochs):
                self._epochs = [list(e) for e in epochs]

            def stream(self, epochs):
                out = list(self._epochs[:epochs])
                out += [[] for _ in range(epochs - len(out))]
                return [batch_of(e) for e in out]

        def req(rid):
            return TrafficRequest(rid=rid, pid=0, addr=5 + rid, kind="write",
                                  epoch=0, value=rid)

        obs = Observer(flight_recorder=16)
        emu = _StubEmulator([StepCost(1, 1), StepCost(1, 1, rehashes=5)])
        wl = _StubWorkload([[req(0)], [req(1)]])
        drv = OnlineEmulator(emu, wl, rehash_storm_cap=4, observer=obs)
        with pytest.raises(RehashStormError, match="cap 4") as exc:
            drv.run(2)
        tail = exc.value.flight_tail
        assert any(e["kind"] == "epoch" for e in tail)

    def test_race_error_carries_tail(self):
        from repro.analysis.races import RaceError
        from repro.pram.machine import Read, Write

        def racy(pid, nprocs):  # all pids read cell 0: EREW-illegal
            v = yield Read(0)
            yield Write(1, pid + (0 * (v or 0)))

        obs = Observer(flight_recorder=8)
        pram = PRAM(4, 8, mode=AccessMode.EREW, enforce_mode=False,
                    observer=obs)
        pram.load(racy)
        with pytest.raises(RaceError) as exc:
            pram.run(check_races=True)
        tail = exc.value.flight_tail
        assert tail
        assert all(e["kind"] == "pram_step" for e in tail)


# ---------------------------------------------------------------------------
# opt-out bit identity + end-to-end observer yield
# ---------------------------------------------------------------------------

def _run_cc(observer, network, engine):
    g = gnp_graph(12, 0.25, seed=7)
    return run_app(
        connected_components(g),
        connected_components_oracle(g),
        network=network,
        engine=engine,
        seed=0,
        observer=observer,
    )


class TestBitIdentity:
    @pytest.mark.parametrize("network", ["leveled", "mesh"])
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_observer_never_changes_results(self, network, engine):
        base = _run_cc(None, network, engine)
        assert _run_cc(NullObserver(), network, engine) == base
        assert _run_cc(Observer(), network, engine) == base

    def test_one_observer_lights_up_the_stack(self):
        obs = Observer()
        run = _run_cc(obs, "leveled", "fast")
        assert run.memory_matches and run.oracle_match
        # metrics: service counters landed
        snap = obs.metrics.snapshot()["metrics"]
        assert "pram_steps_total" in snap
        assert "network_steps_total" in snap
        # tracing: a Perfetto document with the app + routing categories
        doc = obs.tracer.to_chrome_trace()
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert {"app", "request", "reply"} <= cats
        # profiling: per-mode and per-phase wall-time breakdowns
        prof = obs.profile.to_dict()
        assert prof["runs"] > 0
        assert prof["modes"] and prof["phases"]
        assert all(t >= 0 for t in prof["phases"].values())
        # flight data: recent engine steps are on the ring
        assert any(e["kind"] == "engine_step" for e in obs.flight_tail())

    @pytest.mark.parametrize("observer", [None, NullObserver()], ids=["none", "null"])
    def test_unobserved_run_never_reads_the_wall_clock(self, monkeypatch, observer):
        """The counted form of "opting out is free": with the clock
        portal rigged to raise, a mesh CRCW step and a credit-butterfly
        step (constrained + escape) still complete."""

        def no_clock():
            raise AssertionError("wall clock read on an unobserved run")

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and hasattr(module, "wall_time"):
                monkeypatch.setattr(module, "wall_time", no_clock)
        mesh = Mesh2D.square(4)
        emu = MeshEmulator(mesh, 64, mode="crcw", seed=3, observer=observer)
        emu.emulate_step(hotspot_step(mesh.num_nodes, 64, seed=4))
        net = DAryButterflyLeveled(2, 4)
        emu = LeveledEmulator(
            net, 64, seed=3, node_capacity=1, flow_control="credit", observer=observer
        )
        cost = emu.emulate_step(permutation_step(net.column_size, 64, seed=4))
        assert {"batch-constrained", "reference"} & set(cost.run_modes)
        assert cost.credits_stalled  # credits ran out: escape buffers were in play

    def test_failed_setup_is_billed_to_the_configured_mode(self):
        obs = Observer(metrics=False, tracing=False, flight_recorder=0)
        with pytest.raises(ValueError, match=r"paths\[0\] is empty"):
            FastPathEngine(node_capacity=2, observer=obs).run(
                [[]], num_nodes=2, max_steps=5
            )
        assert list(obs.profile.to_dict()["modes"]) == ["batch-constrained"]

    def test_profile_phases_on_both_engines(self):
        phases = {}
        for engine in ("fast", "reference"):
            obs = Observer(metrics=False, tracing=False, flight_recorder=0)
            net = Mesh2D.square(4)
            emu = MeshEmulator(net, 64, seed=3, engine=engine, observer=obs)
            emu.emulate_step(permutation_step(net.num_nodes, 64, seed=4))
            phases[engine] = obs.profile.to_dict()["phases"]
        # both engines attribute wall time to named routing phases
        assert phases["fast"] and phases["reference"]
        assert "transmission" in phases["reference"]

    def test_combining_is_booked_only_where_arrivals_meet(self):
        """The fast engine's ``combining`` bucket times the contended
        residue's absorb pass: a CRCW step whose arrivals meet books
        some, an EREW step books none, and so does a combining run whose
        packets never share a link — a packet alone on an idle link
        costs no combining work.  ``benchmarks/e2e/tracing.py`` checks
        the same split from outside (``NONZERO_ONLY_ON``)."""

        def combining(mode, step):
            obs = Observer(metrics=False, tracing=False, flight_recorder=0)
            mesh = Mesh2D.square(4)
            emu = MeshEmulator(mesh, 64, mode=mode, seed=3, engine="fast", observer=obs)
            emu.emulate_step(step(mesh.num_nodes, 64, seed=4))
            return obs.profile.phase_total("combining")

        assert combining("crcw", hotspot_step) > 0
        assert combining("erew", permutation_step) == 0
        obs = Observer(metrics=False, tracing=False, flight_recorder=0)
        FastPathEngine(observer=obs).run(
            [[0, 3, 6], [1, 4, 6], [2, 5, 6]], num_nodes=7, max_steps=9,
            combine_groups=[1, 1, 1],
        )
        assert obs.profile.phase_total("arrival") > 0
        assert obs.profile.phase_total("combining") == 0


# ---------------------------------------------------------------------------
# unified report schema
# ---------------------------------------------------------------------------

def _driver_report(engine):
    mesh = Mesh2D.square(4)
    n = mesh.num_nodes
    em = MeshEmulator(mesh, 4 * n, mode="crcw", seed=5, engine=engine)
    wl = WorkloadGenerator(
        n,
        arrivals=PoissonArrivals(0.6 * n),
        keys=HotspotKeys(4 * n, hot_addresses=3, hot_fraction=0.5),
        read_fraction=0.8,
        seed=9,
    )
    return OnlineEmulator(em, wl).run(8)


def _strip_dispatch(d):
    """Drop the engine-dispatch detail (the one legitimately
    engine-dependent slice) exactly as the differential tests do."""
    d = json.loads(json.dumps(d))
    d.pop("run_mode_counts", None)
    for ep in d.get("epochs", []):
        ep.pop("run_modes", None)
    return d


class TestReportSchema:
    def test_versioned_envelope(self):
        d = versioned("demo", {"x": 1})
        assert schema_of(d) == (SCHEMA_VERSION, "demo")
        assert d["x"] == 1
        with pytest.raises(ValueError):
            versioned("demo", {"schema": {}})
        assert schema_of({"x": 1}) is None

    def test_stable_json_is_order_insensitive(self):
        assert stable_json({"b": 1, "a": 2}) == stable_json({"a": 2, "b": 1})

    def test_traffic_report_sections(self):
        report = _driver_report("fast")
        d = report.to_dict()
        assert schema_of(d) == (SCHEMA_VERSION, "traffic_report")
        assert schema_of(d["traffic"]) == (SCHEMA_VERSION, "traffic")
        assert schema_of(d["faults"]) == (SCHEMA_VERSION, "faults")
        assert schema_of(d["tenants"]) == (SCHEMA_VERSION, "tenants")
        # sections agree with the historical flat keys
        assert d["traffic"]["total_delivered"] == d["total_delivered"]
        assert d["faults"]["total_rehashes"] == d["total_rehashes"]
        assert d["tenants"]["totals"] == report.tenant_totals()

    def test_round_trip_stable_across_engines(self):
        fast = _strip_dispatch(_driver_report("fast").to_dict())
        ref = _strip_dispatch(_driver_report("reference").to_dict())
        assert stable_json(fast) == stable_json(ref)
