"""Fault-injection subsystem: specs, runtime, engines, and hardening.

Four layers, pinned bottom-up:

* **specs** — :class:`FaultPlan` / :class:`FaultSchedule` validation,
  stable event labels, same-step ordering (kills before revives);
* **runtime** — deterministic next-live-cyclic remapping, the
  truth-vs-detected split (``known_dead``), and the piecewise-constant
  link timeline with its per-engine views;
* **engines** — the differential contract extends to faults: under a
  fixed seed and an identical fault spec, the fast path matches the
  reference engine bit for bit (stats, delays, memory, per-step costs),
  including mid-run module kills, link flaps, and slow links; a down
  link stalls like a zero-credit link and never raises DeadlockError;
* **hardening** — the online driver's retry/timeout/backoff policy and
  its exact conservation law: every arrival is delivered, dropped,
  timed out, dead-lettered, or still queued — never silently lost.
"""

import numpy as np
import pytest

from conftest import batch_of, enqueue, queued
from repro.emulation import LeveledEmulator, MeshEmulator
from repro.emulation.base import Emulator, StepCost
from repro.faults import (
    FaultConfigError,
    FaultEvent,
    FaultPlan,
    FaultSchedule,
    RehashStormError,
)
from repro.faults.runtime import FaultState, LinkFaultTimeline
from repro.pram.trace import RequestColumns, permutation_step
from repro.routing import LeveledRouter, MeshRouter
from repro.topology import DAryButterflyLeveled, Mesh2D
from repro.traffic import (
    DeterministicArrivals,
    OnlineEmulator,
    TrafficRequest,
    UniformKeys,
    WorkloadGenerator,
)
from repro.traffic.generators import RID

ROUTER_STAT_FIELDS = (
    "steps",
    "delivered",
    "total_packets",
    "max_queue",
    "completed",
    "combines",
    "max_node_load",
    "credits_stalled",
    "escape_hops",
    "fault_stalls",
)


def assert_router_stats_equal(fast, ref):
    for f in ROUTER_STAT_FIELDS:
        assert getattr(fast, f) == getattr(ref, f), f
    assert fast.delays == ref.delays
    assert fast.hops == ref.hops


def cost_tuple(c: StepCost):
    return (
        c.request_steps,
        c.reply_steps,
        c.rehashes,
        c.combines,
        c.max_queue,
        c.credits_stalled,
        c.stall_steps,
        c.fault_stalls,
        c.deadlock_retries,
    )


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


class TestFaultSpecs:
    def test_unknown_event_kind_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultEvent(0, "melt_module", 3)

    def test_negative_step_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultEvent(-1, "kill_module", 3)

    def test_slow_link_needs_period(self):
        with pytest.raises(FaultConfigError):
            FaultEvent(0, "slow_link", (0, 1))
        with pytest.raises(FaultConfigError):
            FaultEvent(0, "slow_link", (0, 1), period=1)
        with pytest.raises(FaultConfigError):
            FaultSchedule().kill_module(0, 3).add(
                FaultEvent(0, "link_down", (0, 1), period=2)
            )

    def test_plan_rejects_negative_ids(self):
        with pytest.raises(FaultConfigError):
            FaultPlan(dead_modules=[-1])
        with pytest.raises(FaultConfigError):
            FaultPlan(dead_processors=[2, -3])

    def test_describe_labels_are_stable(self):
        assert FaultEvent(50, "kill_module", 12).describe() == "kill_module(12)@50"
        assert (
            FaultEvent(7, "slow_link", (3, 4), period=3).describe()
            == "slow_link((3, 4), period=3)@7"
        )

    def test_truthiness(self):
        assert not FaultPlan()
        assert FaultPlan(dead_modules=[1])
        assert not FaultSchedule()
        assert FaultSchedule(plan=FaultPlan(dead_processors=[0]))
        assert FaultSchedule().link_down(5, (0, 1))

    def test_same_step_events_sort_kills_before_revives(self):
        sched = FaultSchedule().revive_module(10, 2).kill_module(10, 2)
        kinds = [e.kind for e in sched.module_events]
        assert kinds == ["kill_module", "revive_module"]
        sched2 = FaultSchedule().link_up(4, (0, 1)).link_down(4, (0, 1))
        assert [e.kind for e in sched2.link_events] == ["link_down", "link_up"]


# ---------------------------------------------------------------------------
# runtime
# ---------------------------------------------------------------------------


class TestFaultState:
    def test_out_of_range_ids_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultState(
                FaultPlan(dead_modules=[8]), num_modules=8, num_processors=8
            )
        with pytest.raises(FaultConfigError):
            FaultState(
                FaultPlan(dead_processors=[9]), num_modules=8, num_processors=8
            )
        with pytest.raises(FaultConfigError):
            FaultState(
                FaultSchedule().kill_module(0, 8),
                num_modules=8,
                num_processors=8,
            )

    def test_all_dead_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultState(
                FaultPlan(dead_modules=range(4)), num_modules=4, num_processors=4
            )
        sched = FaultSchedule()
        for m in range(4):
            sched.kill_module(10 * m, m)
        with pytest.raises(FaultConfigError):
            FaultState(sched, num_modules=4, num_processors=4)

    def test_remap_is_next_live_cyclic(self):
        st = FaultState(
            FaultPlan(dead_modules=[2, 3, 7]), num_modules=8, num_processors=8
        )
        assert st.map_modules(2) == 4
        assert st.map_modules(3) == 4
        assert st.map_modules(7) == 0  # wraps
        assert st.map_modules(5) == 5  # live ids are identity
        got = st.map_modules(np.arange(8)).tolist()
        assert got == [0, 1, 4, 4, 4, 5, 6, 0]

    def test_processor_remap(self):
        st = FaultState(
            FaultPlan(dead_processors=[0, 5]), num_modules=8, num_processors=6
        )
        assert st.map_processors(0) == 1
        assert st.map_processors(5) == 1  # wraps past the dead head
        assert st.map_processors(np.array([0, 3, 5])).tolist() == [1, 3, 1]

    def test_detection_lag_and_acknowledge(self):
        st = FaultState(
            FaultSchedule().kill_module(10, 3).revive_module(30, 3),
            num_modules=8,
            num_processors=8,
        )
        # truth follows the schedule ...
        assert st.dead_modules_at(9) == frozenset()
        assert st.dead_modules_at(10) == {3}
        assert st.dead_modules_at(30) == frozenset()
        # ... but the remap only moves after detection
        assert st.known_dead == frozenset()
        assert st.map_modules(3) == 3
        assert st.undetected_dead(15) == {3}
        assert st.acknowledge(15) == {3}
        assert st.map_modules(3) == 4
        assert st.undetected_dead(15) == frozenset()
        # revive becomes visible via refresh
        assert st.refresh(30) == {3}
        assert st.known_dead == frozenset()
        assert st.map_modules(3) == 3

    def test_static_faults_known_from_step_zero(self):
        st = FaultState(
            FaultPlan(dead_modules=[1]), num_modules=4, num_processors=4
        )
        assert st.known_dead == {1}
        assert st.undetected_dead(0) == frozenset()

    def test_events_between(self):
        sched = (
            FaultSchedule()
            .kill_module(10, 1)
            .link_down(20, (0, 1))
            .revive_module(30, 1)
        )
        st = FaultState(sched, num_modules=4, num_processors=4)
        assert st.events_between(10, 30) == [
            "kill_module(1)@10",
            "link_down((0, 1))@20",
        ]
        assert st.events_between(0, 10) == []


class TestLinkTimeline:
    def test_piecewise_segments(self):
        sched = FaultSchedule().link_down(5, (0, 1)).link_up(12, (0, 1))
        tl = LinkFaultTimeline(sched.link_events)
        assert tl.segment_at(0) == (frozenset(), ())
        assert tl.segment_at(4) == (frozenset(), ())
        assert tl.segment_at(5)[0] == {(0, 1)}
        assert tl.segment_at(11)[0] == {(0, 1)}
        assert tl.segment_at(12) == (frozenset(), ())
        assert tl.segment_at(10**6) == (frozenset(), ())

    def test_same_step_down_then_up_leaves_link_up(self):
        sched = FaultSchedule().link_up(8, (0, 1)).link_down(8, (0, 1))
        tl = LinkFaultTimeline(sched.link_events)
        assert tl.segment_at(8) == (frozenset(), ())

    def test_slow_link_phases_through_view(self):
        sched = FaultSchedule().slow_link(0, (2, 3), period=3).restore_link(
            9, (2, 3)
        )
        tl = LinkFaultTimeline(sched.link_events)
        view = tl.view(lambda spec: (spec,))
        for t in range(9):
            static, extra = view.parts_at(t)
            assert static == frozenset()
            if t % 3 == 0:
                assert extra == ()  # transmit phase
            else:
                assert extra == ((2, 3),)  # blocked phase
        assert tl.view(lambda s: (s,)).parts_at(9) == (frozenset(), ())

    def test_down_overrides_slow(self):
        sched = (
            FaultSchedule()
            .slow_link(0, (2, 3), period=2)
            .link_down(4, (2, 3))
            .link_up(8, (2, 3))
        )
        view = LinkFaultTimeline(sched.link_events).view(lambda s: (s,))
        static, extra = view.parts_at(5)
        assert static == {(2, 3)} and extra == ()
        # after link_up the slowdown persists
        static, extra = view.parts_at(9)
        assert static == frozenset() and extra == ((2, 3),)

    def test_view_static_identity_stable_within_segment(self):
        sched = FaultSchedule().link_down(3, (0, 1))
        view = LinkFaultTimeline(sched.link_events).view(lambda s: (s,))
        a, _ = view.parts_at(5)
        b, _ = view.parts_at(6)
        assert a is b  # engines cache derived masks on identity

    def test_translate_fans_out_engine_keys(self):
        sched = FaultSchedule().link_down(0, (1, 4, 6))
        view = LinkFaultTimeline(sched.link_events).view(
            lambda spec: ((0, spec), (1, spec))
        )
        static, _ = view.parts_at(0)
        assert static == {(0, (1, 4, 6)), (1, (1, 4, 6))}


# ---------------------------------------------------------------------------
# routers: fault differential, fast vs reference
# ---------------------------------------------------------------------------


def _timeline(sched: FaultSchedule) -> LinkFaultTimeline:
    return LinkFaultTimeline(sched.link_events)


class TestRouterFaultDifferential:
    def test_mesh_link_flap_matches(self):
        mesh = Mesh2D.square(4)
        sched = (
            FaultSchedule()
            .link_down(0, (1, 2))
            .link_down(0, (2, 1))
            .link_up(40, (1, 2))
            .link_up(40, (2, 1))
        )
        perm = np.random.default_rng(3).permutation(mesh.num_nodes)

        def run(engine):
            return MeshRouter(
                mesh, seed=11, engine=engine, link_faults=_timeline(sched)
            ).route_permutation(perm)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert fast.fault_stalls > 0  # the flap actually blocked traffic
        assert_router_stats_equal(fast, ref)

    def test_mesh_slow_link_matches(self):
        mesh = Mesh2D.square(4)
        sched = FaultSchedule().slow_link(0, (5, 9), period=3).slow_link(
            0, (9, 5), period=3
        )
        perm = np.random.default_rng(8).permutation(mesh.num_nodes)

        def run(engine):
            return MeshRouter(
                mesh, seed=2, engine=engine, link_faults=_timeline(sched)
            ).route_permutation(perm)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert fast.fault_stalls > 0
        assert_router_stats_equal(fast, ref)

    def test_mesh_fault_base_offsets_the_clock(self):
        """The same run launched after the flap ended sees no faults."""
        mesh = Mesh2D.square(4)
        sched = FaultSchedule().link_down(0, (1, 2)).link_up(40, (1, 2))
        perm = np.random.default_rng(3).permutation(mesh.num_nodes)

        def run(base):
            return MeshRouter(
                mesh,
                seed=11,
                engine="fast",
                link_faults=_timeline(sched),
                fault_base=base,
            ).route_permutation(perm)

        assert run(0).fault_stalls > 0
        assert run(1000).fault_stalls == 0

    @pytest.mark.parametrize("intermediate", ["coin", "node"])
    def test_leveled_link_flap_matches(self, intermediate):
        net = DAryButterflyLeveled(2, 4)
        v = net.out_neighbors(1, 0)[1]
        w = net.out_neighbors(0, 3)[0]
        sched = (
            FaultSchedule()
            .link_down(0, (1, 0, v))
            .link_up(30, (1, 0, v))
            .slow_link(0, (0, 3, w), period=3)
        )
        perm = np.random.default_rng(5).permutation(net.column_size)

        def run(engine):
            return LeveledRouter(
                net,
                intermediate=intermediate,
                seed=7,
                engine=engine,
                link_faults=_timeline(sched),
            ).route_permutation(perm)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert fast.fault_stalls > 0
        assert_router_stats_equal(fast, ref)

    def test_down_link_stalls_without_deadlock_error(self):
        """A permanently down link wedges traffic like a zero-credit
        link: the run times out incomplete — it never raises — and both
        engines agree on the wedged stats."""
        mesh = Mesh2D.square(4)
        sched = FaultSchedule().link_down(0, (1, 2)).link_down(0, (2, 1))
        perm = np.random.default_rng(3).permutation(mesh.num_nodes)

        def run(engine):
            return MeshRouter(
                mesh,
                seed=11,
                engine=engine,
                node_capacity=4,
                flow_control="credit",
                link_faults=_timeline(sched),
            ).route_permutation(perm, max_steps=60)

        fast, ref = run("fast"), run("reference")
        assert not fast.completed
        assert fast.fault_stalls > 0
        assert_router_stats_equal(fast, ref)

    def test_out_of_range_spec_rejected(self):
        mesh = Mesh2D.square(2)
        tl = _timeline(FaultSchedule().link_down(0, (0, 99)))
        router = MeshRouter(mesh, seed=1, engine="reference", link_faults=tl)
        with pytest.raises(ValueError, match="out of range"):
            router.route_permutation([1, 0, 3, 2], max_steps=8)


# ---------------------------------------------------------------------------
# emulators: fault differential, fast vs reference
# ---------------------------------------------------------------------------


def _mesh_emu(engine, *, mode="crcw", faults=None, **kw):
    return MeshEmulator(
        Mesh2D.square(6), 128, mode=mode, seed=21, engine=engine,
        faults=faults, **kw,
    )


class TestEmulatorFaultDifferential:
    @pytest.mark.parametrize("mode", ["erew", "crcw"])
    def test_mesh_static_plan_and_flap_matches(self, mode):
        n = 36
        sched = FaultSchedule(plan=FaultPlan(dead_modules=[3, 17, 30]))
        sched.link_down(0, (1, 2)).link_up(60, (1, 2))
        sched.slow_link(0, (7, 13), period=3)
        steps = [
            permutation_step(n, 128, seed=2),
            permutation_step(n, 128, seed=4, kind="write"),
            permutation_step(n, 128, seed=6),
        ]

        def run(engine):
            em = _mesh_emu(engine, mode=mode, faults=sched)
            costs = [cost_tuple(em.emulate_step(s)) for s in steps]
            mem = [em.memory.read(a) for a in range(128)]
            return costs, mem, em.virtual_clock

        fast, ref = run("fast"), run("reference")
        assert fast == ref
        assert any(c[7] > 0 for c in fast[0])  # some fault stalls charged

    def test_mesh_scheduled_kill_detected_and_matches(self):
        """A mid-run kill is invisible until a request aims at the dead
        module; then the step fail-fasts, acknowledges, rehashes, and
        both engines replay the identical recovery."""
        n = 36
        probe = _mesh_emu("fast")
        victim = int(probe.hash.map(np.array([0]))[0])
        sched = FaultSchedule().kill_module(0, victim)
        steps = [
            permutation_step(n, 128, seed=2),
            permutation_step(n, 128, seed=4, kind="write"),
        ]

        def run(engine):
            em = _mesh_emu(engine, faults=sched)
            costs, failfasts = [], []
            for s in steps:
                c = em.emulate_step(s)
                costs.append(cost_tuple(c))
                failfasts.append(c.run_modes.count("fault-failfast"))
            mem = [em.memory.read(a) for a in range(128)]
            return costs, failfasts, mem, em.faults.known_dead

        fast, ref = run("fast"), run("reference")
        assert fast == ref
        assert sum(fast[1]) >= 1  # some step fail-fast-detected the kill
        assert sum(c[2] for c in fast[0]) >= 1  # and burned a rehash
        assert victim in fast[3]

    def test_mesh_memory_correct_under_dead_modules(self):
        em = _mesh_emu("fast", faults=FaultPlan(dead_modules=[0, 9, 20, 33]))
        em.emulate_step(RequestColumns.of(writes=[(pid, pid, 1000 + pid) for pid in range(36)]))
        em.emulate_step(RequestColumns.of(reads=[(pid, pid) for pid in range(36)]))
        assert [em.memory.read(a) for a in range(36)] == [
            1000 + a for a in range(36)
        ]
        for a in range(128):
            assert em.module_of(a) not in {0, 9, 20, 33}

    def test_mesh_dead_processor_requests_proxied(self):
        em = _mesh_emu("fast", faults=FaultPlan(dead_processors=[3]))
        cost = em.emulate_step(RequestColumns.of(writes=[(3, 5, 77)]))
        assert cost.requests == 1
        assert em.memory.read(5) == 77

    def test_no_faults_is_rng_neutral(self):
        """Passing an empty schedule must not perturb the seeded run."""
        steps = [permutation_step(36, 128, seed=2)]
        a = _mesh_emu("fast")
        b = _mesh_emu("fast", faults=FaultSchedule())
        assert cost_tuple(a.emulate_step(steps[0])) == cost_tuple(
            b.emulate_step(steps[0])
        )

    def test_leveled_static_plan_and_flap_matches(self):
        net = DAryButterflyLeveled(2, 4)
        n = net.column_size
        v = net.out_neighbors(1, 0)[1]
        sched = FaultSchedule(plan=FaultPlan(dead_modules=[5]))
        sched.link_down(0, (1, 0, v)).link_up(40, (1, 0, v))
        steps = [
            permutation_step(n, 64, seed=3),
            permutation_step(n, 64, seed=5, kind="write"),
        ]

        def run(engine):
            em = LeveledEmulator(
                net, 64, mode="crcw", seed=17, engine=engine, faults=sched
            )
            costs = [cost_tuple(em.emulate_step(s)) for s in steps]
            mem = [em.memory.read(a) for a in range(64)]
            return costs, mem, em.virtual_clock

        fast, ref = run("fast"), run("reference")
        assert fast == ref
        assert any(c[7] > 0 for c in fast[0])

    def test_leveled_scheduled_kill_matches(self):
        net = DAryButterflyLeveled(2, 4)
        n = net.column_size
        probe = LeveledEmulator(net, 64, mode="crcw", seed=17, engine="fast")
        victim = int(probe.hash.map(np.array([0]))[0])
        sched = FaultSchedule().kill_module(0, victim).revive_module(10**6, victim)
        steps = [
            permutation_step(n, 64, seed=3),
            permutation_step(n, 64, seed=5, kind="write"),
        ]

        def run(engine):
            em = LeveledEmulator(
                net, 64, mode="crcw", seed=17, engine=engine, faults=sched
            )
            costs = [cost_tuple(em.emulate_step(s)) for s in steps]
            return costs, em.faults.known_dead

        fast, ref = run("fast"), run("reference")
        assert fast == ref
        assert victim in fast[1]

    def test_bad_link_specs_rejected_at_construction(self):
        with pytest.raises(ValueError, match="not a mesh edge"):
            _mesh_emu("fast", faults=FaultSchedule().link_down(0, (0, 35)))
        with pytest.raises(ValueError, match="out of range"):
            _mesh_emu("fast", faults=FaultSchedule().link_down(0, (0, 99)))
        with pytest.raises(ValueError, match="out of range"):
            LeveledEmulator(
                DAryButterflyLeveled(2, 3),
                32,
                seed=1,
                faults=FaultSchedule().link_down(0, (9, 0, 1)),
            )


# ---------------------------------------------------------------------------
# driver hardening (stubbed emulator: exact control over failures)
# ---------------------------------------------------------------------------


class _StubEmulator(Emulator):
    """Scripted emulator: each emulate_step pops the next outcome —
    a StepCost to return or a RehashStormError to raise."""

    def __init__(self, outcomes):
        self._outcomes = list(outcomes)
        self.virtual_clock = 0

    def emulate_step(self, step):
        out = self._outcomes.pop(0) if self._outcomes else StepCost(1, 1)
        if isinstance(out, Exception):
            raise out
        return out


class _StubWorkload:
    """Fixed per-epoch arrival lists (pads with empty epochs)."""

    def __init__(self, epochs, n_procs=4, address_space=64):
        self._epochs = [list(e) for e in epochs]
        self.n_procs = n_procs
        self.address_space = address_space

    def stream(self, epochs):
        out = list(self._epochs[:epochs])
        out += [[] for _ in range(epochs - len(out))]
        return [batch_of(e) for e in out]


def _req(rid, addr, *, pid=0, epoch=0):
    return TrafficRequest(
        rid=rid, pid=pid, addr=addr, kind="write", epoch=epoch, value=rid
    )


class TestDriverHardening:
    def test_param_validation(self):
        emu, wl = _StubEmulator([]), _StubWorkload([])
        with pytest.raises(ValueError):
            OnlineEmulator(emu, wl, request_timeout=0)
        with pytest.raises(ValueError):
            OnlineEmulator(emu, wl, retry_limit=-1)
        with pytest.raises(ValueError):
            OnlineEmulator(emu, wl, backoff=0)
        with pytest.raises(ValueError):
            OnlineEmulator(emu, wl, rehash_storm_cap=0)

    def test_retry_backoff_then_dead_letter(self):
        """Two consecutive storms: first failure re-enqueues with
        backoff, second exhausts retry_limit=1 and dead-letters."""
        storm = lambda: RehashStormError("wedged", stall_steps=2)
        emu = _StubEmulator([storm(), storm(), storm()])
        wl = _StubWorkload([[_req(0, 5), _req(1, 6)]])
        drv = OnlineEmulator(emu, wl, retry_limit=1, backoff=4)
        report = drv.run(6)
        assert report.total_retried == 2  # first failure, both requests
        assert report.total_dead_lettered == 2  # second failure kills them
        assert [att for _r, _s, att in drv.dead_letters] == [1, 1]
        assert report.total_delivered == 0
        assert report.conservation_deficit() == 0
        # failed steps charged their stalls to the clock
        assert report.total_stall_steps >= 4

    def test_backoff_fast_forward_jumps_the_clock(self):
        """With every queued head backing off, the driver jumps to the
        earliest eligibility instead of spinning idle epochs."""
        emu = _StubEmulator(
            [RehashStormError("wedged", stall_steps=0), StepCost(3, 2)]
        )
        wl = _StubWorkload([[_req(0, 5)]])
        drv = OnlineEmulator(emu, wl, retry_limit=3, backoff=4)
        report = drv.run(3)
        e0, e1, e2 = report.epochs
        # epoch 0: the step fails, the retry backs off to not_before=4,
        # and with nothing else admissible the clock fast-forwards there
        assert e0.retried == 1 and e0.admitted == 0
        assert e0.stall_steps == 4 and e0.clock == 4
        # epoch 1: retry admitted and served (cost 5 -> clock 9)
        assert e1.admitted == 1 and e1.clock == 9
        assert e1.sojourns == [9]  # true arrival -> delivery sojourn
        assert e2.admitted == 0 and e2.clock == 9  # idle tail epoch
        assert report.conservation_deficit() == 0

    def test_request_timeout_expires_at_admission(self):
        """Exclusive admission serializes a hot address; requests stuck
        past their deadline expire instead of admitting."""
        emu = _StubEmulator([StepCost(2, 2)] * 4)
        wl = _StubWorkload([[_req(0, 7), _req(1, 7), _req(2, 7)]])
        drv = OnlineEmulator(emu, wl, exclusive=True, request_timeout=3)
        report = drv.run(3)
        assert report.total_delivered == 1  # epoch 0 served one
        # epoch 1: clock=4, both queued heads are 4 > 3 steps old
        assert report.epochs[1].timed_out == 2
        assert report.total_timed_out == 2
        assert report.conservation_deficit() == 0

    def test_rehash_storm_cap_aborts_the_run(self):
        emu = _StubEmulator([StepCost(1, 1, rehashes=5)])
        wl = _StubWorkload([[_req(0, 5)]])
        drv = OnlineEmulator(emu, wl, rehash_storm_cap=4)
        with pytest.raises(RehashStormError, match="cap 4"):
            drv.run(1)

    def test_storm_cap_tolerates_capped_rehashes(self):
        emu = _StubEmulator([StepCost(1, 1, rehashes=4)])
        wl = _StubWorkload([[_req(0, 5)]])
        report = OnlineEmulator(emu, wl, rehash_storm_cap=4).run(1)
        assert report.total_delivered == 1

    def test_admit_matches_skip_scan_reference(self):
        """The sub-queue + heap admission must reproduce the old
        whole-backlog skip-scan order exactly (exclusive mode)."""
        rng = np.random.default_rng(42)
        reqs = [_req(i, int(rng.integers(6))) for i in range(60)]
        drv = OnlineEmulator(
            _StubEmulator([]),
            _StubWorkload([], n_procs=5),
            exclusive=True,
        )
        from collections import deque

        model = deque(reqs)
        enqueue(drv, reqs, 0, 0)

        def model_admit(limit):
            batch, skipped, seen = [], [], set()
            while model and len(batch) < limit:
                r = model.popleft()
                if r.addr in seen:
                    skipped.append(r)
                    continue
                seen.add(r.addr)
                batch.append(r)
            for r in reversed(skipped):
                model.appendleft(r)
            return batch

        while drv.backlog:
            got = drv._admit()[RID].tolist()
            want = [r.rid for r in model_admit(drv.admit_limit)]
            assert got == want
        assert not model

    def test_queue_property_is_fifo_snapshot(self):
        drv = OnlineEmulator(_StubEmulator([]), _StubWorkload([]))
        for i, addr in enumerate([3, 1, 3, 2]):
            enqueue(drv, [_req(i, addr)], stamp=i, not_before=0)
        assert [r.rid for r, _ in queued(drv)] == [0, 1, 2, 3]
        assert [s for _r, s in queued(drv)] == [0, 1, 2, 3]
        assert drv.backlog == 4

    def test_non_exclusive_admission_is_plain_fifo(self):
        drv = OnlineEmulator(
            _StubEmulator([]), _StubWorkload([], n_procs=8), exclusive=False
        )
        reqs = [_req(i, addr) for i, addr in enumerate([5, 5, 5, 2, 5])]
        enqueue(drv, reqs, 0, 0)
        assert drv._admit()[RID].tolist() == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# online integration: faults end to end
# ---------------------------------------------------------------------------


def _kill_schedule():
    sched = FaultSchedule()
    for m in (10, 20, 30, 41):
        sched.kill_module(40, m)
    return sched


def _online_faulty(engine):
    em = MeshEmulator(
        Mesh2D.square(8),
        256,
        mode="crcw",
        seed=5,
        engine=engine,
        faults=_kill_schedule(),
    )
    wl = WorkloadGenerator(
        64,
        arrivals=DeterministicArrivals(48.0),
        keys=UniformKeys(256),
        read_fraction=0.7,
        seed=9,
    )
    return OnlineEmulator(em, wl)


class TestOnlineFaultRuns:
    def test_mid_run_kill_conserves_and_recovers(self):
        """ISSUE acceptance: kill 4 of 64 modules mid-run — finite
        recovery, zero silently-lost requests, annotated telemetry."""
        report = _online_faulty("fast").run(24)
        assert report.conservation_deficit() == 0
        assert report.total_dead_lettered == 0
        assert report.total_delivered > 0
        # the kill epoch is annotated with stable labels
        log = report.fault_event_log
        assert log and all(lbl.endswith("@40") for _e, lbl in log)
        assert any(lbl.startswith("kill_module(10)") for _e, lbl in log)
        # detection showed up as fail-fast + rehash
        assert report.total_rehashes > 0
        assert "fault-failfast" in report.run_mode_counts()
        # recovery is finite
        recs = report.recovery_times()
        assert recs
        for r in recs:
            assert r["recovered_epoch"] is not None
            assert r["recovery_steps"] is not None
        # degraded-mode load accounting: served-module counts align with
        # deliveries, and dead modules vanish from the tail epochs
        counts = report.module_service_counts()
        assert sum(counts.values()) == report.total_delivered
        tail_modules = {m for e in report.epochs[-5:] for m in e.modules}
        assert tail_modules.isdisjoint({10, 20, 30, 41})
        assert report.module_hotness(top=3)[0][1] >= report.module_hotness()[-1][1]

    def test_online_fault_run_engine_independent(self):
        """Same seed + same schedule: fast and reference online runs
        produce identical telemetry (modulo engine-mode labels)."""

        def strip(d):
            d = dict(d)
            d.pop("run_mode_counts")
            d["epochs"] = [
                {k: v for k, v in e.items() if k != "run_modes"}
                for e in d["epochs"]
            ]
            return d

        fast = _online_faulty("fast").run(12)
        ref = _online_faulty("reference").run(12)
        assert strip(fast.to_dict()) == strip(ref.to_dict())

    def test_unreachable_direct_module_dead_letters_exactly(self):
        """Direct placement pins addr 3 to node 3; cutting both wires
        into node 3 makes those requests unroutable — they retry with
        backoff, then dead-letter, and the books still balance."""
        sched = FaultSchedule().link_down(0, (1, 3)).link_down(0, (2, 3))
        em = MeshEmulator(
            Mesh2D.square(2),
            4,
            mode="crcw",
            placement="direct",
            seed=3,
            engine="fast",
            faults=sched,
            max_rehashes=1,
        )
        wl = WorkloadGenerator(
            4,
            arrivals=DeterministicArrivals(4.0),
            keys=UniformKeys(4),
            read_fraction=0.0,
            seed=1,
        )
        drv = OnlineEmulator(em, wl, retry_limit=2, backoff=2)
        report = drv.run(8)
        assert report.conservation_deficit() == 0
        assert report.total_dead_lettered > 0
        assert report.total_retried > 0
        assert report.total_delivered > 0
        assert report.total_stall_steps > 0
        assert len(drv.dead_letters) == report.total_dead_lettered
        for _req_, _stamp, attempts in drv.dead_letters:
            assert attempts == 2  # exhausted exactly retry_limit


# ---------------------------------------------------------------------------
# determinism pins for the REPRO003 lint fixes (tools/lint)
# ---------------------------------------------------------------------------


class TestUnorderedIterFixPins:
    """The lint (REPRO003) surfaced set-iteration sites in the fault and
    routing hot paths; these tests pin the *behavior* of the fixed code
    so reverting sorted(...) back to raw set order cannot slip through
    even if the lint itself were relaxed."""

    def test_remap_array_matches_bruteforce(self):
        """_remap_array iterates the dead set in sorted order; each dead
        id must land on its next live id independent of set hash order."""
        from repro.faults.runtime import _remap_array

        n = 33
        dead = frozenset({1, 2, 3, 7, 16, 31, 32})
        remap = _remap_array(n, dead, "module")
        live = sorted(set(range(n)) - dead)
        for m in range(n):
            if m in dead:
                expect = next((x for x in live if x > m), live[0])
            else:
                expect = m
            assert remap[m] == expect, m

    def test_remap_rebuild_is_repeatable(self):
        """Detection order must not change the remap: acknowledging the
        same fault set yields the identical array across fresh states."""
        sched = (
            FaultSchedule()
            .kill_module(5, 6)
            .kill_module(5, 1)
            .kill_module(5, 14)
        )
        snaps = []
        for _ in range(3):
            st = FaultState(sched, num_modules=16, num_processors=16)
            st.acknowledge(5)
            snaps.append(st.map_modules(np.arange(16)).tolist())
        assert snaps[0] == snaps[1] == snaps[2]

    def test_mesh_many_down_links_matches(self):
        """Several simultaneous down links: the engines translate the
        fault segment's key set (a frozenset) in sorted order, so the
        differential contract must hold with a multi-element set."""
        mesh = Mesh2D.square(4)
        sched = FaultSchedule()
        for u, w in [(1, 2), (2, 1), (5, 6), (6, 5), (9, 13), (13, 9)]:
            sched.link_down(0, (u, w)).link_up(60, (u, w))
        perm = np.random.default_rng(21).permutation(mesh.num_nodes)

        def run(engine):
            return MeshRouter(
                mesh, seed=4, engine=engine, link_faults=_timeline(sched)
            ).route_permutation(perm)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert fast.fault_stalls > 0
        assert_router_stats_equal(fast, ref)

    def test_mesh_credit_flow_with_down_links_matches(self):
        """Credit flow control plus link faults drives the fast engine's
        used-wire bookkeeping (a set, iterated sorted) alongside the
        fault mask; fast and reference must still agree bit for bit."""
        mesh = Mesh2D.square(4)
        sched = (
            FaultSchedule()
            .link_down(0, (1, 2))
            .link_down(0, (2, 1))
            .link_up(50, (1, 2))
            .link_up(50, (2, 1))
        )
        perm = np.random.default_rng(12).permutation(mesh.num_nodes)

        def run(engine):
            return MeshRouter(
                mesh,
                seed=9,
                engine=engine,
                node_capacity=4,
                flow_control="credit",
                link_faults=_timeline(sched),
            ).route_permutation(perm)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert fast.fault_stalls > 0
        assert_router_stats_equal(fast, ref)
