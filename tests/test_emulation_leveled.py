"""Tests for PRAM emulation on leveled networks (Theorems 2.5-2.6)."""

import pytest

from repro.emulation import LeveledEmulator, MeshEmulator
from repro.faults import FaultSchedule
from repro.obs import Observer
from repro.routing import DeadlockError
from repro.pram import (
    MemoryTrace,
    Read,
    RequestColumns,
    Write,
    WritePolicy,
    permutation_step,
    random_trace,
    run_program,
)
from repro.topology import (
    DAryButterflyLeveled,
    Mesh2D,
    ShuffleLeveled,
    StarLogicalLeveled,
)


def _net():
    return DAryButterflyLeveled(3, 3)  # 27 processors/modules


class TestLeveledEmulatorBasics:
    def test_single_read_roundtrip(self):
        emu = LeveledEmulator(_net(), address_space=100, seed=1)
        emu.memory.write(42, "payload")
        step = RequestColumns.of(reads=[(0, 42)])
        cost = emu.emulate_step(step)
        assert cost.total_steps > 0
        assert cost.request_steps >= 2 * 3  # at least one full traversal

    def test_write_then_read(self):
        emu = LeveledEmulator(_net(), address_space=50, seed=2)
        emu.emulate_step(RequestColumns.of(writes=[(3, 7, "hello")]))
        assert emu.memory.read(7) == "hello"
        cost = emu.emulate_step(RequestColumns.of(reads=[(5, 7)]))
        assert cost.reply_steps > 0

    def test_write_only_step_has_no_reply_phase(self):
        emu = LeveledEmulator(_net(), address_space=50, seed=3)
        cost = emu.emulate_step(RequestColumns.of(writes=[(0, 1, 9)]))
        assert cost.reply_steps == 0

    def test_permutation_step_full_machine(self):
        net = _net()
        emu = LeveledEmulator(net, address_space=256, seed=4)
        step = permutation_step(net.column_size, 256, seed=5)
        cost = emu.emulate_step(step)
        assert cost.requests == net.column_size
        # Theorem 2.5/2.6 shape: time a small multiple of the diameter.
        assert cost.total_steps <= 10 * emu.scale

    def test_reads_see_pre_step_memory(self):
        emu = LeveledEmulator(_net(), address_space=10, seed=6)
        emu.memory.write(0, "old")
        step = RequestColumns.of(
            reads=[(1, 0)], writes=[(2, 0, "new")]
        )
        emu.emulate_step(step)
        assert emu.memory.read(0) == "new"
        # the read reply carried "old": validated internally by count; check
        # semantics via a second read
        emu2 = LeveledEmulator(_net(), address_space=10, seed=6)
        emu2.memory.write(0, "old")
        # identical step; values map in emulate_step read pre-state
        # (behavioral check: no exception and memory updated)
        emu2.emulate_step(step)
        assert emu2.memory.read(0) == "new"

    def test_erew_mode_rejects_concurrent(self):
        emu = LeveledEmulator(_net(), address_space=64, mode="erew", seed=7)
        step = RequestColumns.of(reads=[(0, 5), (1, 5)])
        with pytest.raises(ValueError):
            emu.emulate_step(step)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            LeveledEmulator(_net(), 10, mode="qrqw")

    def test_processor_bound_checked(self):
        emu = LeveledEmulator(_net(), address_space=64, seed=8)
        step = RequestColumns.of(reads=[(999, 5)])
        with pytest.raises(ValueError):
            emu.emulate_step(step)


class TestCombining:
    def test_hotspot_concurrent_reads_combine(self):
        net = _net()
        emu = LeveledEmulator(net, address_space=128, mode="crcw", seed=9)
        emu.memory.write(17, "hot")
        step = RequestColumns.of(reads=[(pid, 17) for pid in range(net.column_size)])
        cost = emu.emulate_step(step)
        assert cost.combines > 0
        # all 27 readers answered (validated internally), in Õ(diameter)
        assert cost.total_steps <= 12 * emu.scale

    def test_hotspot_not_slower_than_linear(self):
        # Without combining, N concurrent reads of one cell would need
        # Ω(N) steps at the module's link; combining keeps it near the
        # diameter (the whole point of Theorem 2.6).
        net = DAryButterflyLeveled(2, 5)  # 32 processors
        emu = LeveledEmulator(net, address_space=64, mode="crcw", seed=10)
        step = RequestColumns.of(reads=[(pid, 3) for pid in range(32)])
        cost = emu.emulate_step(step)
        assert cost.total_steps < 32  # far below the N lower bound sans combining

    def test_concurrent_writes_resolved_by_policy(self):
        net = _net()
        emu = LeveledEmulator(
            net, address_space=64, mode="crcw",
            write_policy=WritePolicy.COMBINE, combine_op="sum", seed=11,
        )
        step = RequestColumns.of(writes=[(pid, 9, 1) for pid in range(10)])
        emu.emulate_step(step)
        assert emu.memory.read(9) == 10

    def test_priority_write_policy(self):
        net = _net()
        emu = LeveledEmulator(
            net, address_space=64, mode="crcw",
            write_policy=WritePolicy.PRIORITY, seed=12,
        )
        step = RequestColumns.of(
            writes=[(5, 9, "five"), (2, 9, "two")]
        )
        emu.emulate_step(step)
        assert emu.memory.read(9) == "two"


class TestTraceEmulation:
    def test_random_trace_on_butterfly(self):
        net = _net()
        emu = LeveledEmulator(net, address_space=512, seed=13)
        trace = random_trace(net.column_size, 512, 4, seed=14)
        report = emu.emulate_trace(trace)
        assert report.pram_steps == 4
        assert report.total_network_steps > 0
        assert max(c.total_steps for c in report.costs) <= 12 * report.scale

    def test_star_logical_emulation(self):
        net = StarLogicalLeveled(4)  # 24 processors
        emu = LeveledEmulator(net, address_space=128, intermediate="node", seed=15)
        step = permutation_step(net.column_size, 128, seed=16)
        cost = emu.emulate_step(step)
        assert cost.total_steps <= 12 * emu.scale

    def test_shuffle_emulation(self):
        net = ShuffleLeveled(3, 3)
        emu = LeveledEmulator(net, address_space=128, seed=17)
        step = permutation_step(net.column_size, 128, seed=18)
        cost = emu.emulate_step(step)
        assert cost.total_steps <= 12 * emu.scale

    def test_empty_step_costs_nothing(self):
        emu = LeveledEmulator(_net(), address_space=16, seed=19)
        report = emu.emulate_trace(MemoryTrace(steps=[RequestColumns.of()]))
        assert report.total_network_steps == 0

    def test_report_aggregates(self):
        net = _net()
        emu = LeveledEmulator(net, address_space=256, seed=20)
        trace = random_trace(net.column_size, 256, 3, seed=21)
        report = emu.emulate_trace(trace)
        assert report.mean_step_time > 0
        assert max(c.total_steps for c in report.costs) >= report.mean_step_time


class TestRehashing:
    def test_forced_rehash_recovers(self):
        # An absurdly tight allotment forces rehashes; the emulator must
        # still terminate (via the generous fallback) and count them.
        net = _net()
        emu = LeveledEmulator(
            net, address_space=128, rehash_factor=0.1, max_rehashes=2, seed=22
        )
        step = permutation_step(net.column_size, 128, seed=23)
        cost = emu.emulate_step(step)
        assert cost.rehashes == 2
        assert emu.rehash_count == 2

    def test_trace_report_totals_the_rehashes(self):
        emu = LeveledEmulator(
            _net(), address_space=128, rehash_factor=0.1, max_rehashes=2, seed=22
        )
        trace = random_trace(27, 128, 2, seed=23)
        report = emu.emulate_trace(trace)
        assert [c.rehashes for c in report.costs] == [2, 2]
        assert report.total_rehashes == emu.rehash_count == 4

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("network", ["leveled", "mesh"])
    def test_exhausted_loop_draws_max_rehashes(self, network, engine):
        # Every bounded attempt fails and the last resort completes: one
        # rehash *between* consecutive attempts is max_rehashes draws —
        # none after the last bounded attempt (the mesh used to draw one
        # more).  The mesh allotment never drops below rows + cols + 4,
        # so its attempts are failed by cutting node 5 off until t=150.
        obs = Observer(metrics=False, profiling=False)
        kw = dict(
            rehash_factor=0.1, max_rehashes=2, seed=22, engine=engine, observer=obs
        )
        if network == "leveled":
            emu = LeveledEmulator(_net(), 128, **kw)
        else:
            sched = FaultSchedule()
            for u in (1, 4, 6, 9):
                sched.link_down(0, (u, 5)).link_up(150, (u, 5))
            emu = MeshEmulator(Mesh2D.square(4), 128, faults=sched, **kw)
        cost = emu.emulate_step(permutation_step(16, 128, seed=23))
        assert len(cost.run_modes) >= emu.max_rehashes + 2  # loop exhausted
        assert cost.rehashes == emu.rehash_count == emu.max_rehashes
        # and the storm reads the same on either network's timeline
        spans = obs.tracer.to_chrome_trace()["traceEvents"]
        assert sum(e["name"] == "rehash" for e in spans) == emu.max_rehashes
        last = [e["args"] for e in spans if e["name"] == "route_attempt"][-1]
        assert last["last_resort"] and last["attempt"] == emu.max_rehashes + 1

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("network", ["leveled", "mesh"])
    def test_a_wedged_request_run_is_rehashed_and_retried(self, network, engine):
        # The first request run stops after WEDGE steps and raises
        # DeadlockError, as a wedged credit run does: the attempt counts
        # as failed, one rehash follows, and the retry completes the step.
        WEDGE = 2
        if network == "leveled":
            emu = LeveledEmulator(_net(), 64, seed=31, engine=engine)
        else:
            emu = MeshEmulator(Mesh2D.square(4), 64, seed=31, engine=engine)
        make_router, wedged = emu._make_router, []

        def wedge_once(fault_base=0):
            router = make_router(fault_base)
            if not wedged:
                route = router.route

                def wedged_route(sources, modules, *, max_steps, combine_keys):
                    stats = route(sources, modules, max_steps=WEDGE, combine_keys=combine_keys)
                    wedged.append(stats)
                    raise DeadlockError(stats, "wedged on purpose")

                router.route = wedged_route
            return router

        emu._make_router = wedge_once
        n = 16

        def program(pid, nprocs):
            mine = yield Read(pid)
            yield Write((pid * 5) % n + n, mine + pid)

        init = {a: 10 * a for a in range(n)}
        for addr, value in init.items():
            emu.memory.write(addr, value)
        pram = run_program(program, n, 2 * n, init=init)
        costs = [emu.emulate_step(step) for step in pram.trace]
        assert len(wedged) == 1 and not wedged[0].completed
        assert wedged[0].steps == WEDGE
        first = costs[0]
        assert first.deadlock_retries == 1
        assert first.stall_steps == WEDGE
        assert first.rehashes == emu.rehash_count == 1
        assert len(first.run_modes) == 3  # the wedged attempt, the retry, the replies
        assert [c.deadlock_retries for c in costs[1:]] == [0]
        assert emu.memory.snapshot(0, 2 * n) == pram.memory.snapshot(0, 2 * n)

    def test_normal_runs_do_not_rehash(self):
        net = _net()
        emu = LeveledEmulator(net, address_space=128, seed=24)
        step = permutation_step(net.column_size, 128, seed=25)
        cost = emu.emulate_step(step)
        assert cost.rehashes == 0

    def test_rehash_changes_function(self):
        emu = LeveledEmulator(_net(), address_space=128, seed=26)
        before = list(emu.hash.coeffs)
        emu.rehash()
        assert emu.hash.coeffs != before
        assert emu.rehash_count == 1
