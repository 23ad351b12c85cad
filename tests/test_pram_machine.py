"""Tests for the PRAM machine: semantics, modes, write policies, traces."""

import pytest

from repro.pram import (
    PRAM,
    AccessMode,
    ConcurrentAccessError,
    Read,
    SharedMemory,
    Write,
    WritePolicy,
    resolve_writes,
    run_program,
)


class TestSharedMemory:
    def test_default_zero(self):
        m = SharedMemory(10)
        assert m.read(5) == 0

    def test_write_read(self):
        m = SharedMemory(10)
        m.write(3, "x")
        assert m.read(3) == "x"

    def test_bounds(self):
        m = SharedMemory(4)
        with pytest.raises(IndexError):
            m.read(4)
        with pytest.raises(IndexError):
            m.write(-1, 0)

    def test_init_from_mapping(self):
        m = SharedMemory(5, init={4: "end"})
        assert m.read(4) == "end"

    def test_snapshot_extent(self):
        m = SharedMemory(100)
        m.write(7, 1)
        assert len(m.snapshot()) == 8

    def test_size_validation(self):
        with pytest.raises(ValueError):
            SharedMemory(0)


class TestResolveWrites:
    def test_single_writer(self):
        assert resolve_writes([(3, "v")], WritePolicy.COMMON) == "v"

    def test_common_agreement(self):
        assert resolve_writes([(0, 7), (1, 7)], WritePolicy.COMMON) == 7

    def test_common_conflict_raises(self):
        with pytest.raises(ConcurrentAccessError):
            resolve_writes([(0, 7), (1, 8)], WritePolicy.COMMON)

    def test_priority_lowest_pid(self):
        assert resolve_writes([(2, "b"), (0, "a")], WritePolicy.PRIORITY) == "a"

    def test_arbitrary_is_deterministic(self):
        assert resolve_writes([(5, "x"), (1, "y")], WritePolicy.ARBITRARY) == "y"

    def test_combine_ops(self):
        writers = [(0, 2), (1, 3), (2, 4)]
        assert resolve_writes(writers, WritePolicy.COMBINE, "sum") == 9
        assert resolve_writes(writers, WritePolicy.COMBINE, "min") == 2
        assert resolve_writes(writers, WritePolicy.COMBINE, "max") == 4

    def test_combine_or_and(self):
        assert resolve_writes([(0, 0), (1, 1)], WritePolicy.COMBINE, "or") == 1
        assert resolve_writes([(0, 1), (1, 0)], WritePolicy.COMBINE, "and") == 0

    def test_combine_bad_op(self):
        with pytest.raises(ValueError):
            resolve_writes([(0, 1), (1, 2)], WritePolicy.COMBINE, "xor")

    def test_empty_writers(self):
        with pytest.raises(ValueError):
            resolve_writes([], WritePolicy.COMMON)


class TestMachineBasics:
    def test_simple_read_write(self):
        def program(pid, n):
            v = yield Read(pid)
            yield Write(pid + n, v * 2)

        pram = run_program(program, 4, 8, init={0: 1, 1: 2, 2: 3, 3: 4})
        assert pram.memory.snapshot(4, 8) == [2, 4, 6, 8]
        assert pram.steps_executed == 2

    def test_compute_only_steps(self):
        def program(pid, n):
            yield None
            yield Write(pid, pid)

        pram = run_program(program, 3, 3)
        assert pram.memory.snapshot(0, 3) == [0, 1, 2]

    def test_reads_see_pre_step_memory(self):
        # Swap via simultaneous read: both read old values, then write.
        def program(pid, n):
            other = yield Read(1 - pid)
            yield Write(pid, other)

        pram = run_program(program, 2, 2, init={0: 10, 1: 20})
        assert pram.memory.snapshot(0, 2) == [20, 10]

    def test_processors_may_halt_early(self):
        def program(pid, n):
            yield Write(pid, 1)
            if pid == 0:
                yield Write(n, 99)

        pram = run_program(program, 3, 4)
        assert pram.memory.read(3) == 99
        assert pram.steps_executed == 2

    def test_live_processors_count_after_load_steps_and_halt(self):
        """The count ``load`` sets and each halt decrements equals a
        recount of the processors still running, at every point."""

        def program(pid, n):
            for _ in range(pid):  # processor p halts after p steps
                yield Write(pid, pid)

        pram = PRAM(4, 4)
        assert pram.live_processors == 0  # nothing loaded
        pram.load(program)
        seen = [pram.live_processors]  # processor 0 halts while priming
        while pram.step() is not None:
            seen.append(pram.live_processors)
        assert seen == [3, 2, 1, 0]
        assert pram.live_processors == sum(g is not None for g in pram._procs) == 0
        pram.load(program)  # a reload counts afresh
        assert pram.live_processors == 3

    def test_max_steps_guard(self):
        def forever(pid, n):
            while True:
                yield None

        pram = PRAM(1, 1)
        pram.load(forever)
        with pytest.raises(RuntimeError):
            pram.run(max_steps=10)

    def test_bad_yield_type(self):
        def program(pid, n):
            yield "not a request"

        pram = PRAM(1, 1)
        pram.load(program)
        with pytest.raises(TypeError):
            pram.step()

    def test_needs_processor(self):
        with pytest.raises(ValueError):
            PRAM(0, 1)

    def test_step_after_halt_returns_none(self):
        def program(pid, n):
            yield None

        pram = PRAM(1, 1)
        pram.load(program)
        pram.run()
        assert pram.step() is None


class TestModeEnforcement:
    def test_erew_rejects_concurrent_reads(self):
        def program(pid, n):
            yield Read(0)

        pram = PRAM(2, 1, mode=AccessMode.EREW)
        pram.load(program)
        with pytest.raises(ConcurrentAccessError):
            pram.step()

    def test_crew_allows_concurrent_reads(self):
        def program(pid, n):
            v = yield Read(0)
            yield Write(1 + pid, v)

        pram = run_program(program, 2, 3, mode=AccessMode.CREW, init={0: 7})
        assert pram.memory.snapshot(1, 3) == [7, 7]

    def test_crew_rejects_concurrent_writes(self):
        def program(pid, n):
            yield Write(0, pid)

        pram = PRAM(2, 1, mode=AccessMode.CREW)
        pram.load(program)
        with pytest.raises(ConcurrentAccessError):
            pram.step()

    def test_exclusive_modes_reject_read_write_same_cell(self):
        def program(pid, n):
            if pid == 0:
                yield Read(0)
            else:
                yield Write(0, 1)

        for mode in (AccessMode.EREW, AccessMode.CREW):
            pram = PRAM(2, 1, mode=mode)
            pram.load(program)
            with pytest.raises(ConcurrentAccessError):
                pram.step()

    def test_crcw_allows_everything(self):
        def program(pid, n):
            v = yield Read(0)
            yield Write(0, v + 1)

        pram = run_program(
            program, 4, 1, mode=AccessMode.CRCW, write_policy=WritePolicy.COMMON
        )
        # all read 0, all write 1 (common) -> fine
        assert pram.memory.read(0) == 1

    def test_crcw_combine_sums_writers(self):
        def program(pid, n):
            yield Write(0, 1)

        pram = run_program(
            program,
            5,
            1,
            mode=AccessMode.CRCW,
            write_policy=WritePolicy.COMBINE,
            combine_op="sum",
        )
        assert pram.memory.read(0) == 5

    def test_crcw_priority(self):
        def program(pid, n):
            yield Write(0, f"proc{pid}")

        pram = run_program(
            program, 4, 1, mode=AccessMode.CRCW, write_policy=WritePolicy.PRIORITY
        )
        assert pram.memory.read(0) == "proc0"


class TestTraceRecording:
    def test_trace_captures_requests(self):
        def program(pid, n):
            v = yield Read(pid)
            yield Write(n + pid, v)

        pram = run_program(program, 3, 6, init={0: 1, 1: 2, 2: 3})
        assert len(pram.trace) == 2
        step0, step1 = pram.trace.steps
        assert step0.is_read.tolist() == [True] * 3
        assert step1.is_read.tolist() == [False] * 3
        assert sum(s.num_requests for s in pram.trace.steps) == 6

    def test_a_step_is_its_reads_then_its_writes_each_in_pid_order(self):
        def program(pid, n):
            if pid % 2:
                yield Read(pid)
            else:
                yield Write(pid, (pid, "pair"))  # a tuple value stays one object

        pram = PRAM(6, 6)
        pram.load(program)
        step = pram.step()
        assert step is pram.trace.steps[0]
        assert step.pids.tolist() == [1, 3, 5, 0, 2, 4]
        assert step.addrs.tolist() == [1, 3, 5, 0, 2, 4]
        assert step.is_read.tolist() == [True] * 3 + [False] * 3
        assert step.values.tolist() == [None] * 3 + [(0, "pair"), (2, "pair"), (4, "pair")]

    def test_trace_step_properties(self):
        def program(pid, n):
            yield Read(0)

        pram = PRAM(3, 1, mode=AccessMode.CRCW)
        pram.load(program)
        step = pram.step()
        assert step.max_concurrency() == 3
        assert not step.is_erew()

    def test_trace_disabled(self):
        def program(pid, n):
            yield Write(pid, 1)

        pram = PRAM(2, 2, record_trace=False)
        pram.load(program)
        pram.run()
        assert len(pram.trace) == 0
