"""The PRAM machine (§1): N processors + shared memory, synchronous steps.

Processor programs are Python generators.  Each ``yield`` issues at most
one shared-memory request — exactly the PRAM's "one access per
instruction" — and local computation between yields is free, matching the
model's unit-time instruction that bundles a local operation with a memory
access:

    def program(pid: int, nprocs: int):
        value = yield Read(addr)          # one PRAM step
        yield Write(addr2, value + 1)     # another step
        yield None                        # compute-only step
        return                            # halt

Within one step every read sees the memory state *before* the step and
writes are applied at the end (the standard CRCW read-then-write cycle).
The machine enforces the declared :class:`AccessMode` and resolves CRCW
write conflicts via :class:`WritePolicy`; every step is recorded into a
:class:`MemoryTrace` for the network emulators to replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Mapping

from repro.pram.memory import SharedMemory
from repro.pram.trace import MemoryTrace, RequestColumns
from repro.pram.variants import (
    AccessMode,
    ConcurrentAccessError,
    WritePolicy,
    resolve_writes,
)


@dataclass(frozen=True)
class Read:
    """Yielded by a program: read shared cell *addr*; the yield evaluates
    to the cell's value."""

    addr: int


@dataclass(frozen=True)
class Write:
    """Yielded by a program: write *value* to shared cell *addr*."""

    addr: int
    value: object


ProgramFactory = Callable[[int, int], Generator]


class PRAMStepLimitError(RuntimeError):
    """:meth:`PRAM.run` reached *max_steps* with processors still live:
    a program that does not halt, or a budget below its running time.
    Terminal; carries the budget and how many processors were live."""

    def __init__(self, max_steps: int, live_processors: int) -> None:
        super().__init__(
            f"PRAM exceeded {max_steps} steps with {live_processors} "
            "processors live"
        )
        self.max_steps = max_steps
        self.live_processors = live_processors


class PRAM:
    """An N-processor PRAM over an M-cell shared memory."""

    def __init__(
        self,
        n_procs: int,
        memory_size: int,
        *,
        mode: AccessMode = AccessMode.EREW,
        write_policy: WritePolicy = WritePolicy.COMMON,
        combine_op: str = "sum",
        init: Mapping[int, object] | None = None,
        record_trace: bool = True,
        enforce_mode: bool = True,
        observer=None,
    ) -> None:
        if n_procs < 1:
            raise ValueError("need at least one processor")
        self.n_procs = n_procs
        #: optional repro.obs observer: feeds the flight recorder per
        #: step and rides its tail on RaceError diagnostics
        self.observer = observer
        self.mode = mode
        self.write_policy = write_policy
        self.combine_op = combine_op
        self.memory = SharedMemory(memory_size, init)
        self.record_trace = record_trace
        #: with enforce_mode=False the machine never raises on access-mode
        #: violations (COMMON divergence resolves lowest-pid) — the
        #: permissive setting the race-analysis pre-run uses so a broken
        #: program still yields a full trace to report on
        self.enforce_mode = enforce_mode
        self.trace = MemoryTrace(num_processors=n_procs, address_space=memory_size)
        self._procs: list[Generator | None] = [None] * n_procs
        self._pending: list[object] = [None] * n_procs
        #: processors in ``_procs`` not yet halted: ``load`` sets it and
        #: each generator that finishes takes one off
        self._live = 0
        self.steps_executed = 0
        #: populated by ``run(check_races=...)``: every conflict the
        #: sanitizer saw (not just violations), and the minimal variant
        self.race_reports: list | None = None
        self.inferred_mode: AccessMode | None = None

    # ------------------------------------------------------------------
    def load(self, program: ProgramFactory) -> None:
        """Instantiate *program(pid, n_procs)* on every processor."""
        self._procs = [program(pid, self.n_procs) for pid in range(self.n_procs)]
        self._pending = [None] * self.n_procs
        self._live = self.n_procs
        # Prime the generators to their first yield.
        for pid, gen in enumerate(self._procs):
            try:
                self._pending[pid] = ("request", gen.send(None))
            except StopIteration:
                self._halt(pid)

    def _halt(self, pid: int) -> None:
        """Processor *pid*'s program returned."""
        self._procs[pid] = None
        self._pending[pid] = None
        self._live -= 1

    @property
    def live_processors(self) -> int:
        """Processors whose program has not returned (counted, not
        recounted: ``load`` sets the count and each halt decrements it)."""
        return self._live

    # ------------------------------------------------------------------
    def step(self) -> RequestColumns | None:
        """Execute one synchronous PRAM step and return its requests
        (reads, then writes, each in pid order); None when all procs
        halted."""
        if self.live_processors == 0:
            return None

        # 1. collect this step's requests (already primed in _pending)
        reads: list[tuple[int, int]] = []
        writes: list[tuple[int, int, object]] = []
        for pid, slot in enumerate(self._pending):
            if slot is None:
                continue
            _tag, req = slot
            if req is None:
                continue  # compute-only step
            if isinstance(req, Read):
                reads.append((pid, req.addr))
            elif isinstance(req, Write):
                writes.append((pid, req.addr, req.value))
            else:
                raise TypeError(
                    f"processor {pid} yielded {req!r}; expected Read/Write/None"
                )

        if self.enforce_mode:
            self._validate(reads, writes)

        # 2. reads see pre-step memory
        read_results = {pid: self.memory.read(addr) for pid, addr in reads}

        # 3. writes applied at end of step, conflicts resolved per policy
        by_addr: dict[int, list[tuple[int, object]]] = {}
        for pid, addr, value in writes:
            by_addr.setdefault(addr, []).append((pid, value))
        for addr, writers in by_addr.items():
            value = resolve_writes(
                sorted(writers),
                self.write_policy,
                self.combine_op,
                strict=self.enforce_mode,
            )
            self.memory.write(addr, value)

        step = RequestColumns.of(reads, writes)
        if self.record_trace:
            self.trace.steps.append(step)
        self.steps_executed += 1
        obs = self.observer
        if obs is not None and obs.recorder is not None:
            obs.record(
                "pram_step",
                virtual_clock=self.steps_executed - 1,
                reads=len(reads),
                writes=len(writes),
                live=self.live_processors,
            )

        # 4. resume every live processor with its result, collect next req
        for pid, gen in enumerate(self._procs):
            if gen is None:
                continue
            try:
                nxt = gen.send(read_results.get(pid))
                self._pending[pid] = ("request", nxt)
            except StopIteration:
                self._halt(pid)

        return step

    def run(
        self,
        *,
        max_steps: int = 100_000,
        check_races: bool | AccessMode | None = None,
    ) -> MemoryTrace:
        """Step until every processor halts (or raise
        :class:`PRAMStepLimitError` past *max_steps*).

        ``check_races`` turns on the conflict sanitizer
        (:class:`repro.analysis.races.ConflictChecker`, fed step by step
        so it works even with ``record_trace=False``):

        * ``True`` — verify the execution against this machine's own
          declared mode/policy and raise
          :class:`~repro.analysis.races.RaceError` (with the structured
          reports attached) on any violation.  Mostly useful with
          ``enforce_mode=False``, where the machine itself stays silent.
        * an :class:`AccessMode` — portability check: verify against
          *that* mode instead (e.g. run on CRCW, ask "is this program
          EREW-clean?").

        Either way ``self.race_reports`` / ``self.inferred_mode`` are
        populated with everything the sanitizer saw.
        """
        checker = None
        reports: list = []
        if check_races:
            from repro.analysis.races import ConflictChecker

            checker = ConflictChecker()
        while self.live_processors > 0:
            if self.steps_executed >= max_steps:
                raise PRAMStepLimitError(max_steps, self.live_processors)
            step = self.step()
            if checker is not None and step is not None:
                reports.extend(checker.check_step(self.steps_executed - 1, step))
        if checker is not None:
            from repro.analysis.races import RaceError, find_violations, infer_mode

            self.race_reports = reports
            self.inferred_mode = infer_mode(reports)
            target = check_races if isinstance(check_races, AccessMode) else self.mode
            violations = find_violations(reports, target, self.write_policy)
            if violations:
                err = RaceError(
                    f"{len(violations)} access-mode violation(s) under "
                    f"{target.name}; first: {violations[0].describe()}",
                    violations,
                )
                if self.observer is not None:
                    err.flight_tail = self.observer.flight_tail()
                raise err
        return self.trace

    # ------------------------------------------------------------------
    def _validate(
        self, reads: list[tuple[int, int]], writes: list[tuple[int, int, object]]
    ) -> None:
        if self.mode is AccessMode.CRCW:
            return
        write_addrs: dict[int, int] = {}
        for _pid, addr, _value in writes:
            write_addrs[addr] = write_addrs.get(addr, 0) + 1
        read_addrs: dict[int, int] = {}
        for _pid, addr in reads:
            read_addrs[addr] = read_addrs.get(addr, 0) + 1

        for addr, cnt in write_addrs.items():
            if cnt > 1:
                raise ConcurrentAccessError(
                    f"{self.mode.name}: {cnt} concurrent writes to address {addr}"
                )
            if addr in read_addrs:
                raise ConcurrentAccessError(
                    f"{self.mode.name}: simultaneous read and write of address {addr}"
                )
        if self.mode is AccessMode.EREW:
            for addr, cnt in read_addrs.items():
                if cnt > 1:
                    raise ConcurrentAccessError(
                        f"EREW: {cnt} concurrent reads of address {addr}"
                    )


def run_program(
    program: ProgramFactory,
    n_procs: int,
    memory_size: int,
    *,
    mode: AccessMode = AccessMode.EREW,
    write_policy: WritePolicy = WritePolicy.COMMON,
    combine_op: str = "sum",
    init: Mapping[int, object] | None = None,
    max_steps: int = 100_000,
    enforce_mode: bool = True,
    check_races: bool | AccessMode | None = None,
) -> PRAM:
    """Convenience: build a PRAM, load *program*, run to completion."""
    pram = PRAM(
        n_procs,
        memory_size,
        mode=mode,
        write_policy=write_policy,
        combine_op=combine_op,
        init=init,
        enforce_mode=enforce_mode,
    )
    pram.load(program)
    pram.run(max_steps=max_steps, check_races=check_races)
    return pram
