"""Replay real PRAM programs on network emulators, end to end.

This is the full pipeline the paper promises: write a PRAM algorithm once,
run it on the abstract machine, and execute the *same* computation on a
physical network at Õ(diameter) cost per step — with bit-identical memory
results.  ``replay_program`` runs a :class:`ProgramSpec` natively to get
the reference trace and final memory, replays the trace on the chosen
emulator (seeded identically for memory semantics), and checks the two
executions agree on every cell either of them wrote (memories are
sparse: a cell neither side touched reads 0 on both).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.emulation.base import EmulationReport, Emulator
from repro.obs import NULL_OBSERVER
from repro.pram.machine import PRAM
from repro.pram.programs import ProgramSpec
from repro.pram.variants import AccessMode


@dataclass
class ReplayResult:
    """Outcome of an emulated program execution."""

    report: EmulationReport
    pram: PRAM
    memory_matches: bool
    cells_checked: int

    @property
    def slowdown(self) -> float:
        """Mean network steps per PRAM step (the emulation cost)."""
        return self.report.mean_step_time


def configure_emulator_for(spec: ProgramSpec, emulator: Emulator) -> None:
    """Align the emulator's write semantics and memory with the program.

    Works on a :class:`~repro.sharding.ShardedEmulator` too: it fans
    the write semantics out to its shards, and init values route
    through the sharded memory facade to their owning shards.
    """
    emulator.write_policy = spec.write_policy
    emulator.combine_op = spec.combine_op
    if spec.mode is not AccessMode.EREW and emulator.mode == "erew":
        raise ValueError(
            f"{spec.name} needs concurrent access; build the emulator with "
            "mode='crcw'"
        )
    for addr, value in spec.init.items():
        emulator.memory.write(int(addr), value)


def replay_program(
    spec: ProgramSpec,
    emulator: Emulator,
    *,
    max_steps: int = 100_000,
) -> ReplayResult:
    """Run *spec* natively, replay its trace on *emulator*, verify memory.

    The emulator must span at least ``spec.n_procs`` processors and
    ``spec.memory_size`` addresses.
    """
    n_available = emulator.n_processors
    if spec.n_procs > n_available:
        raise ValueError(
            f"{spec.name} needs {spec.n_procs} processors; the network has "
            f"{n_available}"
        )
    if spec.memory_size > emulator.memory.size:
        raise ValueError(
            f"{spec.name} needs {spec.memory_size} cells; the emulator has "
            f"{emulator.memory.size}"
        )

    obs = emulator.observer or NULL_OBSERVER
    with obs.span("native_run", category="app", program=spec.name):
        pram = spec.run(max_steps=max_steps)  # native reference (also verifies)
    configure_emulator_for(spec, emulator)
    with obs.span(
        "emulate_trace",
        category="app",
        virtual_clock=emulator.virtual_clock,
        program=spec.name,
        pram_steps=len(pram.trace.steps),
    ) as sp:
        report = emulator.emulate_trace(pram.trace)
        sp.virtual_end = emulator.virtual_clock

    with obs.span("verify_memory", category="app", program=spec.name):
        # The check covers all ``spec.memory_size`` cells by reading the
        # touched ones: a cell written on one side only is compared with
        # the other side's 0.
        emulated, native = emulator.memory, pram.memory
        matches = all(
            emulated.read(addr) == native.read(addr)
            for addr in emulated.touched() | native.touched()
            if addr < spec.memory_size
        )
    return ReplayResult(
        report=report,
        pram=pram,
        memory_matches=matches,
        cells_checked=spec.memory_size,
    )
