"""Application harness: run a PRAM app through the full emulation stack.

One call — :func:`run_app` — takes a :class:`ProgramSpec` built by
:mod:`repro.apps.programs` plus its oracle labeling, picks a network
just big enough for the program (smallest binary butterfly /
squarest mesh), replays the program's trace through the chosen
engine (optionally behind a :class:`~repro.sharding.ShardedEmulator`
fleet), and returns one flat :class:`AppRun` record: emulated slowdown,
the paper's predicted O(log n) overhead for that network, combining hit
rate, and the two correctness bits (trace-replay memory agreement and
oracle agreement).

The slowdown readings are the paper's claim made concrete: on a leveled
network ``scale`` is the diameter Θ(log n), so
``normalized_slowdown = slowdown / scale`` staying O(1) *is* the
O(log n)-overhead theorem; on the mesh ``scale`` is the side length and
the same ratio tracks the Θ(√n) bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.emulation.leveled import LeveledEmulator
from repro.emulation.mesh import MeshEmulator
from repro.emulation.replay import replay_program
from repro.pram.variants import AccessMode
from repro.sharding import ShardedEmulator
from repro.topology.leveled import DAryButterflyLeveled
from repro.topology.mesh import Mesh2D

NETWORKS = ("leveled", "mesh")


@dataclass(frozen=True)
class AppRun:
    """One application pushed once through the emulation stack."""

    app: str
    network: str
    engine: str
    emulator_mode: str
    n_shards: int
    n_processors: int
    pram_steps: int
    #: mean network steps per PRAM step
    slowdown: float
    #: network scale (leveled: diameter Θ(log n); mesh: side Θ(√n))
    scale: float
    #: slowdown / scale — the ratio the paper's theorems bound by O(1)
    normalized_slowdown: float
    #: log2 of the emulating network's processor count, the paper's
    #: predicted overhead exponent for leveled networks
    predicted_log: float
    requests: int
    combines: int
    #: fraction of routed requests absorbed by CRCW combining
    combining_hit_rate: float
    #: engine dispatch modes seen across the run (sorted, deduplicated)
    run_modes: tuple[str, ...]
    #: trace replay reproduced the native PRAM memory cell for cell
    memory_matches: bool
    #: emulated label region equals the sequential oracle's labeling
    oracle_match: bool


def leveled_for(n_procs: int, **kwargs) -> DAryButterflyLeveled:
    """Smallest binary butterfly with at least *n_procs* columns."""
    levels = 1
    while 2**levels < max(2, n_procs):
        levels += 1
    return DAryButterflyLeveled(2, levels, **kwargs)


def mesh_for(n_procs: int) -> Mesh2D:
    """Smallest square mesh with at least *n_procs* nodes."""
    return Mesh2D.square(max(2, math.isqrt(max(1, n_procs - 1)) + 1))


def build_emulator(
    network: str,
    n_procs: int,
    address_space: int,
    *,
    emulator_mode: str = "crcw",
    engine: str = "auto",
    seed=0,
    n_shards: int = 1,
    faults=None,
    observer=None,
):
    """A just-big-enough emulator (or shard fleet) for an application.

    ``observer`` (a :class:`repro.obs.Observer`) is threaded through the
    whole stack — the emulator, its routers and engines, and (for
    fleets) the scatter/gather front end plus every shard — so one
    argument lights up metrics, tracing, profiling, and flight data
    end to end.
    """
    if network not in NETWORKS:
        raise ValueError(f"unknown network {network!r}; pick from {NETWORKS}")

    def shard(index: int, shard_seed: int):
        if network == "leveled":
            return LeveledEmulator(
                leveled_for(n_procs),
                address_space,
                mode=emulator_mode,
                seed=shard_seed,
                engine=engine,
                faults=faults,
                observer=observer,
            )
        return MeshEmulator(
            mesh_for(n_procs),
            address_space,
            mode=emulator_mode,
            seed=shard_seed,
            engine=engine,
            faults=faults,
            observer=observer,
        )

    if n_shards == 1:
        return shard(0, seed)
    if faults is not None:
        raise ValueError("pass per-shard faults via a custom factory")
    return ShardedEmulator(
        shard, n_shards, address_space, seed=seed, observer=observer
    )


def run_app(
    spec,
    expected: list,
    *,
    network: str = "leveled",
    engine: str = "auto",
    emulator_mode: str | None = None,
    seed=0,
    n_shards: int = 1,
    max_steps: int = 100_000,
    observer=None,
) -> AppRun:
    """Replay *spec* end to end and score it against *expected* labels.

    ``expected`` is the oracle output for the memory region ``[0,
    len(expected))`` — both applications keep their result array there.
    ``emulator_mode`` defaults to the weakest network mode the program's
    declared :class:`AccessMode` permits.

    Passing a :class:`repro.obs.Observer` lights up the whole stack:
    afterwards ``observer.metrics.snapshot()`` holds the service
    counters, ``observer.tracer.to_chrome_trace()`` the Perfetto-ready
    span timeline (native run, every route attempt, rehash episodes,
    reply phases, verification), and ``observer.profile.to_dict()`` the
    per-dispatch-mode / per-phase engine wall-time breakdown.
    """
    if emulator_mode is None:
        emulator_mode = "erew" if spec.mode is AccessMode.EREW else "crcw"
    emulator = build_emulator(
        network,
        spec.n_procs,
        spec.memory_size,
        emulator_mode=emulator_mode,
        engine=engine,
        seed=seed,
        n_shards=n_shards,
        observer=observer,
    )
    result = replay_program(spec, emulator, max_steps=max_steps)
    got = [emulator.memory.read(i) for i in range(len(expected))]
    report = result.report
    n_processors = emulator.n_processors
    requests = sum(c.requests for c in report.costs)
    modes: set[str] = set()
    for c in report.costs:
        modes.update(c.run_modes)
    return AppRun(
        app=spec.name,
        network=network,
        engine=engine,
        emulator_mode=emulator_mode,
        n_shards=n_shards,
        n_processors=n_processors,
        pram_steps=report.pram_steps,
        slowdown=result.slowdown,
        scale=report.scale,
        normalized_slowdown=result.slowdown / report.scale,
        predicted_log=math.log2(max(2, n_processors)),
        requests=requests,
        combines=report.total_combines,
        combining_hit_rate=(
            report.total_combines / requests if requests else 0.0
        ),
        run_modes=tuple(sorted(modes)),
        memory_matches=result.memory_matches,
        oracle_match=got == list(expected),
    )
