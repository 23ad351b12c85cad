"""What one emulated step reports of its placement, and what it refuses.

``StepCost.modules`` is the module column the step's successful attempt
routed on, in the step's own row order: a front end records it per
delivered request instead of hashing the step a second time, so it must
equal ``serving_modules(step.addrs)`` asked *after* the step — through
mid-step rehashes, the dead-module remap, direct placement, the
baselines and a shard fleet.  A step naming an address outside the
emulated memory is rejected before anything routes, draws or writes.
"""

import copy

import numpy as np
import pytest

from repro.emulation import (
    KarlinUpfalMeshEmulator,
    LeveledEmulator,
    MeshEmulator,
    RanadeEmulator,
)
from repro.faults import FaultPlan, FaultSchedule
from repro.hashing.family import PolynomialHash
from repro.pram.trace import RequestColumns, random_trace
from repro.sharding import ShardedEmulator
from repro.topology import DAryButterflyLeveled, Mesh2D
from repro.traffic import OnlineEmulator, PoissonArrivals, UniformKeys, WorkloadGenerator

NET = DAryButterflyLeveled(2, 3)  # 8 processors, 8 modules
MESH = Mesh2D.square(4)  # 16 processors, 16 modules
SPACE = 256


def interleaved_steps(n_procs, space, n_steps, seed, *, erew=True):
    """Steps with reads and writes interleaved, as a front end slices
    them out of its request table (``RequestColumns.of`` puts reads
    first, which would hide a row-order mistake)."""
    rng = np.random.default_rng(seed)
    return [
        step.take(rng.permutation(step.num_requests))
        for step in random_trace(n_procs, space, n_steps, seed=seed, erew=erew).steps
    ]


def dead(*modules):
    return FaultPlan(dead_modules=list(modules))


def killed_mid_run():
    sched = FaultSchedule()
    sched.kill_module(20, 3)
    return sched


def leveled(**kwargs):
    return LeveledEmulator(NET, SPACE, seed=3, **kwargs)


def mesh(space=SPACE, **kwargs):
    return MeshEmulator(MESH, space, seed=3, **kwargs)


#: name -> (emulator factory, processors, address space, EREW steps?)
EMULATORS = {
    "leveled-crcw": (leveled, 8, SPACE, False),
    "leveled-erew": (lambda: leveled(mode="erew"), 8, SPACE, True),
    "leveled-dead": (lambda: leveled(faults=dead(1, 2)), 8, SPACE, False),
    "leveled-killed": (lambda: leveled(faults=killed_mid_run()), 8, SPACE, False),
    "mesh-erew": (mesh, 16, SPACE, True),
    "mesh-crcw-dead": (lambda: mesh(mode="crcw", faults=dead(0, 5)), 16, SPACE, False),
    "mesh-direct": (lambda: mesh(16, placement="direct"), 16, 16, True),
    "mesh-direct-dead": (
        lambda: mesh(16, mode="crcw", placement="direct", faults=dead(2, 3, 9)),
        16,
        16,
        False,
    ),
    "mesh-killed": (lambda: mesh(mode="crcw", faults=killed_mid_run()), 16, SPACE, False),
    "karlin-upfal": (lambda: KarlinUpfalMeshEmulator(MESH, SPACE, seed=3), 16, SPACE, True),
    "ranade": (lambda: RanadeEmulator(3, SPACE, seed=3), 8, SPACE, True),
}


@pytest.mark.parametrize("name", sorted(EMULATORS))
def test_a_steps_modules_are_what_serving_modules_says_after_it(name):
    make, n_procs, space, erew = EMULATORS[name]
    em = make()
    for step in interleaved_steps(n_procs, space, 6, seed=5, erew=erew):
        cost = em.emulate_step(step)
        assert cost.modules.dtype == np.int64
        assert cost.modules.tolist() == em.serving_modules(step.addrs).tolist()
    if "dead" in name or "killed" in name:
        assert not set(cost.modules.tolist()) & em.faults.known_dead


def test_the_modules_are_the_last_attempts_after_forced_rehashes():
    """An allotment below the 2L path length misses on every attempt:
    the step ends on its last rehash's function, and reports that."""
    em = LeveledEmulator(NET, SPACE, seed=3, rehash_factor=0.1, max_rehashes=3)
    (step,) = interleaved_steps(8, SPACE, 1, seed=9, erew=False)
    first = em.serving_modules(step.addrs).tolist()
    cost = em.emulate_step(step)
    assert cost.rehashes == 3
    assert cost.modules.tolist() == em.serving_modules(step.addrs).tolist() != first


def test_modules_are_outside_step_cost_equality():
    em_a, em_b = (LeveledEmulator(NET, SPACE, seed=3) for _ in range(2))
    (step,) = interleaved_steps(8, SPACE, 1, seed=2)
    a, b = em_a.emulate_step(step), em_b.emulate_step(step)
    assert a == b and np.array_equal(a.modules, b.modules)
    b.modules = b.modules[::-1].copy()
    assert a == b and "modules" not in repr(a)


def fleet(n_shards, faults=None):
    def factory(index, seed):
        return LeveledEmulator(NET, SPACE, seed=seed, faults=faults)

    return ShardedEmulator(factory, n_shards, SPACE, seed=42)


@pytest.mark.parametrize("n_shards", [1, 4])
@pytest.mark.parametrize("faults", [None, dead(0, 5)], ids=["healthy", "dead"])
def test_a_fleet_places_each_shards_column_at_its_rows(n_shards, faults):
    service = fleet(n_shards, faults)
    for step in interleaved_steps(8, SPACE, 5, seed=7, erew=False):
        cost = service.emulate_step(step)
        assert cost.modules.tolist() == service.serving_modules(step.addrs).tolist()
        owners = service.placement.map(step.addrs)
        assert (cost.modules // service.module_stride == owners).all()


def test_a_one_shard_fleet_is_the_bare_emulator_modules_included():
    service = fleet(1)
    bare = LeveledEmulator(NET, SPACE, seed=service.shard_seeds[0])
    for step in interleaved_steps(8, SPACE, 5, seed=7, erew=False):
        a, b = service.emulate_step(step), bare.emulate_step(step)
        assert a == b and a.modules.tolist() == b.modules.tolist()


def count_hash_calls(monkeypatch):
    calls = []
    original = PolynomialHash.map

    def counted(self, xs):
        calls.append(len(xs))
        return original(self, xs)

    monkeypatch.setattr(PolynomialHash, "map", counted)
    return calls


@pytest.mark.parametrize("n_shards", [None, 4])
def test_a_served_request_is_hashed_once_per_step(monkeypatch, n_shards):
    """One ``PolynomialHash.map`` per loaded shard and one placement
    call per served epoch (a bare emulator: one call) — the driver
    records the step's own column and never asks again."""
    em = LeveledEmulator(NET, SPACE, seed=3) if n_shards is None else fleet(n_shards)
    wl = WorkloadGenerator(8, arrivals=PoissonArrivals(3.0), keys=UniformKeys(SPACE), seed=4)
    calls = count_hash_calls(monkeypatch)
    report = OnlineEmulator(em, wl).run(12)
    served = [e for e in report.epochs if e.admitted]
    assert served and not any(e.rehashes for e in served)
    if n_shards is None:
        want = len(served)
    else:
        stride = em.module_stride
        want = sum(1 + len({m // stride for m in e.modules}) for e in served)
    assert len(calls) == want
    assert all(len(e.modules) == e.admitted for e in report.epochs)


# ---------------------------------------------------------------------------
# an address outside the memory is rejected before the step runs
# ---------------------------------------------------------------------------


def state_of(em):
    """Memory, clock and generator state of an emulator or every shard."""
    members = em.shards if isinstance(em, ShardedEmulator) else [em]
    return [
        (
            {a: m.memory.read(a) for a in m.memory.touched()},
            m.virtual_clock,
            copy.deepcopy(m.rng.bit_generator.state),
            m.rehash_count,
        )
        for m in members
    ]


BAD_STEP_EMULATORS = {
    "leveled": lambda: LeveledEmulator(NET, 64, seed=1),
    "mesh": lambda: MeshEmulator(MESH, 64, mode="crcw", seed=1),
    "mesh-direct": lambda: MeshEmulator(MESH, 16, placement="direct", seed=1),
    "fleet": lambda: ShardedEmulator(
        lambda i, seed: LeveledEmulator(NET, 64, seed=seed), 2, 64, seed=1
    ),
    "karlin-upfal": lambda: KarlinUpfalMeshEmulator(MESH, 64, seed=1),
}


@pytest.mark.parametrize("name", sorted(BAD_STEP_EMULATORS))
@pytest.mark.parametrize("bad", [64, -1, 10**9])
def test_an_out_of_range_address_is_rejected_before_the_step_runs(name, bad):
    em = BAD_STEP_EMULATORS[name]()
    space = em.memory.size
    bad = space if bad == 64 else bad
    em.emulate_step(RequestColumns.of(writes=[(0, 5, 7)]))
    before = state_of(em)
    step = RequestColumns.of(writes=[(0, 3, 111), (1, bad, 222)])
    with pytest.raises(ValueError, match=f"address {bad} is outside"):
        em.emulate_step(step)
    assert state_of(em) == before
    assert em.memory.read(3) == 0 and em.memory.read(5) == 7
    # ... and the emulator serves the next good step as if nothing happened
    em.emulate_step(RequestColumns.of(writes=[(0, 3, 111)]))
    assert em.memory.read(3) == 111


def test_ranade_rejects_an_out_of_range_address_before_it_hashes():
    em = RanadeEmulator(3, 64, seed=1)
    with pytest.raises(ValueError, match="address 64 is outside"):
        em.emulate_step(RequestColumns.of(writes=[(0, 3, 111), (1, 64, 222)]))
    assert em.memory.read(3) == 0
