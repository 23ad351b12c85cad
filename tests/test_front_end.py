"""The serving front end's view of an emulator: the ``Emulator`` service
contract (``n_processors`` / ``scale`` / ``mode`` / ``memory`` /
``observer`` / ``faults`` / ``virtual_clock`` / ``serving_modules`` /
``write_policy`` / ``combine_op`` / ``module_of``), the front end's
typed terminal failure and its construction-time fleet check, the one
writer of the epoch metrics, and the column pipeline: no request object
is built between the generator and the ``EpochRecord``.
"""

import numpy as np
import pytest

from conftest import queued
from repro.emulation import (
    KarlinUpfalMeshEmulator,
    LeveledEmulator,
    MeshEmulator,
    RanadeEmulator,
)
from repro.emulation import replay_program
from repro.emulation.base import Emulator, StepCost
from repro.faults import FaultPlan, FaultSchedule
from repro.obs import Observer
from repro.pram.programs import prefix_sum
from repro.pram.trace import permutation_step
from repro.pram.variants import WritePolicy
from repro.sharding import (
    MultiTenantWorkload,
    ShardedEmulator,
    TenantPolicy,
)
from repro.topology import DAryButterflyLeveled, Mesh2D
from repro.traffic import (
    DeterministicArrivals,
    DriverAlreadyRanError,
    OnlineEmulator,
    PoissonArrivals,
    TrafficRequest,
    UniformKeys,
    WorkloadGenerator,
    ZipfKeys,
)
from repro.traffic.generators import ADDR

NET = DAryButterflyLeveled(2, 4)
N_PROCS = NET.column_size
MESH = Mesh2D.square(4)
SPACE = 2048
ADDRS = np.arange(0, SPACE, 13, dtype=np.int64)


def workload(n_procs, rate, keys, seed=1):
    return WorkloadGenerator(n_procs, arrivals=PoissonArrivals(rate), keys=keys, seed=seed)


def leveled_factory(faults=None):
    def factory(index, seed):
        return LeveledEmulator(NET, SPACE, mode="crcw", seed=seed, faults=faults)

    return factory


# ---------------------------------------------------------------------------
# serving_modules: one vectorised definition, module_of on top of it
# ---------------------------------------------------------------------------


def old_sharded_module_of(service, addr):
    """``ShardedEmulator.module_of`` as it was written before the
    contract: two scalar Horner hashes and a scalar remap per address."""
    shard = service.placement.shard_of(addr)
    inner = service.shards[shard]
    return shard * service.module_stride + inner.faults.map_modules(
        int(inner.hash(int(addr)))
    )


@pytest.mark.parametrize("n_shards", [1, 3, 4])
@pytest.mark.parametrize(
    "faults", [None, FaultPlan(dead_modules=[0, 5, 6])], ids=["healthy", "dead-modules"]
)
def test_sharded_serving_modules_is_the_old_elementwise_definition(n_shards, faults):
    service = ShardedEmulator(leveled_factory(faults), n_shards, SPACE, seed=42)

    def check():
        want = [old_sharded_module_of(service, a) for a in ADDRS.tolist()]
        assert service.serving_modules(ADDRS).tolist() == want
        if faults is not None:
            assert not {m % service.module_stride for m in want} & {0, 5, 6}

    check()
    for k in range(3):
        service.emulate_step(permutation_step(N_PROCS, SPACE, seed=70 + k))
    check()
    before = service.serving_modules(ADDRS).tolist()
    for shard in service.shards:  # the §2.1 recovery action, mid-run
        shard.rehash()
    check()
    assert service.serving_modules(ADDRS).tolist() != before
    assert service.serving_modules(ADDRS[:0]).tolist() == []


def emulators():
    dead = FaultPlan(dead_modules=[1, 2])
    return {
        "leveled": LeveledEmulator(NET, SPACE, seed=3),
        "leveled-dead": LeveledEmulator(NET, SPACE, seed=3, faults=dead),
        "mesh": MeshEmulator(MESH, SPACE, seed=3, faults=dead),
        "mesh-direct": MeshEmulator(MESH, 16, placement="direct", seed=3, faults=dead),
        "karlin-upfal": KarlinUpfalMeshEmulator(MESH, SPACE, seed=3),
        "ranade": RanadeEmulator(3, SPACE, seed=3),
        "sharded": ShardedEmulator(leveled_factory(dead), 3, SPACE, seed=3),
    }


@pytest.mark.parametrize("name", sorted(emulators()))
def test_module_of_is_serving_modules(name):
    em = emulators()[name]
    addrs = ADDRS[ADDRS < em.memory.size]
    assert [em.module_of(a) for a in addrs.tolist()] == em.serving_modules(addrs).tolist()
    assert isinstance(em.module_of(int(addrs[0])), int)
    assert "module_of" not in type(em).__dict__  # one body, on the base


def test_direct_placement_mesh_reports_the_modules_it_did_on_the_scalar_path():
    """``placement="direct"`` used to fall to the driver's per-request
    ``module_of`` loop (address -> dead-module remap); the column path
    must report the same ``EpochRecord.modules``."""
    em = MeshEmulator(
        MESH, 16, mode="crcw", placement="direct", seed=1,
        faults=FaultPlan(dead_modules=[2, 3, 9]),
    )
    drv = OnlineEmulator(em, workload(16, 9.0, UniformKeys(16), seed=4))
    batches = []
    admit = drv._admit
    drv._admit = lambda: batches.append(admit()) or batches[-1]
    report = drv.run(6)
    assert report.total_delivered > 20
    for record, batch in zip(report.epochs, batches):
        assert record.modules == [em.faults.map_modules(a) for a in batch[ADDR].tolist()]
    assert not {m for e in report.epochs for m in e.modules} & {2, 3, 9}


# ---------------------------------------------------------------------------
# the declared attributes
# ---------------------------------------------------------------------------


class Scripted(Emulator):
    """A test double the ordinary way: ``emulate_step``, and a
    constructor that builds none of a network emulator's shared state."""

    def __init__(self):
        pass

    def emulate_step(self, step):
        return StepCost(2, 1, requests=step.num_requests)


def test_an_emulator_with_nothing_to_say_reports_the_contract_defaults():
    em = Scripted()
    assert (em.n_processors, em.mode, em.memory, em.observer, em.faults) == (
        None, None, None, None, None,
    )
    assert (em.scale, em.virtual_clock) == (1.0, 0)
    assert (em.write_policy, em.combine_op) == (WritePolicy.ARBITRARY, "sum")
    assert em.serving_modules(ADDRS).tolist() == []
    drv = OnlineEmulator(em, workload(8, 5.0, UniformKeys(64)))
    assert not drv.exclusive
    report = drv.run(4)
    assert report.total_delivered and report.conservation_deficit() == 0
    assert all(e.modules == [] for e in report.epochs)
    assert em.virtual_clock == report.epochs[-2].clock  # pinned before the last step


def test_every_emulator_class_answers_the_contract():
    for name, em in emulators().items():
        assert isinstance(em.n_processors, int), name
        assert em.scale > 0, name
        assert em.memory.size >= 16, name
        assert em.virtual_clock == 0, name
    assert MeshEmulator(MESH, SPACE).n_processors == MESH.num_nodes == 16
    fleet = emulators()["sharded"]
    assert fleet.n_processors == N_PROCS and fleet.module_stride == N_PROCS
    assert fleet.scale == 2.0 * NET.num_levels
    assert fleet.mode == "crcw" and fleet.faults is None
    fleet.virtual_clock = 17
    assert [s.virtual_clock for s in fleet.shards] == [17, 17, 17]
    # ... and write semantics fan out to the shards the same way
    assert (fleet.write_policy, fleet.combine_op) == (WritePolicy.ARBITRARY, "sum")
    fleet.write_policy, fleet.combine_op = WritePolicy.COMBINE, "max"
    assert {(s.write_policy, s.combine_op) for s in fleet.shards} == {
        (WritePolicy.COMBINE, "max")
    }
    assert (fleet.write_policy, fleet.combine_op) == (WritePolicy.COMBINE, "max")


def test_the_driver_sizes_itself_from_the_contract():
    wl = workload(32, 4.0, UniformKeys(SPACE))
    for em in (MeshEmulator(MESH, SPACE), ShardedEmulator(leveled_factory(), 2, SPACE, seed=1)):
        with pytest.raises(ValueError, match="emulator has only 16"):
            OnlineEmulator(em, wl)
    erew = ShardedEmulator(
        lambda i, s: LeveledEmulator(NET, SPACE, mode="erew", seed=s), 2, SPACE, seed=1
    )
    assert OnlineEmulator(erew, workload(8, 4.0, UniformKeys(SPACE))).exclusive


# ---------------------------------------------------------------------------
# typed terminal failures
# ---------------------------------------------------------------------------


def test_a_second_run_is_a_typed_terminal_error():
    drv = OnlineEmulator(Scripted(), workload(8, 3.0, UniformKeys(64)))
    drv.run(2)
    with pytest.raises(DriverAlreadyRanError, match="OnlineEmulator.run is one-shot") as exc:
        drv.run(2)
    assert isinstance(exc.value, RuntimeError)


def test_a_fleet_whose_shards_disagree_on_mode_is_rejected_at_construction():
    """It used to adopt shard 0's mode: the driver admitted
    non-exclusively and the EREW shard raised mid-gather."""
    def factory(index, seed):
        return LeveledEmulator(NET, SPACE, mode="erew" if index == 1 else "crcw", seed=seed)

    with pytest.raises(ValueError, match="shards disagree on mode"):
        ShardedEmulator(factory, 4, SPACE, seed=42)


# ---------------------------------------------------------------------------
# one writer for the epoch metrics
# ---------------------------------------------------------------------------


def test_registry_counters_are_the_reports_totals_after_a_faulted_dropping_run():
    obs = Observer(flight_recorder=64)
    em = LeveledEmulator(
        NET, SPACE, mode="erew", seed=2, rehash_factor=1.2, max_rehashes=1,
        faults=FaultSchedule().kill_module(5, 3).kill_module(40, 7).revive_module(90, 3),
        observer=obs,
    )
    wl = workload(N_PROCS, 20.0, ZipfKeys(SPACE, exponent=1.3), seed=8)
    report = OnlineEmulator(
        em, wl, overflow="drop", queue_limit=24, admit_limit=12, retry_limit=1
    ).run(14)
    assert report.total_dropped > 0 and report.final_backlog > 0
    assert report.total_rehashes > 0 and any(e.fault_events for e in report.epochs)
    value = obs.metrics.value
    assert value("epochs_total") == report.num_epochs == 14
    assert value("requests_admitted_total") == report.total_delivered
    assert value("requests_dropped_total") == report.total_dropped
    epochs = [e for e in obs.flight_tail() if e["kind"] == "epoch"]
    assert [(e["epoch"], e["admitted"], e["backlog"]) for e in epochs] == [
        (r.epoch, r.admitted, r.backlog) for r in report.epochs
    ][-len(epochs):]


# ---------------------------------------------------------------------------
# the column pipeline: no request object on the served path
# ---------------------------------------------------------------------------

@pytest.fixture
def built(monkeypatch):
    """Constructions of ``TrafficRequest`` row views, counted."""
    counts = [0]
    init = TrafficRequest.__init__

    def counting(self, *args, **kwargs):
        counts[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TrafficRequest, "__init__", counting)
    return counts


def _leveled_crcw():
    em = LeveledEmulator(NET, SPACE, mode="crcw", seed=3, engine="fast")
    wl = WorkloadGenerator(
        N_PROCS, arrivals=PoissonArrivals(9.0), keys=ZipfKeys(SPACE), read_fraction=0.6, seed=4
    )
    return OnlineEmulator(em, wl)


def _mesh_erew_with_backlog():
    em = MeshEmulator(MESH, SPACE, mode="erew", seed=3, engine="fast")
    wl = workload(MESH.num_nodes, 14.0, ZipfKeys(SPACE, exponent=1.3), seed=6)
    return OnlineEmulator(em, wl, request_timeout=400)


def _quota_fleet():
    def shard(index, seed):
        return LeveledEmulator(NET, SPACE, mode="crcw", seed=seed, engine="fast")

    tenants = ("gold", "silver", "bronze")
    wl = MultiTenantWorkload(
        {t: workload(N_PROCS, 5.0, ZipfKeys(SPACE), seed=10 + i) for i, t in enumerate(tenants)}
    )
    return OnlineEmulator(
        ShardedEmulator(shard, 4, SPACE, seed=5),
        wl,
        policies=[TenantPolicy(t, qos=t, quota=q) for t, q in zip(tenants, (6, 4, 3))],
    )


@pytest.mark.parametrize(
    "build", [_leveled_crcw, _mesh_erew_with_backlog, _quota_fleet], ids=lambda f: f.__name__
)
def test_a_served_run_builds_no_request_object(build, built):
    driver = build()
    report = driver.run(10)
    assert report.total_delivered > 50 and report.conservation_deficit() == 0
    if build is not _leveled_crcw:
        assert report.final_backlog > 0
    assert set(report.run_mode_counts()) == {"batch"}
    assert built == [0]
    # the row views are built when somebody asks, and only then
    assert len(queued(driver)) == report.final_backlog
    assert built == [report.final_backlog]


def test_dead_letters_are_the_only_request_objects_of_a_faulted_run(built):
    """Cell 3 is unreachable (both wires into its node are down): its
    requests retry, then dead-letter — as ``TrafficRequest`` row views,
    the one kind of object the served path builds."""
    sched = FaultSchedule().link_down(0, (1, 3)).link_down(0, (2, 3))
    em = MeshEmulator(
        Mesh2D.square(2), 4, mode="crcw", placement="direct", seed=3,
        engine="fast", faults=sched, max_rehashes=1,
    )
    wl = WorkloadGenerator(
        4, arrivals=DeterministicArrivals(4.0), keys=UniformKeys(4),
        read_fraction=0.0, seed=1,
    )
    driver = OnlineEmulator(em, wl, retry_limit=2, backoff=2)
    report = driver.run(8)
    assert report.total_dead_lettered == len(driver.dead_letters) > 0
    assert report.total_delivered > 0 and report.conservation_deficit() == 0
    assert built == [len(driver.dead_letters)]
    assert all(isinstance(req, TrafficRequest) for req, _stamp, _attempts in driver.dead_letters)


def test_replayed_programs_and_driven_baselines_cost_what_they_did():
    """A replayed program hands the machine's reads-first columns to
    ``_step_columns``; driven Karlin–Upfal puts the driver's interleaved
    columns reads first itself, Ranade sorts its streams by key.  The
    costs are the ones recorded while the baselines still converted
    each step to request objects (the replay and Ranade rows before the
    front end moved to columns)."""
    spec = prefix_sum(list(range(1, 17)))
    result = replay_program(spec, LeveledEmulator(NET, spec.memory_size, mode="erew", seed=3))
    assert result.memory_matches
    assert [(c.request_steps, c.reply_steps, c.requests) for c in result.report.costs] == [
        (10, 10, 16), (11, 10, 15), (10, 0, 16), (10, 10, 16), (10, 10, 14), (11, 0, 16),
        (10, 10, 16), (11, 11, 12), (11, 0, 16), (10, 11, 16), (9, 9, 8), (10, 0, 16),
    ]  # fmt: skip
    # Karlin–Upfal draws its random intermediates in reads-first row order
    baselines = {
        RanadeEmulator(4, address_space=256, seed=18): [
            (6, 7, 10), (6, 6, 10), (6, 7, 11), (6, 5, 7), (6, 5, 6), (6, 6, 10),
        ],
        KarlinUpfalMeshEmulator(Mesh2D.square(4), 256, seed=18): [
            (11, 15, 10), (11, 12, 10), (15, 10, 11), (10, 6, 7), (9, 8, 6), (10, 11, 10),
        ],
    }  # fmt: skip
    for baseline, expected in baselines.items():
        wl = WorkloadGenerator(
            16, arrivals=PoissonArrivals(9.0), keys=UniformKeys(256), read_fraction=0.7, seed=5
        )
        report = OnlineEmulator(baseline, wl).run(6)
        assert [(e.request_steps, e.reply_steps, e.admitted) for e in report.epochs] == expected
