"""The per-tenant count table: ``EpochRecord.tenant_counts`` and the
``TrafficReport`` numbers derived from it.

* **goldens** — five seeded online runs (single tenant, QoS quotas,
  drop-tail overflow, timeouts plus fault retries and dead letters, a
  4-shard fleet) pinned by the sha256 of their sorted ``to_dict()``
  dump, so a change to how the tenant numbers are kept cannot change
  a byte of what is reported;
* **table** — each epoch's table obeys the conservation law for its
  change in backlog, ``sojourn_tenants`` aligns with ``sojourns``, and
  an empty lane or a label first seen mid-run is handled;
* **recovery** — ``recovery_times`` on the documented fault scenario.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import batch_of
from repro.emulation import LeveledEmulator, MeshEmulator
from repro.faults import FaultSchedule
from repro.sharding import (
    MultiTenantOnlineEmulator,
    MultiTenantWorkload,
    ShardedEmulator,
    TenantPolicy,
)
from repro.topology import DAryButterflyLeveled, Mesh2D
from repro.traffic import (
    DeterministicArrivals,
    OnlineEmulator,
    PoissonArrivals,
    TrafficReport,
    TrafficRequest,
    UniformKeys,
    WorkloadGenerator,
    ZipfKeys,
)
from repro.traffic.telemetry import TENANT_COUNTERS

NET = DAryButterflyLeveled(2, 4)
N_PROCS = NET.column_size
SPACE = 4096
POLICIES = (
    TenantPolicy("gold", qos="gold"),
    TenantPolicy("silver", qos="silver", quota=4),
    TenantPolicy("bronze", qos="bronze", quota=2),
)


def _lanes(rates):
    return MultiTenantWorkload(
        {
            name: WorkloadGenerator(
                N_PROCS,
                arrivals=PoissonArrivals(rate),
                keys=UniformKeys(SPACE),
                read_fraction=0.7,
                seed=40 + i,
            )
            for i, (name, rate) in enumerate(rates.items())
        }
    )


def single_tenant():
    em = LeveledEmulator(NET, SPACE, mode="crcw", seed=11, engine="fast")
    wl = WorkloadGenerator(
        N_PROCS,
        arrivals=PoissonArrivals(0.6 * N_PROCS),
        keys=ZipfKeys(SPACE, exponent=1.1),
        seed=3,
    )
    return OnlineEmulator(em, wl), 12


def qos_quotas():
    em = LeveledEmulator(NET, SPACE, mode="crcw", seed=11, engine="fast")
    wl = _lanes({"gold": 5.0, "silver": 6.0, "bronze": 6.0})
    return MultiTenantOnlineEmulator(em, wl, policies=POLICIES), 10


def drop_overflow():
    mesh = Mesh2D.square(4)
    n = mesh.num_nodes
    em = MeshEmulator(mesh, 4 * n, mode="crcw", seed=5, engine="fast")
    wl = WorkloadGenerator(
        n,
        arrivals=PoissonArrivals(3.0 * n),
        keys=ZipfKeys(4 * n, exponent=1.2),
        seed=21,
    )
    return OnlineEmulator(em, wl, overflow="drop", queue_limit=24), 12


def timeouts_and_faults():
    # direct placement pins addr 3 to node 3, whose two inbound wires
    # are cut: the steps holding it fail, and their requests retry,
    # then dead-letter or time out
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
        arrivals=DeterministicArrivals(6.0),
        keys=UniformKeys(4),
        read_fraction=0.0,
        seed=1,
    )
    drv = OnlineEmulator(em, wl, retry_limit=1, backoff=2, request_timeout=10_000)
    return drv, 12


def sharded_fleet():
    def make_shard(index, seed):
        return LeveledEmulator(NET, SPACE, mode="crcw", seed=seed, engine="fast")

    service = ShardedEmulator(make_shard, 4, SPACE, seed=11)
    wl = MultiTenantWorkload(
        {
            p.tenant: WorkloadGenerator(
                service.n_processors,
                arrivals=PoissonArrivals(0.35 * service.n_processors),
                keys=UniformKeys(SPACE),
                seed=100 + i,
            )
            for i, p in enumerate(POLICIES)
        }
    )
    return MultiTenantOnlineEmulator(service, wl, policies=POLICIES), 8


CONFIGS = {
    "single_tenant": single_tenant,
    "qos_quotas": qos_quotas,
    "drop_overflow": drop_overflow,
    "timeouts_and_faults": timeouts_and_faults,
    "sharded_fleet": sharded_fleet,
}

#: sha256 of ``json.dumps(report.to_dict(), sort_keys=True)`` per config
GOLDEN = {
    "drop_overflow": "e9ef6f7ec414f5a271a45d80896faa666206655d3b17c94090627c53b0ccdfe3",
    "qos_quotas": "22fbd199506856cd6f56581b6536f7c5918be12de6349155d2dc4904d00ab647",
    "sharded_fleet": "1f9130eedd073b96aebe1c5321653e17d91f5a20669f9cf35f52f156edd07e24",
    "single_tenant": "016495656d4e172ba6b51422dc593a464408834fbe411f6023d7079b89ca74c1",
    "timeouts_and_faults": "a4ab389eaab80f60266b8dc7625ac2d1b8dfb175293b749554c9c449cbe1f398",
}


def _run(name):
    drv, epochs = CONFIGS[name]()
    return drv.run(epochs)


def digest(report) -> str:
    return hashlib.sha256(
        json.dumps(report.to_dict(), sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_to_dict_matches_the_golden(name):
    assert digest(_run(name)) == GOLDEN[name]


# ---------------------------------------------------------------------------
# the per-epoch table
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def report(request):
    return _run(request.param)


def _row(e, counter):
    return e.tenant_counts[TENANT_COUNTERS.index(counter)]


def test_each_epoch_conserves_per_tenant(report):
    """arrivals - (delivered + dropped + timed_out + dead_lettered) is
    the epoch's change in backlog, tenant by tenant."""
    labels, before = (), np.zeros(0, dtype=np.int64)
    for e in report.epochs:
        assert e.tenant_counts.dtype == np.int64
        assert e.tenant_counts.shape == (len(TENANT_COUNTERS), len(e.tenants))
        assert e.tenants[: len(labels)] == labels  # labels are only appended
        labels = e.tenants
        change = _row(e, "arrivals") - sum(
            _row(e, c) for c in ("delivered", "dropped", "timed_out", "dead_lettered")
        )
        after = _row(e, "backlog")
        prior = np.zeros_like(after)
        prior[: len(before)] = before
        assert (change == after - prior).all()
        before = after


def test_rows_sum_to_the_epoch_scalars(report):
    for e in report.epochs:
        assert _row(e, "arrivals").sum() == e.arrivals
        assert _row(e, "delivered").sum() == e.admitted
        assert _row(e, "dropped").sum() == e.dropped
        assert _row(e, "timed_out").sum() == e.timed_out
        assert _row(e, "dead_lettered").sum() == e.dead_lettered
        assert _row(e, "backlog").sum() == e.backlog


def test_sojourn_tenants_align_with_sojourns(report):
    for e in report.epochs:
        assert len(e.sojourn_tenants) == len(e.sojourns) == e.admitted
        served = np.bincount(e.sojourn_tenants, minlength=len(e.tenants))
        assert (served == _row(e, "delivered")).all()


def test_by_tenant_is_the_nonzero_row(report):
    for e in report.epochs:
        for j, counter in enumerate(TENANT_COUNTERS):
            got = e.by_tenant(counter)
            assert got == {
                t: k for t, k in zip(e.tenants, e.tenant_counts[j].tolist()) if k
            }
            assert all(type(k) is int for k in got.values())


def test_configs_exercise_every_counter():
    """The goldens cover drops, timeouts, retries and dead letters."""
    seen = {c: 0 for c in TENANT_COUNTERS}
    for name in CONFIGS:
        totals = _run(name).tenant_totals()
        for c in TENANT_COUNTERS:
            seen[c] += sum(v[c] for v in totals.values())
    assert all(seen.values()), seen


def test_empty_lane_is_not_a_tenant():
    """A multi-tenant batch carries every label; a lane that never
    offers a request is in the table but not in ``report.tenants``."""
    em = LeveledEmulator(NET, SPACE, mode="crcw", seed=11, engine="fast")
    wl = _lanes({"gold": 3.0, "idle": 0.0, "bronze": 3.0})
    report = MultiTenantOnlineEmulator(em, wl, policies=POLICIES).run(4)
    assert report.epochs[0].tenants == ("gold", "idle", "bronze")
    assert report.tenants == ["bronze", "gold"]
    assert list(report.tenant_totals()) == ["bronze", "gold"]
    assert list(report.tenant_sojourn_percentiles()) == ["bronze", "gold"]


class _Batches:
    """A fixed arrival list per epoch (empty epochs past its end)."""

    def __init__(self, epochs):
        self._epochs = epochs
        self.n_procs = N_PROCS
        self.address_space = SPACE

    def stream(self, epochs):
        out = [self._epochs[k] if k < len(self._epochs) else [] for k in range(epochs)]
        return [batch_of(e) for e in out]


def test_label_first_seen_mid_run_pads_earlier_tables():
    def req(rid, epoch, tenant):
        return TrafficRequest(rid, rid % N_PROCS, 7 * rid, "read", epoch, None, tenant)

    wl = _Batches(
        [
            [req(0, 0, "b"), req(1, 0, "b")],
            [],
            [req(2, 2, "a"), req(3, 2, "b"), req(4, 2, "a")],
        ]
    )
    em = LeveledEmulator(NET, SPACE, mode="crcw", seed=11, engine="fast")
    report = OnlineEmulator(em, wl).run(4)
    assert [e.tenants for e in report.epochs] == [("b",), ("b",), ("b", "a"), ("b", "a")]
    assert report.tenants == ["a", "b"]
    totals = report.tenant_totals()
    assert totals["a"]["arrivals"] == totals["a"]["delivered"] == 2
    assert totals["b"]["arrivals"] == totals["b"]["delivered"] == 3
    assert report.tenant_conservation_deficits() == {"a": 0, "b": 0}
    assert report.epochs[2].sojourn_tenants == [1, 0, 1]


def test_empty_report_has_no_tenants():
    report = TrafficReport()
    assert report.tenants == []
    assert report.tenant_totals() == {}
    assert report.tenant_sojourn_percentiles() == {}


# ---------------------------------------------------------------------------
# recovery_times
# ---------------------------------------------------------------------------


def test_recovery_inside_the_fault_epoch_is_that_epochs_length():
    """The docs/faults.md scenario: 4 of 64 modules killed at step 40.
    Throughput never leaves the band, so the fault epoch is its own
    recovery epoch and ``recovery_steps`` is its length, not 0."""
    sched = FaultSchedule()
    for m in (10, 20, 30, 41):
        sched.kill_module(40, m)
    em = MeshEmulator(Mesh2D.square(8), 256, mode="crcw", seed=5, faults=sched)
    wl = WorkloadGenerator(
        64, arrivals=DeterministicArrivals(48.0), keys=UniformKeys(256), seed=9
    )
    report = OnlineEmulator(em, wl).run(epochs=24)
    (rec,) = report.recovery_times(window=4, tolerance=0.10)
    assert rec["epoch"] == rec["recovered_epoch"] == 1
    fault_epoch = report.epochs[1]
    assert rec["recovery_steps"] == fault_epoch.clock - report.epochs[0].clock
    assert rec["recovery_steps"] == fault_epoch.steps == 27
