"""Online traffic: open-loop workload generators, streaming driver, telemetry.

The paper's emulation results are closed batches — inject one PRAM
step, drain it, stop.  This subsystem turns the emulators into an open
*service*: seeded arrival processes composed with key-popularity
distributions (:mod:`repro.traffic.generators`) stream requests into an
admission queue, an :class:`OnlineEmulator`
(:mod:`repro.traffic.driver`) serves them epoch by epoch through the
existing engine dispatch, and windowed telemetry
(:mod:`repro.traffic.telemetry`) reports throughput, sojourn-latency
percentiles, queue depth, and the per-epoch engine-dispatch history.

Quickstart::

    from repro.emulation import LeveledEmulator
    from repro.topology import DAryButterflyLeveled
    from repro.traffic import (
        OnlineEmulator, PoissonArrivals, WorkloadGenerator, ZipfKeys,
    )

    net = DAryButterflyLeveled(2, 6)
    em = LeveledEmulator(net, address_space=1024, mode="crcw", seed=1)
    wl = WorkloadGenerator(
        net.column_size,
        arrivals=PoissonArrivals(40.0),
        keys=ZipfKeys(1024, exponent=1.1),
        seed=2,
    )
    report = OnlineEmulator(em, wl).run(epochs=50)
    print(report.sojourn_percentiles(), report.run_mode_counts())

See ``docs/traffic.md`` for driver semantics and the telemetry field
reference.
"""

from repro.traffic.driver import (
    QOS_CLASSES,
    DriverAlreadyRanError,
    OnlineEmulator,
    TenantPolicy,
)
from repro.traffic.generators import (
    ArrivalProcess,
    BurstyArrivals,
    DeterministicArrivals,
    HotspotKeys,
    KeyDistribution,
    PoissonArrivals,
    RequestBatch,
    TrafficRequest,
    UniformKeys,
    WorkloadGenerator,
    ZipfKeys,
)
from repro.traffic.telemetry import EpochRecord, TrafficReport

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "DeterministicArrivals",
    "DriverAlreadyRanError",
    "EpochRecord",
    "HotspotKeys",
    "KeyDistribution",
    "OnlineEmulator",
    "PoissonArrivals",
    "QOS_CLASSES",
    "RequestBatch",
    "TenantPolicy",
    "TrafficRequest",
    "UniformKeys",
    "WorkloadGenerator",
    "ZipfKeys",
]
