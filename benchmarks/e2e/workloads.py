"""The seven benchmark workloads: set-up, timed region, output checks.

Every workload is one fixed unit of work that is a pure function of the
workload seed (the emulator seed is pinned), so its virtual-clock numbers
repeat exactly and a host-clock sample is "seconds for this unit".  A run
repeats the unit for its whole measuring time, so a unit is sized at
0.5-1 s: a dozen samples per run, and each short enough to sit inside
one of the machine's slow or fast spells (see `calibrate.py`).  A
workload's ``prepare(seed, observer)`` is the set-up phase (topology,
compile, emulator, key distribution, warm-up on a throwaway emulator that
shares the topology object) and returns a :class:`Prepared`: ``timed()``
is the timed region, ``summarise(raw)`` turns what it returned into an
:class:`Outcome` after the clock stopped.

Arrivals are an open loop on the *virtual* clock: the whole stream is
pre-drawn from the seed (inside the timed region, because a served run
pays for it), so the generator is never late by construction and the
host-side metric is work per second at the stated size.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter
from statistics import fmean
from typing import Callable

import numpy as np

from repro.apps import (
    bisimulation,
    bisimulation_oracle,
    build_emulator,
    connected_components,
    connected_components_oracle,
    gnp_graph,
    random_lts,
)
from repro.emulation import LeveledEmulator, MeshEmulator
from repro.emulation import replay
from repro.pram.variants import AccessMode
from repro.sharding import (
    MultiTenantOnlineEmulator,
    MultiTenantWorkload,
    ShardedEmulator,
    TenantPolicy,
)
from repro.topology import DAryButterflyLeveled, Mesh2D, StarLogicalLeveled
from repro.topology.compiled import compile_leveled, compile_mesh
from repro.traffic import (
    BurstyArrivals,
    OnlineEmulator,
    PoissonArrivals,
    UniformKeys,
    WorkloadGenerator,
    ZipfKeys,
)

SPACE = 1 << 20
#: pinned so `--seed` varies the generated inputs only
EMULATOR_SEED = 11
WARMUP_EPOCHS = 2
#: engine modes a served step may dispatch to (anything else is a fallback)
VECTORIZED_MODES = frozenset({"batch", "batch-constrained"})
APP_NETWORKS = ("leveled", "mesh")


@dataclass
class Outcome:
    """What one timed region produced, summarised after the clock stopped."""

    #: requests offered / not served for a reason other than "still queued"
    attempted: int
    failed: int
    delivered: int
    #: network steps the emulated PRAM steps cost
    net_steps: int
    #: mean network steps per PRAM step / emulator.scale
    norm_slowdown: float
    #: request arrival -> reply latency in network steps
    sojourn_mean: float
    #: sha256 of the run's full deterministic dump
    digest: str
    #: output-check failures (empty = correct)
    problems: list[str] = field(default_factory=list)
    #: engine dispatch history: mode -> routing runs
    run_modes: dict[str, int] = field(default_factory=dict)
    #: virtual-clock per-layer metrics the tracer cannot read off a return
    #: value (a traced run reports them; absent ones read 0)
    layer_counts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Prepared:
    """A workload after set-up, ready for one timed region."""

    timed: Callable[[], object]
    summarise: Callable[[object], Outcome]
    #: seconds of set-up spent forcing the compiled topology tables
    compile_s: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: the constant the paper bounds `norm_slowdown` by, for display
    paper_bound: str
    #: the set-up phase: (workload seed, observer or None) -> Prepared
    prepare: Callable[[int, object], Prepared]


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def _compile(topology) -> float:
    """Force the lazily built compiled tables now, so set-up pays for them."""
    t0 = perf_counter()
    if isinstance(topology, Mesh2D):
        compile_mesh(topology)
    else:
        compiled = compile_leveled(topology)
        for level in range(topology.num_levels):
            compiled.out_table(level)
    return perf_counter() - t0


def _n_procs(topology) -> int:
    return topology.num_nodes if isinstance(topology, Mesh2D) else topology.column_size


# ---- online workloads -------------------------------------------------------


def _summarise_online(raw, scale: float) -> Outcome:
    report, steady, dump = raw
    served = [e for e in report.epochs if e.steps]
    deficits = [report.conservation_deficit(), *report.tenant_conservation_deficits().values()]
    modes = report.run_mode_counts()
    problems = []
    if any(deficits):
        problems.append(f"conservation deficit {deficits}")
    if set(modes) - VECTORIZED_MODES:
        problems.append(f"engine fell back: {modes}")
    # the same warm-up prefix `steady_state` skips
    sojourns = [s for e in report.epochs[report.num_epochs // 4 :] for s in e.sojourns]
    return Outcome(
        attempted=report.total_arrivals,
        failed=report.total_dropped
        + report.total_timed_out
        + report.total_dead_lettered
        + sum(abs(d) for d in deficits),
        delivered=report.total_delivered,
        net_steps=report.total_steps,
        norm_slowdown=report.total_steps / len(served) / scale,
        sojourn_mean=fmean(sojourns),
        digest=_digest(dump),
        problems=problems,
        run_modes=modes,
        layer_counts={
            "traffic.driver.epochs": report.num_epochs,
            "traffic.driver.admitted": report.total_delivered,
            "traffic.driver.dropped": report.total_dropped,
            "traffic.driver.mean_backlog": steady["mean_backlog"],
            "traffic.driver.final_backlog": report.final_backlog,
            "traffic.sojourn_steps_p50": steady["sojourn_p50"],
            "traffic.sojourn_steps_p99": steady["sojourn_p99"],
            "traffic.sojourn_samples": len(sojourns),
        },
    )


def _online(
    *,
    topology: Callable[[], object],
    emulator: Callable[[object, object], object],
    source: Callable[[int, object, int], object],
    keys: Callable[[], object],
    epochs: int,
    driver: Callable[..., OnlineEmulator] = OnlineEmulator,
    **driver_kwargs,
):
    """`prepare` for an open-loop run of `epochs` epochs.

    `emulator(topology, observer)` and `source(n_procs, keys, seed)` are
    called twice: once for the throwaway warm-up pair, once for the
    measured pair (`OnlineEmulator.run` is one-shot).
    """

    def prepare(seed: int, observer):
        topo = topology()
        compile_s = _compile(topo)
        n = _n_procs(topo)
        key_dist = keys()
        driver(emulator(topo, None), source(n, key_dist, seed), **driver_kwargs).run(
            WARMUP_EPOCHS
        )
        emu = emulator(topo, observer)
        drv = driver(emu, source(n, key_dist, seed), **driver_kwargs)

        def timed():
            report = drv.run(epochs)
            return report, report.steady_state(), report.to_dict()

        return Prepared(timed, lambda raw: _summarise_online(raw, emu.scale), compile_s)

    return prepare


def _poisson(rate_per_proc: float, **generator_kwargs):
    def source(n: int, key_dist, seed: int):
        return WorkloadGenerator(
            n,
            arrivals=PoissonArrivals(rate_per_proc * n),
            keys=key_dist,
            seed=seed,
            **generator_kwargs,
        )

    return source


def _bursty(n: int, key_dist, seed: int):
    return WorkloadGenerator(
        n,
        arrivals=BurstyArrivals(1.6 * n, 0.2 * n, p_exit_on=1.0, p_exit_off=1.0),
        keys=key_dist,
        seed=seed,
    )


TENANTS = ("gold", "silver", "bronze")


def _tenants(n: int, key_dist, seed: int):
    return MultiTenantWorkload(
        {
            name: _poisson(0.35)(n, key_dist, seed + i)
            for i, name in enumerate(TENANTS)
        }
    )


def _tenant_driver(emu, workload):
    n = emu.n_processors
    quotas = (n // 2, n // 3, n // 4)
    return MultiTenantOnlineEmulator(
        emu,
        workload,
        policies=[TenantPolicy(t, qos=t, quota=q) for t, q in zip(TENANTS, quotas)],
    )


def _sharded(net, observer):
    return ShardedEmulator(
        lambda _index, shard_seed: LeveledEmulator(
            net, SPACE, mode="crcw", seed=shard_seed, engine="fast", observer=observer
        ),
        4,
        SPACE,
        seed=EMULATOR_SEED,
        observer=observer,
    )


def _mesh(mode: str):
    return lambda mesh, observer: MeshEmulator(
        mesh, SPACE, mode=mode, seed=EMULATOR_SEED, engine="fast", observer=observer
    )


def _leveled(**kwargs):
    return lambda net, observer: LeveledEmulator(
        net,
        SPACE,
        mode="crcw",
        seed=EMULATOR_SEED,
        engine="fast",
        observer=observer,
        **kwargs,
    )


def _zipf():
    return ZipfKeys(SPACE, 1.1)


# ---- the closed-batch application workload ----------------------------------


def build_app_inputs(seed: int):
    """(spec, oracle labels) for both applications, from the seed."""
    graph = gnp_graph(128, 0.04, seed=seed)
    lts = random_lts(64, 2, seed=seed + 1)
    return [
        (connected_components(graph), connected_components_oracle(graph)),
        (bisimulation(lts), bisimulation_oracle(lts)),
    ]


def replay_app(spec, expected, network: str, observer):
    """`repro.apps.run_app` minus the `AppRun` record, which drops the
    per-step costs the latency percentiles need."""
    emulator = build_emulator(
        network,
        spec.n_procs,
        spec.memory_size,
        emulator_mode="erew" if spec.mode is AccessMode.EREW else "crcw",
        engine="fast",
        seed=EMULATOR_SEED,
        observer=observer,
    )
    result = replay.replay_program(spec, emulator)
    labels = [emulator.memory.read(i) for i in range(len(expected))]
    return result, labels == list(expected)


def _summarise_apps(runs) -> Outcome:
    """Closed batch: a request's latency is the network cost of its PRAM step."""
    problems, rows, modes = [], [], {}
    step_cost, step_requests, norm = [], [], []
    failed = cells = 0
    for name, network, result, oracle_match in runs:
        costs = result.report.costs
        if not (result.memory_matches and oracle_match):
            problems.append(
                f"{name} on {network}: memory_matches={result.memory_matches} "
                f"oracle_match={oracle_match}"
            )
            # a wrong application result fails every request that run served
            failed += sum(c.requests for c in costs)
        for c in costs:
            for m in c.run_modes:
                modes[m] = modes.get(m, 0) + 1
        step_cost += [c.total_steps for c in costs]
        step_requests += [c.requests for c in costs]
        norm.append(result.slowdown / result.report.scale)
        cells += result.cells_checked
        rows.append(
            {
                "app": name,
                "network": network,
                "costs": [
                    (c.request_steps, c.reply_steps, c.requests, c.combines)
                    for c in costs
                ],
                "memory_matches": result.memory_matches,
                "oracle_match": oracle_match,
            }
        )
    if set(modes) - VECTORIZED_MODES:
        problems.append(f"engine fell back: {modes}")
    requests = sum(step_requests)
    per_request = np.repeat(step_cost, step_requests)
    return Outcome(
        attempted=requests,
        failed=failed,
        delivered=requests,
        net_steps=sum(step_cost),
        norm_slowdown=sum(norm) / len(norm),
        sojourn_mean=float(per_request.mean()),
        digest=_digest(rows),
        problems=problems,
        run_modes=modes,
        layer_counts={
            "traffic.sojourn_steps_p50": float(np.percentile(per_request, 50)),
            "traffic.sojourn_steps_p99": float(np.percentile(per_request, 99)),
            "traffic.sojourn_samples": requests,
            "emulation.replay.cells_checked": cells,
        },
    )


def _prepare_apps(seed: int, observer):
    # Warm-up: one tiny application through both networks.
    tiny = gnp_graph(16, 0.2, seed=seed)
    for network in APP_NETWORKS:
        replay_app(
            connected_components(tiny), connected_components_oracle(tiny), network, None
        )

    def timed():
        runs = []
        for spec, expected in build_app_inputs(seed):
            for network in APP_NETWORKS:
                result, oracle_match = replay_app(spec, expected, network, observer)
                runs.append((spec.name, network, result, oracle_match))
        return runs

    return Prepared(timed, _summarise_apps)


# ---- the table --------------------------------------------------------------

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "mesh_crcw_zipf",
        "32x32 mesh, CRCW, Poisson 0.5/proc, Zipf(1.1), 20 epochs: the paper's 4n+o(n) claim; "
        "~500-packet batches with combining, per-step engine dispatch dominates",
        "4 + o(1)",
        _online(
            topology=lambda: Mesh2D.square(32),
            emulator=_mesh("crcw"),
            source=_poisson(0.5),
            keys=_zipf,
            epochs=20,
        ),
    ),
    Workload(
        "mesh_erew_hot",
        "same mesh, EREW, Poisson 1.2/proc Zipf, 15 epochs: no combining, two router calls a step, "
        "exclusive admission over a growing backlog - driver and packet build at their largest share",
        "4 + o(1)",
        _online(
            topology=lambda: Mesh2D.square(32),
            emulator=_mesh("erew"),
            source=_poisson(1.2),
            keys=_zipf,
            epochs=15,
            overflow="defer",
        ),
    ),
    Workload(
        "star_crcw_zipf",
        "star logical network n=7 (5040 procs, 12 levels), Poisson 0.5/proc Zipf, 5 epochs: "
        "~2.5k-packet batches, so per-packet work and path construction dominate, not per-step overhead",
        "O(1)",
        _online(
            topology=lambda: StarLogicalLeveled(7),
            emulator=_leveled(),
            source=_poisson(0.5),
            keys=_zipf,
            epochs=5,
        ),
    ),
    Workload(
        "bfly_small_steps",
        "32-proc binary butterfly, Poisson 0.5/proc uniform keys, 250 epochs: ~16-packet batches "
        "make fixed per-call overhead the whole cost; a vectorisation win must not move this row",
        "O(1)",
        _online(
            topology=lambda: DAryButterflyLeveled(2, 5),
            emulator=_leveled(),
            source=_poisson(0.5),
            keys=lambda: UniformKeys(SPACE),
            epochs=250,
        ),
    ),
    Workload(
        "bfly_credit_bursty",
        "1024-proc butterfly, node_capacity=2 + credit flow control, on/off bursts 1.6/0.2 per proc, "
        "16 epochs: Corollary 3.3's O(1)-buffer regime, the only row in batch-constrained and escape",
        "O(1)",
        _online(
            topology=lambda: DAryButterflyLeveled(2, 10),
            emulator=_leveled(node_capacity=2, flow_control="credit"),
            source=_bursty,
            keys=_zipf,
            epochs=16,
        ),
    ),
    Workload(
        "sharded_tenants",
        "4 shards x 256-proc butterfly behind gold/silver/bronze quota admission, Poisson 0.35/proc "
        "per tenant, 35 epochs: scatter/gather, QoS admission and per-tenant telemetry",
        "O(1)",
        _online(
            topology=lambda: DAryButterflyLeveled(2, 8),
            emulator=_sharded,
            source=_tenants,
            keys=_zipf,
            epochs=35,
            driver=_tenant_driver,
        ),
    ),
    Workload(
        "apps_replay",
        "closed batch: connected components (G(128,0.04)) and bisimulation (64-state LTS) replayed "
        "on butterfly and mesh with oracle checks - the only row where pram and replay do the work",
        "O(1) leveled, 4 + o(1) mesh",
        _prepare_apps,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
