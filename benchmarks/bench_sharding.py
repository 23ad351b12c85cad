"""Sharded memory service benchmark: scatter/gather rows -> BENCH_sharding.json.

Exercises :mod:`repro.sharding` end to end at production-ish scale: a
2^20-address space (>= 10^6 cells, the ISSUE floor) partitioned over
shards in {1, 4, 16} leveled-network emulators, driven by a
three-tenant QoS workload (gold > silver > bronze with per-epoch
quotas) under two key mixes — uniform and Zipf — through the
:class:`~repro.sharding.MultiTenantOnlineEmulator` admission queue.

Structural gates (seed-independent invariants):

* **per-tenant conservation** — every row, every tenant:
  ``arrivals == delivered + dropped + timed_out + dead_lettered +
  backlog``;
* **quota enforcement** — no epoch delivers more than a tenant's quota;
* **shards=1 bit-identity** — the single-shard service run must match
  an *unsharded* emulator built from the same derived seed, report
  field for report field (the scatter/gather front end adds zero
  behaviour at N=1);
* **no silent fallback** — every epoch dispatches to a vectorized
  engine mode;
* **QoS ordering** — under overload, gold's delivered count and p99
  sojourn dominate bronze's.

Every row is a pure function of the committed seeds, so the baseline
gate compares deterministic service metrics with a tolerance that only
absorbs RNG-stream drift between numpy versions, not host speed.

Not collected by pytest (file name is not ``test_*``); run directly:

    PYTHONPATH=src python benchmarks/bench_sharding.py --out BENCH_sharding.json
    PYTHONPATH=src python benchmarks/bench_sharding.py \
        --check-baseline BENCH_sharding.json
"""

from __future__ import annotations

import json

import gate
from repro.emulation import LeveledEmulator
from repro.sharding import (
    MultiTenantOnlineEmulator,
    MultiTenantWorkload,
    ShardedEmulator,
    TenantPolicy,
)
from repro.topology import DAryButterflyLeveled
from repro.traffic import PoissonArrivals, UniformKeys, WorkloadGenerator, ZipfKeys

#: engine modes an online epoch is allowed to dispatch to
VECTORIZED_MODES = {"batch", "batch-constrained"}

SPACE = 1 << 20  # 1,048,576 addresses (>= 10^6)
SHARD_COUNTS = (1, 4, 16)
EPOCHS = 30
EM_SEED = 11
POLICIES = (
    TenantPolicy("gold", qos="gold", quota=32),
    TenantPolicy("silver", qos="silver", quota=24),
    TenantPolicy("bronze", qos="bronze", quota=16),
)


def _make_workload(mix: str, n_procs: int) -> MultiTenantWorkload:
    """Three QoS tenants at equal offered rate, uniform or Zipf keys."""

    def keys():
        if mix == "uniform":
            return UniformKeys(SPACE)
        return ZipfKeys(SPACE, exponent=1.1)

    # ~1.05x the admit capacity in total, so admission must arbitrate.
    rate = 0.35 * n_procs
    return MultiTenantWorkload(
        {
            p.tenant: WorkloadGenerator(
                n_procs,
                arrivals=PoissonArrivals(rate),
                keys=keys(),
                seed=100 + i,
            )
            for i, p in enumerate(POLICIES)
        }
    )


def _run_row(mix: str, n_shards: int, net) -> dict:
    """One (tenant mix, shard count) cell -> one JSON row."""

    def make_shard(index, seed):
        return LeveledEmulator(net, SPACE, mode="crcw", seed=seed, engine="fast")

    service = ShardedEmulator(make_shard, n_shards, SPACE, seed=EM_SEED)
    n_procs = service.n_processors
    workload = _make_workload(mix, n_procs)
    driver = MultiTenantOnlineEmulator(service, workload, policies=POLICIES)
    report = driver.run(EPOCHS)

    quota = {p.tenant: p.quota for p in POLICIES}
    quota_violations = sum(
        1
        for e in report.epochs
        for t, n in e.by_tenant("delivered").items()
        if quota.get(t) is not None and n > quota[t]
    )
    modes = report.run_mode_counts()
    fallback = {m: c for m, c in modes.items() if m not in VECTORIZED_MODES}
    tq = report.tenant_sojourn_percentiles(qs=(50.0, 99.0))
    totals = report.tenant_totals()

    unsharded_match = None
    if n_shards == 1:
        # The single-shard service against a bare emulator built from
        # the same derived seed, same workload, same QoS driver: the
        # two telemetry dumps must be bit-identical.
        bare = LeveledEmulator(
            net, SPACE, mode="crcw", seed=service.shard_seeds[0], engine="fast"
        )
        bare_report = MultiTenantOnlineEmulator(
            bare, _make_workload(mix, n_procs), policies=POLICIES
        ).run(EPOCHS)
        unsharded_match = json.dumps(report.to_dict(), sort_keys=True) == (
            json.dumps(bare_report.to_dict(), sort_keys=True)
        )

    return {
        "scenario": f"sharded-{mix}-shards{n_shards}",
        "network": f"dary-butterfly(d=2, L=6) x {n_shards}",
        "shards": n_shards,
        "tenant_mix": mix,
        "address_space": SPACE,
        "epochs": EPOCHS,
        "delivered": report.total_delivered,
        "final_backlog": report.final_backlog,
        "total_steps": report.total_steps,
        "throughput_per_step": round(
            report.total_delivered / report.total_steps, 4
        )
        if report.total_steps
        else 0.0,
        "sojourn_p99": round(
            report.sojourn_percentiles(qs=(99.0,))["p99"], 1
        ),
        "tenant_delivered": {t: c["delivered"] for t, c in totals.items()},
        "tenant_backlog": {t: c["backlog"] for t, c in totals.items()},
        "tenant_p99": {t: round(v["p99"], 1) for t, v in tq.items()},
        "tenant_conservation_deficits": report.tenant_conservation_deficits(),
        "quota_violations": quota_violations,
        "run_modes": modes,
        "fallback_modes": fallback,
        "unsharded_match": unsharded_match,
    }


def run_suite() -> list[dict]:
    net = DAryButterflyLeveled(2, 6)
    rows: list[dict] = []
    for mix in ("uniform", "zipf"):
        for n_shards in SHARD_COUNTS:
            rows.append(_run_row(mix, n_shards, net))
            print(_render(rows[-1]))
    return rows


def structural_gates(rows: list[dict], check) -> None:
    """Seed-independent sanity gates, one ``check(cond, msg)`` each."""
    for r in rows:
        name = r["scenario"]
        check(
            all(v == 0 for v in r["tenant_conservation_deficits"].values()),
            f"{name}: per-tenant conservation "
            f"(deficits {r['tenant_conservation_deficits']})",
        )
        check(
            r["quota_violations"] == 0,
            f"{name}: no epoch exceeded a tenant quota",
        )
        check(
            not r["fallback_modes"],
            f"{name}: vectorized dispatch only (saw {r['run_modes']})",
        )
        if r["shards"] == 1:
            check(
                r["unsharded_match"] is True,
                f"{name}: bit-identical to the unsharded emulator",
            )
        gold, bronze = r["tenant_delivered"]["gold"], r["tenant_delivered"]["bronze"]
        check(
            gold >= bronze,
            f"{name}: gold delivered ({gold}) >= bronze ({bronze})",
        )
        check(
            r["tenant_p99"]["gold"] <= r["tenant_p99"]["bronze"],
            f"{name}: gold p99 ({r['tenant_p99']['gold']}) <= "
            f"bronze p99 ({r['tenant_p99']['bronze']})",
        )


def _render(row: dict) -> str:
    td = row["tenant_delivered"]
    return (
        f"{row['scenario']:28s} served={row['delivered']:<6d} "
        f"p99={row['sojourn_p99']:<8.0f} backlog={row['final_backlog']:<6d} "
        f"g/s/b={td.get('gold', 0)}/{td.get('silver', 0)}/{td.get('bronze', 0)}"
    )


def main(argv=None) -> int:
    return gate.main(
        argv,
        description=__doc__.splitlines()[0],
        out="BENCH_sharding.json",
        run_suite=run_suite,
        structural_gates=structural_gates,
        baseline_gate=gate.service_gate(32),
        benchmark="sharded-memory-service",
        note=(
            "two-level-hashed scatter/gather service over 2^20 addresses; "
            "three QoS tenants (gold/silver/bronze quotas 32/24/16); all "
            "metrics deterministic under the committed seeds"
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
