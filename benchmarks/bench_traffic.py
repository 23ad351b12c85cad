"""Online-traffic benchmark: open-loop service scenarios -> BENCH_traffic.json.

Exercises the traffic subsystem (:mod:`repro.traffic`) end to end on
the uniform-vs-Zipf x sub-saturation-vs-saturation grid the closed-batch
benchmarks cannot express:

* **mesh EREW rows** — exclusive memory access serializes hot
  addresses to one touch per epoch, so at *equal offered load* the
  Zipf-hotspot row shows far higher p99 sojourn latency (and a growing
  backlog) than the uniform row: Hanlon-style contention on a large
  memory built from small modules, measured online.
* **leveled CRCW rows** — the same skew contrast with combining
  enabled: hashing + combining absorb the hot set (Theorem 2.6 doing
  its job), so Zipf p99 stays comparable to uniform.
* **bursty credit row** — an on/off MMPP source over a
  capacity-bounded, credit-flow-controlled leveled emulator with a
  bounded drop-tail admission queue: drops, backlog, and
  ``credits_stalled`` all nonzero.

All scenarios run ``engine="fast"`` and must dispatch every epoch to a
vectorized batch mode — a ``"reference"`` entry in a dispatch history
fails the run (the no-silent-fallback gate).

Every row is a pure function of its seeds (the generators pre-draw all
randomness), so the gate against the committed baseline compares
deterministic service metrics — p99 sojourn and per-step throughput —
with a tolerance that only needs to absorb RNG-stream drift between
numpy versions, not host speed.

The whole suite takes a couple of seconds, so CI runs it at full size —
no ``--quick`` subset exists (a size-reduced run could not be compared
against the committed full-size baseline anyway).

Not collected by pytest (file name is not ``test_*``); run directly:

    PYTHONPATH=src python benchmarks/bench_traffic.py --out BENCH_traffic.json
    PYTHONPATH=src python benchmarks/bench_traffic.py \
        --check-baseline BENCH_traffic.json
"""

from __future__ import annotations

import gate
from repro.emulation import LeveledEmulator, MeshEmulator
from repro.topology import DAryButterflyLeveled, Mesh2D
from repro.traffic import (
    BurstyArrivals,
    OnlineEmulator,
    PoissonArrivals,
    UniformKeys,
    WorkloadGenerator,
    ZipfKeys,
)

#: engine modes an online epoch is allowed to dispatch to
VECTORIZED_MODES = {"batch", "batch-constrained"}


def _run_scenario(
    scenario: str,
    network: str,
    make_emulator,
    keys_fn,
    *,
    n_procs: int,
    rate: float,
    epochs: int,
    arrivals=None,
    queue_limit: int | None = None,
    overflow: str = "defer",
    em_seed: int = 11,
    wl_seed: int = 7,
) -> dict:
    """One scenario -> one JSON row (plus the no-fallback dispatch gate)."""
    emulator = make_emulator()
    if arrivals is None:
        arrivals = PoissonArrivals(rate)
    elif hasattr(arrivals, "mean_rate"):
        rate = arrivals.mean_rate()  # record the true long-run offered rate
    workload = WorkloadGenerator(
        n_procs,
        arrivals=arrivals,
        keys=keys_fn(),
        seed=wl_seed,
    )
    driver = OnlineEmulator(
        emulator, workload, queue_limit=queue_limit, overflow=overflow
    )
    report = driver.run(epochs)
    modes = report.run_mode_counts()
    fallback = {m: c for m, c in modes.items() if m not in VECTORIZED_MODES}
    ss = report.steady_state()
    return {
        "scenario": scenario,
        "network": network,
        "epochs": epochs,
        "offered_rate": rate,
        "delivered": report.total_delivered,
        "dropped": report.total_dropped,
        "final_backlog": report.final_backlog,
        "total_steps": report.total_steps,
        "rehashes": report.total_rehashes,
        "throughput_per_step": round(ss["throughput_per_step"], 4),
        "sojourn_p50": round(ss["sojourn_p50"], 1),
        "sojourn_p95": round(ss["sojourn_p95"], 1),
        "sojourn_p99": round(ss["sojourn_p99"], 1),
        "mean_backlog": round(ss["mean_backlog"], 1),
        "credits_stalled": int(ss["credits_stalled"]),
        "saturated": bool(ss["saturated"]),
        "run_modes": modes,
        "fallback_modes": fallback,
    }


def run_suite() -> list[dict]:
    n_side = 16
    epochs = 40
    mesh = Mesh2D.square(n_side)
    n = mesh.num_nodes
    space = 4 * n

    def mesh_emulator():
        return MeshEmulator(mesh, space, mode="erew", seed=11, engine="fast")

    rows: list[dict] = []
    grid = [
        ("uniform", 0.5, lambda: UniformKeys(space)),
        ("uniform", 1.2, lambda: UniformKeys(space)),
        ("zipf", 0.5, lambda: ZipfKeys(space, exponent=1.1)),
        ("zipf", 1.2, lambda: ZipfKeys(space, exponent=1.1)),
    ]
    # The uniform/Zipf x sub-saturation/saturation grid on the EREW
    # mesh: exclusive access serializes hot addresses, so the Zipf rows
    # measure hotspot contention at the *same* offered load.
    for kind, frac, keys_fn in grid:
        label = "subsat" if frac < 1.0 else "saturation"
        rows.append(
            _run_scenario(
                f"mesh-erew-{kind}-{label}",
                f"mesh({n_side}x{n_side})",
                mesh_emulator,
                keys_fn,
                n_procs=n,
                rate=frac * n,
                epochs=epochs,
            )
        )
        print(_render(rows[-1]))

    # CRCW leveled contrast: combining + hashing absorb the same skew.
    d, levels = 2, 8
    net = DAryButterflyLeveled(d, levels)
    ln = net.column_size
    lspace = 4 * ln

    def leveled_emulator():
        return LeveledEmulator(net, lspace, mode="crcw", seed=11, engine="fast")

    for kind, keys_fn in [
        ("uniform", lambda: UniformKeys(lspace)),
        ("zipf", lambda: ZipfKeys(lspace, exponent=1.1)),
    ]:
        rows.append(
            _run_scenario(
                f"leveled-crcw-{kind}-subsat",
                f"dary-butterfly(d={d}, L={levels})",
                leveled_emulator,
                keys_fn,
                n_procs=ln,
                rate=0.5 * ln,
                epochs=epochs,
            )
        )
        print(_render(rows[-1]))

    # Bursty saturation under O(1) buffers: MMPP source, credit flow
    # control, bounded drop-tail admission queue.
    def credit_emulator():
        return LeveledEmulator(
            net,
            lspace,
            mode="crcw",
            seed=11,
            engine="fast",
            node_capacity=2,
            flow_control="credit",
        )

    rows.append(
        _run_scenario(
            "leveled-crcw-bursty-credit-drop",
            f"dary-butterfly(d={d}, L={levels}) cap=2",
            credit_emulator,
            lambda: ZipfKeys(lspace, exponent=1.1),
            n_procs=ln,
            rate=0.0,  # recorded as the MMPP's stationary mean_rate()
            epochs=epochs,
            arrivals=BurstyArrivals(
                3.0 * ln, 0.2 * ln, p_exit_on=0.25, p_exit_off=0.25
            ),
            queue_limit=2 * ln,
            overflow="drop",
        )
    )
    print(_render(rows[-1]))
    return rows


def structural_gates(rows: list[dict], check) -> None:
    """Seed-independent sanity gates, one ``check(cond, msg)`` each.

    * no scenario may dispatch to a non-vectorized engine mode;
    * the mesh Zipf sub-saturation row must show measurably (>= 1.5x)
      higher p99 sojourn than the uniform row at equal offered load;
    * saturation rows must report saturation, the uniform
      sub-saturation row must not;
    * the drop-policy row must actually drop.
    """
    by_scenario = {r["scenario"]: r for r in rows}
    for r in rows:
        check(
            not r["fallback_modes"],
            f"{r['scenario']}: vectorized dispatch only "
            f"(saw {r['run_modes']})",
        )
    uni = by_scenario["mesh-erew-uniform-subsat"]
    zipf = by_scenario["mesh-erew-zipf-subsat"]
    check(
        zipf["sojourn_p99"] >= 1.5 * uni["sojourn_p99"],
        f"zipf hotspot p99 ({zipf['sojourn_p99']}) >= 1.5x uniform p99 "
        f"({uni['sojourn_p99']}) at equal offered load",
    )
    check(not uni["saturated"], "uniform sub-saturation row is not saturated")
    for name in ("mesh-erew-uniform-saturation", "mesh-erew-zipf-saturation"):
        check(by_scenario[name]["saturated"], f"{name} reports saturation")
    drop = by_scenario["leveled-crcw-bursty-credit-drop"]
    check(drop["dropped"] > 0, "bounded-queue drop row drops arrivals")
    check(drop["credits_stalled"] > 0, "credit row records credit stalls")


def _render(row: dict) -> str:
    return (
        f"{row['scenario']:36s} {row['network']:28s} "
        f"served={row['delivered']:<6d} p50={row['sojourn_p50']:<8.0f} "
        f"p99={row['sojourn_p99']:<8.0f} backlog={row['final_backlog']:<6d} "
        f"drops={row['dropped']:<5d} sat={int(row['saturated'])}"
    )


def main(argv=None) -> int:
    return gate.main(
        argv,
        description=__doc__.splitlines()[0],
        out="BENCH_traffic.json",
        run_suite=run_suite,
        structural_gates=structural_gates,
        baseline_gate=gate.service_gate(36),
        benchmark="online-traffic",
        note=(
            "open-loop service scenarios; all metrics deterministic under "
            "the committed seeds (engine-independent by the differential "
            "contract)"
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
