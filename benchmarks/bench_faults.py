"""Fault-injection benchmark: degraded-mode service -> BENCH_faults.json.

Sweeps the online mesh service (8x8 CRCW, hashed placement) over a
k-dead-modules grid — k in {0, 1, 4, 16} of 64 modules killed mid-run
at virtual step 40 — plus a link-flap scenario (two wires flapping
down/up while traffic flows).  Each row records the degraded-mode
telemetry ISSUE 6 adds:

* the exact conservation law (``arrivals == delivered + dropped +
  timed_out + dead_lettered + backlog``) — the deficit must be 0 in
  every row, killed modules or not;
* recovery time after the fault epoch (virtual steps until windowed
  throughput is back within 10% of the pre-fault level) — finite for
  every k on this grid;
* retry / timeout / dead-letter counters (all zero here: hashed
  placement rehashes around dead modules, so nothing is lost) and
  ``fault_stalls`` for the flap row (nonzero: a down link stalls
  traffic like a zero-credit link).

Dispatch is gated like BENCH_traffic.json: every epoch must run a
vectorized batch mode; the only extra run-mode label allowed is
``"fault-failfast"``, the zero-step NACK that detects a scheduled kill.

Every row is a pure function of the committed seeds (and the
differential contract makes it engine-independent), so the baseline
gate compares deterministic service metrics — p99 sojourn and per-step
throughput — not wall-clock.

Not collected by pytest (file name is not ``test_*``); run directly:

    PYTHONPATH=src python benchmarks/bench_faults.py --out BENCH_faults.json
    PYTHONPATH=src python benchmarks/bench_faults.py \
        --check-baseline BENCH_faults.json
"""

from __future__ import annotations

import gate
from repro.emulation import MeshEmulator
from repro.faults import FaultSchedule
from repro.topology import Mesh2D
from repro.traffic import DeterministicArrivals, OnlineEmulator, UniformKeys, WorkloadGenerator

#: engine modes an online epoch is allowed to dispatch to; the
#: fail-fast marker is a zero-step detection NACK, not a routing run
ALLOWED_MODES = {"batch", "batch-constrained", "fault-failfast"}

N_SIDE = 8
N = N_SIDE * N_SIDE
SPACE = 4 * N
EPOCHS = 40
KILL_STEP = 40
K_GRID = (0, 1, 4, 16)


def _dead_modules(k: int) -> list[int]:
    """k module ids spread across the mesh (deterministic)."""
    return [(4 * i + 1) % N for i in range(k)]


def _kill_schedule(k: int) -> FaultSchedule | None:
    if k == 0:
        return None
    sched = FaultSchedule()
    for m in _dead_modules(k):
        sched.kill_module(KILL_STEP, m)
    return sched


def _flap_schedule() -> FaultSchedule:
    """Two wires (both directions) flap down/up twice mid-run."""
    sched = FaultSchedule()
    for u, v in ((27, 28), (35, 43)):
        for lo, hi in ((40, 120), (200, 260)):
            sched.link_down(lo, (u, v)).link_down(lo, (v, u))
            sched.link_up(hi, (u, v)).link_up(hi, (v, u))
    return sched


def _run_scenario(scenario: str, faults, *, k_dead: int) -> dict:
    emulator = MeshEmulator(
        Mesh2D.square(N_SIDE),
        SPACE,
        mode="crcw",
        seed=11,
        engine="fast",
        faults=faults,
    )
    workload = WorkloadGenerator(
        N,
        arrivals=DeterministicArrivals(0.75 * N),
        keys=UniformKeys(SPACE),
        read_fraction=0.7,
        seed=7,
    )
    driver = OnlineEmulator(emulator, workload)
    report = driver.run(EPOCHS)

    modes = report.run_mode_counts()
    fallback = {m: c for m, c in modes.items() if m not in ALLOWED_MODES}
    ss = report.steady_state()
    recs = report.recovery_times()
    rec_steps = [r["recovery_steps"] for r in recs]
    recovered = bool(recs) and all(s is not None for s in rec_steps)
    hot = report.module_hotness(top=1)
    return {
        "scenario": scenario,
        "network": f"mesh({N_SIDE}x{N_SIDE})",
        "epochs": EPOCHS,
        "k_dead": k_dead,
        "delivered": report.total_delivered,
        "dropped": report.total_dropped,
        "timed_out": report.total_timed_out,
        "retried": report.total_retried,
        "dead_lettered": report.total_dead_lettered,
        "final_backlog": report.final_backlog,
        "conservation_deficit": report.conservation_deficit(),
        "total_steps": report.total_steps,
        "stall_steps": report.total_stall_steps,
        "fault_stalls": report.total_fault_stalls,
        "rehashes": report.total_rehashes,
        "deadlock_retries": report.total_deadlock_retries,
        "throughput_per_step": round(ss["throughput_per_step"], 4),
        "sojourn_p50": round(ss["sojourn_p50"], 1),
        "sojourn_p99": round(ss["sojourn_p99"], 1),
        "fault_events": len(report.fault_event_log),
        "recovered": recovered,
        "recovery_steps_max": max(
            (s for s in rec_steps if s is not None), default=None
        ),
        "hottest_module": list(hot[0]) if hot else None,
        "run_modes": modes,
        "fallback_modes": fallback,
    }


def run_suite() -> list[dict]:
    rows: list[dict] = []
    for k in K_GRID:
        rows.append(
            _run_scenario(f"mesh-crcw-kill-{k}", _kill_schedule(k), k_dead=k)
        )
        print(_render(rows[-1]))
    rows.append(_run_scenario("mesh-crcw-link-flap", _flap_schedule(), k_dead=0))
    print(_render(rows[-1]))
    return rows


def structural_gates(rows: list[dict], check) -> None:
    """Seed-independent gates, one ``check(cond, msg)`` each.

    * every row balances the conservation law exactly (deficit 0);
    * no row dispatches outside the allowed engine modes;
    * the fault-free row (k=0) loses nothing: no dead letters, no
      timeouts, no rehashes, no fault stalls;
    * every k >= 1 row detects its kills (fail-fast + rehash) and
      recovers: finite recovery time, zero dead letters — hashed
      placement re-homes every address away from the dead modules;
    * the link-flap row actually stalls on the downed wires and still
      delivers everything.
    """
    by_scenario = {r["scenario"]: r for r in rows}
    for r in rows:
        check(
            r["conservation_deficit"] == 0,
            f"{r['scenario']}: conservation deficit is 0",
        )
        check(
            not r["fallback_modes"],
            f"{r['scenario']}: allowed dispatch only (saw {r['run_modes']})",
        )
        check(
            r["dead_lettered"] == 0,
            f"{r['scenario']}: no request dead-lettered",
        )
    clean = by_scenario["mesh-crcw-kill-0"]
    for metric in ("timed_out", "rehashes", "fault_stalls", "fault_events"):
        check(clean[metric] == 0, f"k=0 row has zero {metric}")
    for k in K_GRID[1:]:
        r = by_scenario[f"mesh-crcw-kill-{k}"]
        check(
            r["run_modes"].get("fault-failfast", 0) >= 1,
            f"k={k}: scheduled kills were fail-fast-detected",
        )
        check(r["rehashes"] >= 1, f"k={k}: detection triggered a rehash")
        check(
            r["recovered"] and r["recovery_steps_max"] is not None,
            f"k={k}: finite recovery "
            f"(max {r['recovery_steps_max']} steps)",
        )
    flap = by_scenario["mesh-crcw-link-flap"]
    check(flap["fault_stalls"] > 0, "link-flap row records fault stalls")
    check(
        flap["delivered"] + flap["final_backlog"]
        == clean["delivered"] + clean["final_backlog"],
        "link-flap row accounts for the same arrivals as the clean row",
    )


def _render(row: dict) -> str:
    rec = row["recovery_steps_max"]
    return (
        f"{row['scenario']:24s} k={row['k_dead']:<3d} "
        f"served={row['delivered']:<6d} p99={row['sojourn_p99']:<8.0f} "
        f"rehashes={row['rehashes']:<3d} stalls={row['fault_stalls']:<5d} "
        f"dead={row['dead_lettered']:<3d} deficit={row['conservation_deficit']:<2d} "
        f"recovery={rec if rec is not None else '-'}"
    )


def main(argv=None) -> int:
    return gate.main(
        argv,
        description=__doc__.splitlines()[0],
        out="BENCH_faults.json",
        run_suite=run_suite,
        structural_gates=structural_gates,
        baseline_gate=gate.service_gate(36),
        benchmark="fault-injection",
        note=(
            "degraded-mode service under k dead modules and link flaps; "
            "all metrics deterministic under the committed seeds "
            "(engine-independent by the differential contract)"
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
