"""Observability overhead benchmark -> BENCH_obs.json.

Measures what `repro.obs` costs the emulation hot path in each of its
modes, on both networks (square mesh and binary butterfly), over a
seeded multi-step trace:

* ``disabled`` — ``observer=None``, the default: instrumented code
  with every hook behind a ``None`` check (the shipping configuration);
* ``null`` — an explicit :class:`~repro.obs.NullObserver` instance:
  same no-op semantics through the attribute-dispatch path;
* ``metrics`` — counters/gauges/histograms only (no tracing, no
  profiling, no flight recorder);
* ``full`` — everything on: metrics + spans on both clocks + per-phase
  engine profiling + the flight-recorder ring.

What is gated and what is only reported:

* **bit identity** (seed-exact, host-speed-safe; gated) — every
  configuration produces the identical emulation report; observation
  never changes the run.  Deterministic service metrics (total network
  steps, and the observer's own ``pram_steps_total`` /
  ``network_steps_total`` counters) are pinned by the
  ``--check-baseline`` gate.
* **overhead** (reported, never gated) — ratio of medians in one
  process, configurations interleaved round-robin within every repeat
  after a discarded warm-up round, so host speed and warm-up cancel.
  The ``null`` / ``disabled`` ratio used to be gated at 3 %, a
  threshold inside this benchmark's own run-to-run spread (0.98-1.10 on
  unchanged code); that "opting out is free" is pinned instead by a
  count that cannot flake — ``tests/test_obs.py`` runs unobserved steps
  with the wall clock rigged to raise, so the engines must read it zero
  times.

Not collected by pytest (file name is not ``test_*``); run directly:

    PYTHONPATH=src python benchmarks/bench_obs.py --out BENCH_obs.json
    PYTHONPATH=src python benchmarks/bench_obs.py \
        --check-baseline BENCH_obs.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

from repro.emulation import LeveledEmulator, MeshEmulator
from repro.obs import NullObserver, Observer
from repro.pram.trace import random_trace
from repro.topology import DAryButterflyLeveled, Mesh2D

#: timed rounds per scenario (each round runs every config once, after
#: one discarded warm-up round); medians absorb scheduler noise
REPEATS = 5

TRACE_STEPS = 12

CONFIGS = {
    "disabled": lambda: None,
    "null": lambda: NullObserver(),
    "metrics": lambda: Observer(
        metrics=True, tracing=False, profiling=False, flight_recorder=0
    ),
    "full": lambda: Observer(),
}


def _scenarios() -> dict:
    """name -> (emulator builder, processor count)."""
    return {
        "mesh-crcw": (
            lambda observer: MeshEmulator(
                Mesh2D.square(6), 256, mode="crcw", seed=5, observer=observer
            ),
            36,
        ),
        "leveled-crcw": (
            lambda observer: LeveledEmulator(
                DAryButterflyLeveled(2, 5), 256, mode="crcw", seed=5,
                observer=observer,
            ),
            32,
        ),
    }


def _time_once(build, n_procs, observer_factory) -> tuple[float, dict]:
    emu = build(observer_factory())
    trace = random_trace(n_procs, 256, TRACE_STEPS, seed=21, erew=False)
    t0 = time.perf_counter()
    report = emu.emulate_trace(trace)
    elapsed = time.perf_counter() - t0
    summary = {
        "total_steps": report.total_network_steps,
        "num_steps": report.pram_steps,
        "rehashes": report.total_rehashes,
    }
    obs = emu.observer
    if obs is not None and obs.metrics is not None:
        metrics = obs.metrics.snapshot()["metrics"]
        for name in ("pram_steps_total", "network_steps_total"):
            series = metrics[name]["series"]
            summary[name] = sum(s["value"] for s in series)
    return elapsed, summary


def run_suite() -> list[dict]:
    rows: list[dict] = []
    for scenario, (build, n_procs) in _scenarios().items():
        # Round-robin over the configs within each repeat, after one
        # discarded warm-up round: timing each config in its own block
        # charged import/allocator warm-up to whichever ran first
        # (``disabled``) and let a slow spell of the host land on one
        # config only.
        summaries: dict[str, dict] = {}
        times: dict[str, list[float]] = {config: [] for config in CONFIGS}
        for rep in range(REPEATS + 1):
            for config, factory in CONFIGS.items():
                elapsed, summaries[config] = _time_once(build, n_procs, factory)
                if rep:
                    times[config].append(elapsed)
        medians = {config: statistics.median(ts) for config, ts in times.items()}
        base = medians["disabled"]
        row = {
            "scenario": scenario,
            "trace_steps": TRACE_STEPS,
            "total_steps": summaries["disabled"]["total_steps"],
            "pram_steps_total": summaries["metrics"]["pram_steps_total"],
            "network_steps_total": summaries["metrics"]["network_steps_total"],
            "median_s": {k: round(v, 6) for k, v in medians.items()},
            "overhead_ratio": {
                k: round(medians[k] / base, 4) for k in CONFIGS if k != "disabled"
            },
            "summaries_identical": all(
                s["total_steps"] == summaries["disabled"]["total_steps"]
                and s["num_steps"] == summaries["disabled"]["num_steps"]
                and s["rehashes"] == summaries["disabled"]["rehashes"]
                for s in summaries.values()
            ),
        }
        rows.append(row)
        print(_render(row))
    return rows


def structural_gates(rows: list[dict]) -> int:
    """Seed-independent gates; returns the number of failures."""
    failures = 0

    def check(cond: bool, msg: str) -> None:
        nonlocal failures
        print(f"  {'ok' if cond else 'FAIL'}  {msg}")
        if not cond:
            failures += 1

    print("\nstructural gates:")
    for r in rows:
        key = r["scenario"]
        check(
            r["summaries_identical"],
            f"{key}: every observer config produces the identical report",
        )
        check(
            r["pram_steps_total"] == r["trace_steps"],
            f"{key}: metrics counted every PRAM step "
            f"({r['pram_steps_total']} == {r['trace_steps']})",
        )
        check(
            r["network_steps_total"] == r["total_steps"],
            f"{key}: network-step counter matches the report "
            f"({r['network_steps_total']} == {r['total_steps']})",
        )
    return failures


def check_baseline(rows: list[dict], baseline: dict) -> int:
    """Deterministic metrics must match the committed report exactly.

    Wall times and overhead ratios are host-dependent and stay out of
    the gate; the step counts are exact functions of the committed
    seeds, so any drift is a semantic change, not noise.
    """
    by_key = {r["scenario"]: r for r in baseline.get("scenarios", [])}
    failures = 0
    print("\nbaseline check (exact, deterministic metrics only):")
    for row in rows:
        base = by_key.get(row["scenario"])
        if base is None:
            print(f"  {row['scenario']:16s} not in baseline — skipped")
            continue
        for metric in ("total_steps", "pram_steps_total", "network_steps_total"):
            ok = base[metric] == row[metric]
            print(
                f"  {row['scenario']:16s} {metric:22s} "
                f"{base[metric]:8d} -> {row[metric]:8d} "
                f"{'ok' if ok else 'REGRESSED'}"
            )
            if not ok:
                failures += 1
    ran = {r["scenario"] for r in rows}
    for scenario in sorted(set(by_key) - ran):
        print(f"  {scenario:16s} in baseline but MISSING")
        failures += 1
    return failures


def _render(row: dict) -> str:
    ratios = " ".join(
        f"{k}={v:.3f}x" for k, v in row["overhead_ratio"].items()
    )
    return (
        f"{row['scenario']:16s} steps={row['total_steps']:<6d} "
        f"disabled={row['median_s']['disabled'] * 1e3:7.2f}ms  {ratios}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_obs.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--check-baseline",
        type=Path,
        default=None,
        metavar="BASELINE_JSON",
        help="compare the deterministic step counts against this committed "
        "report (exact match; wall times are never gated)",
    )
    args = parser.parse_args(argv)

    baseline = None
    if args.check_baseline is not None:
        baseline = json.loads(args.check_baseline.read_text())

    rows = run_suite()
    failures = structural_gates(rows)
    report = {
        "benchmark": "observability",
        "note": (
            "observer overhead by configuration (median of repeats with the "
            "configurations interleaved round-robin after one warm-up round, "
            "ratios vs observer=None in the same process, so host speed "
            "cancels) - reported, not gated; step counts are "
            "deterministic under the committed seeds and gated exactly"
        ),
        "scenarios": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    if baseline is not None:
        failures += check_baseline(rows, baseline)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
