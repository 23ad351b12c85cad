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

import statistics
import time

import gate
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


def structural_gates(rows: list[dict], check) -> None:
    """Seed-independent gates, one ``check(cond, msg)`` each."""
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


def _render(row: dict) -> str:
    ratios = " ".join(
        f"{k}={v:.3f}x" for k, v in row["overhead_ratio"].items()
    )
    return (
        f"{row['scenario']:16s} steps={row['total_steps']:<6d} "
        f"disabled={row['median_s']['disabled'] * 1e3:7.2f}ms  {ratios}"
    )


def main(argv=None) -> int:
    # Wall times and overhead ratios are host-dependent and stay out of
    # the gate; the step counts are exact functions of the committed
    # seeds, so any drift is a semantic change, not noise.
    return gate.main(
        argv,
        description=__doc__.splitlines()[0],
        out="BENCH_obs.json",
        run_suite=run_suite,
        structural_gates=structural_gates,
        baseline_gate=gate.BaselineGate(
            key=("scenario",),
            head=(("scenario", 16),),
            metrics=("total_steps", "pram_steps_total", "network_steps_total"),
            metric_width=22,
            value_format="8d",
            tolerance=None,
        ),
        benchmark="observability",
        note=(
            "observer overhead by configuration (median of repeats with the "
            "configurations interleaved round-robin after one warm-up round, "
            "ratios vs observer=None in the same process, so host speed "
            "cancels) - reported, not gated; step counts are "
            "deterministic under the committed seeds and gated exactly"
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
