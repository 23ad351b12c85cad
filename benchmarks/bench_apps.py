"""Application benchmark: real algorithms end to end -> BENCH_apps.json.

Runs the two tentpole PRAM applications — Liu-Tarjan-Zhong-style
connected components (CRCW combining) and partition-refinement
bisimulation — plus the EREW matching-components variant, through the
full emulation stack on both networks (smallest binary butterfly and
smallest square mesh), over seeded input families (G(n,p), star, path,
bounded-degree, matching; random and cycle LTSs).

Each row reports the paper's claim made concrete:

* ``slowdown`` — mean network steps per PRAM step;
* ``normalized_slowdown`` — slowdown / network scale (leveled scale is
  the diameter Theta(log n), mesh scale the side Theta(sqrt n)); the
  emulation theorems bound this ratio by O(1);
* ``predicted_log`` — log2(N), the leveled overhead exponent, printed
  alongside so the O(log n) prediction is visible in the artifact;
* delivered-request and combining counters with the CRCW hit rate;
* the two correctness bits: trace-replay memory agreement and oracle
  agreement (union-find / sequential refinement), plus the race
  classification verdict for the app.

Every row is a pure function of the committed seeds (fast engine, but
the differential contract makes all metrics engine-independent), so
the baseline gate compares slowdowns exactly the way bench_faults
compares service metrics — deterministic, host-speed-safe.

Not collected by pytest (file name is not ``test_*``); run directly:

    PYTHONPATH=src python benchmarks/bench_apps.py --out BENCH_apps.json
    PYTHONPATH=src python benchmarks/bench_apps.py \
        --check-baseline BENCH_apps.json
"""

from __future__ import annotations

import gate
from repro.analysis.races import classify_program
from repro.apps import (
    bisimulation,
    bisimulation_oracle,
    bounded_degree_graph,
    connected_components,
    connected_components_oracle,
    cycle_lts,
    gnp_graph,
    matching_components,
    matching_graph,
    path_graph,
    random_lts,
    run_app,
    star_graph,
)

#: engine dispatch labels a benchmark run is allowed to report; the
#: application traces are rectangular per round, so everything must go
#: through the vectorized batch path
ALLOWED_MODES = {"batch"}

NETWORKS = ("leveled", "mesh")

#: scenario name -> (spec builder, oracle) over committed seeds
SCENARIOS = {
    "cc-gnp": lambda: _graph_case(connected_components, gnp_graph(16, 0.2, seed=7)),
    "cc-star": lambda: _graph_case(connected_components, star_graph(16)),
    "cc-path": lambda: _graph_case(connected_components, path_graph(16)),
    "cc-bounded-degree": lambda: _graph_case(
        connected_components, bounded_degree_graph(16, 3, seed=3)
    ),
    "cc-matching-erew": lambda: _graph_case(
        matching_components, matching_graph(16, seed=5)
    ),
    "bisim-random": lambda: _lts_case(random_lts(12, 2, seed=11)),
    "bisim-cycle": lambda: _lts_case(cycle_lts(12, marked=1)),
}


def _graph_case(build, graph):
    return build(graph), connected_components_oracle(graph)


def _lts_case(lts):
    return bisimulation(lts), bisimulation_oracle(lts)


def _run_scenario(scenario: str, network: str) -> dict:
    spec, oracle = SCENARIOS[scenario]()
    verdict = classify_program(spec).verdict
    run = run_app(spec, oracle, network=network, engine="fast", seed=0)
    return {
        "scenario": scenario,
        "app": run.app,
        "network": f"{network}({run.n_processors})",
        "emulator_mode": run.emulator_mode,
        "n_processors": run.n_processors,
        "pram_steps": run.pram_steps,
        "slowdown": round(run.slowdown, 4),
        "scale": run.scale,
        "normalized_slowdown": round(run.normalized_slowdown, 4),
        "predicted_log": round(run.predicted_log, 4),
        "requests": run.requests,
        "combines": run.combines,
        "combining_hit_rate": round(run.combining_hit_rate, 4),
        "run_modes": sorted(run.run_modes),
        "race_verdict": verdict,
        "memory_matches": run.memory_matches,
        "oracle_match": run.oracle_match,
    }


def run_suite() -> list[dict]:
    rows: list[dict] = []
    for scenario in SCENARIOS:
        for network in NETWORKS:
            rows.append(_run_scenario(scenario, network))
            print(_render(rows[-1]))
    return rows


def structural_gates(rows: list[dict], check) -> None:
    """Seed-independent gates, one ``check(cond, msg)`` each.

    * every emulated run reproduces its sequential oracle exactly and
      replays the native memory image cell for cell;
    * every app classifies race-free for its declared mode (verdict
      ``"exact"`` — zero race reports, mode neither over- nor
      under-declared);
    * every row dispatches vectorized only (``run_modes == ["batch"]``);
    * CRCW rows on the star input actually combine (hit rate > 0), and
      EREW rows never do;
    * normalized slowdown stays O(1): bounded by a generous constant on
      every network (the baseline gate pins the exact values).
    """
    for r in rows:
        key = f"{r['scenario']}/{r['network']}"
        check(r["oracle_match"], f"{key}: oracle agreement")
        check(r["memory_matches"], f"{key}: replay memory agreement")
        check(
            r["race_verdict"] == "exact",
            f"{key}: race classification exact (got {r['race_verdict']!r})",
        )
        check(
            set(r["run_modes"]) <= ALLOWED_MODES,
            f"{key}: vectorized dispatch only (saw {r['run_modes']})",
        )
        check(
            r["normalized_slowdown"] <= 16.0,
            f"{key}: normalized slowdown O(1) "
            f"(got {r['normalized_slowdown']})",
        )
        if r["emulator_mode"] == "erew":
            check(r["combines"] == 0, f"{key}: EREW row never combines")
    for r in rows:
        if r["scenario"] == "cc-star":
            check(
                r["combining_hit_rate"] > 0,
                f"cc-star/{r['network']}: hot-cell input exercises combining",
            )


def _render(row: dict) -> str:
    return (
        f"{row['scenario']:20s} {row['network']:14s} {row['emulator_mode']:4s} "
        f"slowdown={row['slowdown']:<8.2f} norm={row['normalized_slowdown']:<6.2f} "
        f"logN={row['predicted_log']:<5.2f} hit={row['combining_hit_rate']:<6.2f} "
        f"oracle={'ok' if row['oracle_match'] else 'FAIL'}"
    )


def main(argv=None) -> int:
    # Slowdowns are exact functions of the committed seeds, so the
    # tolerance only absorbs intentional routing-layer retunes.
    return gate.main(
        argv,
        description=__doc__.splitlines()[0],
        out="BENCH_apps.json",
        run_suite=run_suite,
        structural_gates=structural_gates,
        baseline_gate=gate.BaselineGate(
            key=("scenario", "network"),
            head=(("scenario", 24), ("network", 14)),
            metrics=("slowdown", "combining_hit_rate"),
            metric_width=20,
            value_format="8.3f",
            tolerance=0.30,
        ),
        benchmark="applications",
        note=(
            "real PRAM algorithms (connected components, bisimulation) "
            "replayed through the full emulation stack on both networks; "
            "slowdown is reported beside the paper's O(log n) prediction; "
            "all metrics deterministic under the committed seeds"
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
