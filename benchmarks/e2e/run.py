#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the PRAM emulation stack.

One measured run (what `BENCHMARK.json`'s command invokes):

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

repeats the workload's unit of work (set-up + timed region, identical
inputs drawn from `--seed`) for S seconds, checks every unit's outputs,
prints each metric by name with its unit and ends with one JSON line:
the end-to-end metrics with `--trace 0`, the per-layer metrics of the
traced units with `--trace 1` (which also writes
`results/trace_<workload>.json`).

Without `--workload` it runs the whole suite (`suite.py`): every workload
`--repeats` times in its own process, round-robin, then one traced run
each; prints the table and writes `results/latest.json`.  `--selfcheck`
runs two interleaved sets of the same code and fails unless they agree;
`--manifest` rewrites `BENCHMARK.json` from `metrics.py` and
`workloads.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter

_PROCESS_START = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"
#: fewest units a run reports medians over, however slow the machine
MIN_UNITS = 4
#: fresh interpreters started to time the import again (plus this process's own)
IMPORT_PROBES = 2
RUN_SECONDS = 15

# The load generator is this one process on one thread (the box has two
# cores); numpy reads these when it is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _import_program() -> float:
    """Put the program and this directory on the path and import both;
    returns the seconds it took (part of `setup_s`)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: the program under test is not at {ROOT / 'src' / 'repro'}")
    t0 = perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy  # noqa: F401
    import repro  # noqa: F401
    import workloads  # noqa: F401

    return perf_counter() - t0


def _rescaled_import(import_s: float) -> float:
    from calibrate import speed_factor

    speed_factor()  # the first pass also pays numpy's lazy initialisation
    return import_s / speed_factor()


def _probe_import() -> float:
    """What a fresh interpreter pays for the import, measured and
    rescaled there (cores change speed independently)."""
    import subprocess

    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe-import"],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def _cpu_seconds() -> float:
    """User + system CPU of this process and the children it has reaped,
    so a wall-clock gain bought with more processes or threads shows."""
    return sum(os.times()[:4])


def _run_unit(workload, seed: int, factor_before: float, traced: bool) -> dict:
    """One unit of work: set-up, then the timed region, each bracketed by
    the calibration kernel."""
    from calibrate import speed_factor

    tracer = observer = None
    if traced:
        import tracing
        from repro.obs import Observer

        tracer = tracing.Tracer()
        # the product's own profiler, for the engine's phase split only
        observer = Observer(metrics=False, tracing=False, profiling=True, flight_recorder=0)

    t0 = perf_counter()
    prepared = workload.prepare(seed, observer)
    setup_s = perf_counter() - t0
    factor_mid = speed_factor()

    with ExitStack() as stack:
        if traced:
            stack.enter_context(tracing.installed(tracer))
            stack.enter_context(tracer.span("timed_region", tracing.ROOT_LAYER))
        cpu0, t0 = _cpu_seconds(), perf_counter()
        raw = prepared.timed()
        wall_s, cpu_s = perf_counter() - t0, _cpu_seconds() - cpu0
    factor_after = speed_factor()

    outcome = prepared.summarise(raw)
    factor = (factor_mid + factor_after) / 2
    unit = {
        "traced": traced,
        "setup_s": setup_s / ((factor_before + factor_mid) / 2),
        "raw_wall_s": wall_s,
        "wall_s": wall_s / factor,
        "cpu_s": cpu_s / factor,
        "factor": factor,
        "factor_after": factor_after,
        "outcome": outcome,
    }
    if traced:
        layers = tracing.layer_metrics(tracer, observer.profile, outcome, prepared.compile_s)
        unit["layers"] = {
            name: value / factor if _is_host_time(name) else value
            for name, value in layers.items()
        }
        unit["spans"] = tracer.spans
    return unit


def _is_host_time(name: str) -> bool:
    from metrics import PER_LAYER_BY_NAME

    return PER_LAYER_BY_NAME[name].unit in ("s", "ms", "us", "ns")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One measured run; returns the result object plus a `detail` dict."""
    import resource
    from statistics import median

    imports = [_rescaled_import(_import_program())]
    import workloads
    from calibrate import speed_factor
    from metrics import END_TO_END, PER_LAYER

    if name not in workloads.BY_NAME:
        sys.exit(f"run.py: unknown workload {name!r}; pick from {sorted(workloads.BY_NAME)}")
    workload = workloads.BY_NAME[name]
    factor = speed_factor()

    units = []
    deadline = _PROCESS_START + seconds
    while len(units) < MIN_UNITS or perf_counter() < deadline:
        # a traced run alternates, so both kinds see the same machine
        unit = _run_unit(workload, seed, factor, traced=trace and len(units) % 2 == 1)
        factor = unit["factor_after"]
        units.append(unit)
        if len(imports) <= IMPORT_PROBES:
            imports.append(_probe_import())

    first = units[0]["outcome"]
    problems = [p for u in units for p in u["outcome"].problems]
    digests = {u["outcome"].digest for u in units}
    if len(digests) != 1:
        # same seed, same inputs: traced or not, every unit must agree
        problems.append(f"{len(digests)} different sim_digests across {len(units)} units")

    plain = [u for u in units if not u["traced"]]
    wall_s = median(u["wall_s"] for u in plain)
    values = {
        "setup_s": median(imports) + median(u["setup_s"] for u in units),
        "requests_per_s": first.delivered / wall_s,
        "cpu_s_per_kreq": median(u["cpu_s"] for u in plain) / first.delivered * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "norm_slowdown": first.norm_slowdown,
        "delivered_per_net_step": first.delivered / first.net_steps,
        "sojourn_steps_mean": first.sojourn_mean,
    }
    declared = END_TO_END
    if trace:
        import tracing

        traced = [u for u in units if u["traced"]]
        values = {
            key: median(u["layers"][key] for u in traced) for key in traced[0]["layers"]
        }
        values["host.raw_requests_per_s"] = first.delivered / median(u["raw_wall_s"] for u in plain)
        values["host.speed_factor"] = median(u["factor"] for u in units)
        values["obs.trace_overhead_ratio"] = median(u["wall_s"] for u in traced) / wall_s
        declared = PER_LAYER
        problems += tracing.layer_problems(name, values)
        tracing.write_chrome_trace(traced[-1]["spans"], name, HERE / "results" / f"trace_{name}.json")

    metrics = {m.name: {"value": float(values.get(m.name, 0.0)), "unit": m.unit} for m in declared}
    return {
        "correct": not problems,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": metrics,
        "detail": {
            "workload": name,
            "seed": seed,
            "units": len(units),
            "sim_digest": first.digest,
            "paper_bound": workload.paper_bound,
            "run_modes": first.run_modes,
            "problems": problems,
        },
    }


def _print_run(result: dict) -> None:
    detail = result.pop("detail")
    print(f"# {detail['workload']}  seed {detail['seed']}  {detail['units']} units  "
          f"paper bound on norm_slowdown: {detail['paper_bound']}")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for problem in detail["problems"]:
        print(f"OUTPUT CHECK FAILED: {problem}")
    # the suite reads this line; the driver reads only the last one
    print("#detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


def write_manifest() -> None:
    _import_program()
    import workloads
    from metrics import END_TO_END, PER_LAYER

    manifest = {
        "command": ["python3", str(Path(__file__).resolve().relative_to(ROOT))],
        "paths": [str(HERE.relative_to(ROOT))],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {MANIFEST}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="measure this one workload (omit to run the suite)")
    ap.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help=f"measuring time of one run (default {RUN_SECONDS})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from traced units")
    ap.add_argument("--repeats", type=int, default=5, help="suite: runs per workload (default 5)")
    ap.add_argument("--only", help="suite: comma-separated workload names")
    ap.add_argument("--out", type=Path, help="suite: result file (default results/latest.json)")
    ap.add_argument("--selfcheck", action="store_true",
                    help="suite: run two sets of the same code, fail unless they agree")
    ap.add_argument("--manifest", action="store_true", help="rewrite BENCHMARK.json and exit")
    ap.add_argument("--probe-import", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_import:
        print(_rescaled_import(_import_program()))
        return 0
    if args.manifest:
        write_manifest()
        return 0
    if args.workload:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        correct = result["correct"]
        _print_run(result)
        return 0 if correct else 1
    _import_program()
    import suite

    return suite.main(args)


if __name__ == "__main__":
    sys.exit(main())
