"""The whole suite: every workload, several runs each, one result file.

Each (workload, repeat) is one `run.py --workload ...` process, so every
sample pays its own import and starts from a cold interpreter; repeats
are interleaved round-robin across workloads so that slow drift of the
machine hits every row alike.  All runs of a workload use the same seed:
their virtual-clock metrics and `sim_digest` must be identical, and the
traced run's digest must equal the untraced ones (observed == unobserved,
checked from outside).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

import compare
import workloads
from metrics import END_TO_END, HOST, PER_LAYER
from tracing import LAYER_SELF_METRIC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
LATEST = HERE / "results" / "latest.json"


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One measured run in its own process -> its result + detail."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("#detail "):
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode} without a result\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2].removeprefix("#detail "))
    return result


def _commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
    }


def collect(names: list[str], args, sets: int = 1, trace: bool = True) -> tuple[list[dict], list[str]]:
    """Run everything; returns one result document per set and the list
    of output-check failures."""
    runs = [{name: [] for name in names} for _ in range(sets)]
    failures: list[str] = []

    def one(name: str, traced: bool) -> dict:
        result = run_once(name, args.seed, args.seconds, traced)
        label = f"{name}{' (traced)' if traced else ''}"
        print(f"  ran {label}: {result['detail']['units']} units", flush=True)
        if not result["correct"]:
            failures.extend(f"{label}: {p}" for p in result["detail"]["problems"])
        if result["failed"]:
            failures.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
        return result

    for repeat in range(args.repeats):
        for name in names:
            # two sets of the same code alternate which goes first
            order = range(sets) if repeat % 2 == 0 else reversed(range(sets))
            for which in order:
                runs[which][name].append(one(name, False))

    documents = []
    for which in range(sets):
        doc = {"env": environment(args), "workloads": {}}
        for name in names:
            plain = runs[which][name]
            digests = {r["detail"]["sim_digest"] for r in plain}
            entry = {
                "why": workloads.BY_NAME[name].why,
                "paper_bound": workloads.BY_NAME[name].paper_bound,
                "sim_digest": plain[0]["detail"]["sim_digest"],
                "attempted": plain[0]["attempted"],
                "failed": plain[0]["failed"],
                "end_to_end": {},
            }
            for metric in END_TO_END:
                entry["end_to_end"][metric.name] = {
                    "unit": metric.unit, "clock": metric.clock, "better": metric.better,
                    "bound": metric.bound, "what": metric.what,
                    **compare.summarise([r["metrics"][metric.name]["value"] for r in plain]),
                }
                varies = len(set(entry["end_to_end"][metric.name]["samples"])) > 1
                if metric.clock != HOST and varies:
                    failures.append(f"{name}: virtual-clock {metric.name} differs between repeats")
            if trace and which == 0:
                traced = one(name, True)
                entry["per_layer"] = {
                    m.name: {**traced["metrics"][m.name], "clock": m.clock, "moves": m.moves}
                    for m in PER_LAYER
                }
                digests.add(traced["detail"]["sim_digest"])
            if len(digests) != 1:
                failures.append(f"{name}: sim_digest differs between runs (traced or repeated)")
            doc["workloads"][name] = entry
        documents.append(doc)
    return documents, failures


def print_document(doc: dict) -> None:
    """Every metric by name with its unit; markdown, so the README's
    numbers table is this output."""
    for name, entry in doc["workloads"].items():
        print(f"\n### {name}  (sim_digest {entry['sim_digest'][:12]}, "
              f"{entry['failed']} of {entry['attempted']} failed, "
              f"paper bound on norm_slowdown: {entry['paper_bound']})\n")
        print("| metric | unit | clock | median | q1 | q3 | n | spread | bound | |")
        print("|---|---|---|---|---|---|---|---|---|---|")
        for metric in END_TO_END:
            m = entry["end_to_end"][metric.name]
            if metric.clock == HOST:
                note = "unresolved" if m["spread"] > metric.bound else "resolved"
            else:
                note = "exact"
            print(f"| `{metric.name}` | {metric.unit} | {metric.clock} | {m['median']:.6g} | "
                  f"{m['q1']:.6g} | {m['q3']:.6g} | {m['n']} | {m['spread']:.3f} | "
                  f"{metric.bound:g} | {note} |")
        for layer, m in entry.get("per_layer", {}).items():
            print(f"    {layer:48s} {m['value']:.6g} {m['unit']}")
    print_layer_shares(doc)


def print_layer_shares(doc: dict) -> None:
    """Where the timed region goes: each layer's self time as a share of
    their sum (the traced run's budget), one row per workload."""
    self_s = tuple(LAYER_SELF_METRIC.values())
    traced = {name: e["per_layer"] for name, e in doc["workloads"].items() if "per_layer" in e}
    if not traced:
        return
    print("\n### share of the timed region by layer (self time, traced run)\n")
    print("| workload | " + " | ".join(f"`{m.removesuffix('_s')}`" for m in self_s) + " |")
    print("|---|" + "---|" * len(self_s))
    for name, layers in traced.items():
        total = sum(layers[m]["value"] for m in self_s)
        print(f"| `{name}` | "
              + " | ".join(f"{layers[m]['value'] / total:.1%}" for m in self_s) + " |")


def main(args) -> int:
    names = args.only.split(",") if args.only else [w.name for w in workloads.WORKLOADS]
    unknown = [n for n in names if n not in workloads.BY_NAME]
    if unknown:
        sys.exit(f"run.py: unknown workloads {unknown}; pick from {sorted(workloads.BY_NAME)}")

    if args.selfcheck:
        (first, second), failures = collect(names, args, sets=2, trace=False)
        print("\nfirst set against second, then second against first:")
        agree = compare.print_rows(compare.compare(first, second))
        agree &= compare.print_rows(compare.compare(second, first))
        if not agree:
            failures.append("the two sets of the same code do not agree within the bounds")
    else:
        (doc,), failures = collect(names, args)
        print_document(doc)
        out = args.out or LATEST
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"\nwrote {out}")

    for failure in failures:
        print(f"OUTPUT CHECK FAILED: {failure}")
    return 1 if failures else 0
