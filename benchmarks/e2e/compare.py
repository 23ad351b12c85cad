#!/usr/bin/env python3
"""Compare two result files of the suite: `compare.py PARENT.json CHANGE.json`.

Per workload and end-to-end metric, the rule of the choosing-metrics
guide:

* a **virtual**-clock metric and the `sim_digest` repeat exactly under a
  seed, so any difference is a behaviour change: `CHANGED`;
* a **host** metric is a `gain` only if the change wins at least nine
  tenths of the pairs (run i of one file against run i of the other; ties
  count for neither) *and* the medians differ by more than the parent's
  own inter-quartile distance;
* it is a `regression` if the change's median is worse than the parent's
  by more than the metric's bound;
* otherwise it is `unchanged` - unless either side's recorded spread
  (IQR / median) is wider than the bound, in which case the benchmark
  cannot tell and says `unresolved`.

Exit status 1 if anything CHANGED or regressed.  To produce the two
files, alternate which checkout runs first (`run.py --repeats 1 --out
...` in a loop, or two full suites back to back on a quiet machine).
"""

from __future__ import annotations

import json
import sys
from statistics import median, quantiles

from metrics import END_TO_END, HOST


def summarise(samples: list[float]) -> dict:
    """Sample count, median, quartiles and spread (IQR / median)."""
    mid = median(samples)
    q1, _, q3 = quantiles(samples, n=4) if len(samples) > 1 else (mid, mid, mid)
    return {
        "n": len(samples),
        "samples": samples,
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / mid if mid else 0.0,
    }


def worsening(metric, parent: float, change: float) -> float:
    """By what share of the parent's value the change is worse (< 0: better)."""
    delta = (change - parent) / parent
    return delta if metric.better == "lower" else -delta


def host_verdict(metric, parent: dict, change: dict) -> str:
    pairs = list(zip(parent["samples"], change["samples"]))
    wins = sum(worsening(metric, a, b) < 0 for a, b in pairs)
    worse = worsening(metric, parent["median"], change["median"])
    apart = abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
    if worse < 0 and apart and len(pairs) >= 10 and wins >= 0.9 * len(pairs):
        return "gain"
    if worse > metric.bound:
        return "regression"
    if max(parent["spread"], change["spread"]) > metric.bound:
        return "unresolved"
    return "unchanged"


def compare(parent: dict, change: dict) -> list[tuple[str, str, str, float, float]]:
    """(workload, metric, verdict, parent median, change median) rows."""
    rows = []
    for name, a in parent["workloads"].items():
        b = change["workloads"].get(name)
        if b is None:
            rows.append((name, "-", "MISSING", 0.0, 0.0))
            continue
        same = a["sim_digest"] == b["sim_digest"]
        rows.append((name, "sim_digest", "same" if same else "CHANGED", 0.0, 0.0))
        for metric in END_TO_END:
            ma, mb = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            if metric.clock == HOST:
                verdict = host_verdict(metric, ma, mb)
            else:
                verdict = "same" if set(ma["samples"]) == set(mb["samples"]) else "CHANGED"
            rows.append((name, metric.name, verdict, ma["median"], mb["median"]))
    return rows


def print_rows(rows) -> bool:
    """Print the comparison; True if nothing CHANGED, regressed or is missing."""
    for workload, metric, verdict, a, b in rows:
        print(f"{workload:20s} {metric:24s} {verdict:11s} {a:14.6g} {b:14.6g}")
    return not any(v in ("CHANGED", "regression", "MISSING") for _, _, v, _, _ in rows)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    with open(args[0]) as fa, open(args[1]) as fb:
        parent, change = json.load(fa), json.load(fb)
    print(f"{'workload':20s} {'metric':24s} {'verdict':11s} {'parent':>14s} {'change':>14s}")
    return 0 if print_rows(compare(parent, change)) else 1


if __name__ == "__main__":
    sys.exit(main())
