#!/usr/bin/env python3
"""A/B pairs of the end-to-end benchmark: this working tree against a revision.

    python tools/ab.py --base REV --workload W [--pairs 10] [--seconds 15]
                       [--seed 7] [--out F.json]

Run from inside the repository.  REV's files are exported into a
temporary directory, ``repro-ab-<pid>-*`` (``git archive``, unpacked
with :mod:`tarfile`; removed on exit) — the repository's ``.git`` is
only read, so a run killed at any point leaves nothing registered in
it, and the next run removes the directory a killed one left behind
(:func:`sweep_dead_exports`).  The two trees'
benchmark command (``BENCHMARK.json``'s ``command``:
``benchmarks/e2e/run.py``) runs alternately, ``--workload W --seed S
--seconds T --trace 0``, the order flipped every pair: the base first in
pair 0, this tree first in pair 1, and so on.  Every child runs with
``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__`` in either tree
(both are cleared before each run):
``setup_s`` is mostly import time, and importing from a warm bytecode
cache takes a fraction of importing from source, so a warm cache on one
side would fake a ``setup_s`` change.

A run that fails its own output checks, or a pair whose two runs report
different ``sim_digest``\\s, stops the tool with exit status 1: the two
trees do not simulate the same thing, and no timing means anything.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the pairs this tree won and tied, and a verdict
(:func:`verdict`):

* the claimed metric (:data:`CLAIMED`) is a ``gain`` only if this tree wins
  at least nine tenths of at least ten pairs and the medians lie further
  apart, in its favour, than the base's interquartile range;
* any other metric — and a claimed one that is not a gain — is
  ``worse`` if this tree's median is worse than the base's by more than
  the metric's bound, ``unresolved`` if either side's spread (IQR /
  median) exceeds the bound, else ``within bound``.

Verdicts are reported, not enforced: ``--base HEAD`` measures a row's
noise floor, and one short pair is a smoke test of the command itself.
``--out`` writes the samples, summaries and verdicts as JSON.  Standard
library only.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

#: the metric a performance change claims: the benchmark's headline
CLAIMED = "requests_per_s"
#: the file in each export directory: it tells the directories this tool
#: made from another tool's, and its run holds it locked while it lives
MARKER = ".repro-ab-export"


def summary(samples: list[float]) -> dict:
    """Median, quartiles and spread (IQR / median) of *samples*."""
    mid = median(samples)
    q1, _, q3 = quantiles(samples, n=4) if len(samples) > 1 else (mid, mid, mid)
    return {
        "samples": samples,
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / mid if mid else 0.0,
    }


def verdict(
    base: list[float], change: list[float], better: str, bound: float, claimed: bool
) -> dict:
    """The pairs' wins and ties and the verdict for one metric (see the
    module docstring); ``base[i]`` and ``change[i]`` are pair i."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    ties = sum(a == b for a, b in pairs)
    a, b = summary(base), summary(change)
    gap = sign * (b["median"] - a["median"])
    enough = len(pairs) >= 10 and wins * 10 >= 9 * len(pairs)
    if claimed and enough and gap > a["q3"] - a["q1"]:
        said = "gain"
    else:
        worse = -gap / a["median"] if a["median"] else 0.0
        if worse > bound:
            said = "worse"
        elif max(a["spread"], b["spread"]) > bound:
            said = "unresolved"
        else:
            said = "within bound"
        if claimed:
            said = f"no gain ({said})"
    return {"base": a, "change": b, "wins": wins, "ties": ties, "verdict": said}


def git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(root), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(root: Path, rev: str, dest: Path) -> None:
    """Write revision *rev*'s files into the directory *dest*."""
    archive = subprocess.Popen(
        ["git", "-C", str(root), "archive", "--format=tar", rev], stdout=subprocess.PIPE
    )
    with archive, tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.returncode:
        raise SystemExit(f"ab.py: git archive {rev} failed (exit {archive.returncode})")


def sweep_dead_exports(tmp: Path) -> None:
    """Remove the exports in *tmp* that killed runs left behind: a
    ``repro-ab-<pid>-*`` directory holding :data:`MARKER` whose process
    is gone (``os.kill(pid, 0)`` sends nothing, it only asks) and whose
    marker no process holds locked — a live run in another PID
    namespace sharing *tmp* still holds its lock.  Anything else in
    *tmp* is left alone."""
    for marker in tmp.glob(f"repro-ab-*-*/{MARKER}"):
        pid = marker.parent.name.split("-")[2]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
            continue  # alive
        except ProcessLookupError:
            pass
        except PermissionError:  # alive, another user's
            continue
        try:
            with open(marker, "a") as held:
                fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:  # locked by a live run, or not ours to open
            continue
        shutil.rmtree(marker.parent, ignore_errors=True)


def clear_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: Path, command: list[str], args) -> tuple[dict, str]:
    """One benchmark run in *tree*: ``(metric values, sim_digest)``;
    ``SystemExit`` if it fails."""
    clear_bytecode(tree)
    argv = [sys.executable, *command[1:], "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    tag = "#detail "
    details = [json.loads(line[len(tag) :]) for line in lines if line.startswith(tag)]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if done.returncode or result is None or not result.get("correct") or not details:
        tail = "\n".join((done.stdout + done.stderr).strip().splitlines()[-15:])
        raise SystemExit(f"ab.py: the run in {tree} failed (exit {done.returncode}):\n{tail}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, details[-1]["sim_digest"]


def measure(root: Path, base: Path, manifest: dict, args) -> tuple[dict, str]:
    """``--pairs`` alternating pairs: per side, per metric, the samples;
    and the one ``sim_digest`` every run reported."""
    trees = {"base": base, "change": root}
    samples: dict = {side: {} for side in trees}
    digest = None
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        seen = {}
        for side in order:
            values, seen[side] = run_once(trees[side], manifest["command"], args)
            for name, value in values.items():
                samples[side].setdefault(name, []).append(value)
        if seen["base"] != seen["change"]:
            raise SystemExit(
                f"ab.py: pair {i}: sim_digest {seen['base']} (base) != "
                f"{seen['change']} (this tree): the trees simulate different things"
            )
        digest = seen["base"]
        print(f"# pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    return samples, digest


def report(manifest: dict, samples: dict) -> dict:
    """Per end-to-end metric of *manifest*, its :func:`verdict`."""
    rows = {}
    for m in manifest["end_to_end"]:
        name = m["name"]
        rows[name] = verdict(
            samples["base"][name], samples["change"][name], m["better"], m["bound"],
            claimed=name == CLAIMED,
        )  # fmt: skip
    return rows


def print_table(rows: dict, head: str) -> None:
    print(head)
    print(f"{'metric':24s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
          f" {'wins':>5s} {'ties':>5s}  verdict")  # fmt: skip
    for name, row in rows.items():
        cells = [
            f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"
            for s in (row["base"], row["change"])
        ]
        print(f"{name:24s} {cells[0]:>34s} {cells[1]:>34s} {row['wins']:5d} "
              f"{row['ties']:5d}  {row['verdict']}")  # fmt: skip


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the revision to compare against")
    ap.add_argument("--workload", required=True, help="one workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10, help="alternating pairs (default 10)")
    ap.add_argument("--seconds", type=float, default=15, help="seconds per run (default 15)")
    ap.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    ap.add_argument("--out", type=Path, help="write the samples and verdicts here as JSON")
    args = ap.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; pick from {workloads}")
    rev = git(root, "rev-parse", "--verify", f"{args.base}^{{commit}}")
    sweep_dead_exports(Path(tempfile.gettempdir()))
    with (
        tempfile.TemporaryDirectory(prefix=f"repro-ab-{os.getpid()}-") as base,
        open(Path(base) / MARKER, "w") as marker,
    ):
        fcntl.flock(marker, fcntl.LOCK_EX)  # held until the run ends, however it ends
        export(root, rev, Path(base))
        samples, digest = measure(root, Path(base), manifest, args)
    rows = report(manifest, samples)
    print_table(
        rows,
        f"# {args.workload}  seed {args.seed}  {args.pairs} pairs of {args.seconds:g} s  "
        f"base {rev[:12]} vs this tree  sim_digest {digest[:16]} in every pair",
    )
    if args.out is not None:
        out = dict(
            base=rev, workload=args.workload, seed=args.seed, pairs=args.pairs,
            seconds=args.seconds, claim=CLAIMED, sim_digest=digest, metrics=rows,
        )  # fmt: skip
        args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
