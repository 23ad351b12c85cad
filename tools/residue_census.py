"""Census of the fast engine's contended residue on the e2e workloads.

The arrival phase (``repro.routing.fast_phases.enqueue``) places a
packet alone on an idle link through its solo lane; everything else —
a link shared within the step's batch, or one that already has waiters
— is the *contended residue*, resolved by a scalar lane when it has at
most ``SCALAR_RESIDUE_MAX`` arrivals and by a vectorized lane otherwise.
This tool measures the property that choice depends on: per workload,
one timed unit of ``benchmarks/e2e/workloads.py`` (imported read-only,
set-up and warm-up excluded), with ``enqueue`` wrapped from outside for
the duration of the unit.  It prints one markdown row per workload:

- ``net steps`` — network steps routed (``RoutingStats.steps`` summed),
- ``arrival phases`` — calls of ``enqueue`` (steps that place packets),
- ``with residue`` — the share of those calls whose batch has a residue,
- ``p50 / p90 / max`` — residue size over the calls that have one,
- ``vector lane`` — the share of those above ``SCALAR_RESIDUE_MAX``,
- ``absorptions`` — CRCW combines made in the arrival phase.

Run:  python tools/residue_census.py [--workload NAME ...] [--seed 7]
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
if str(ROOT / "benchmarks" / "e2e") not in sys.path:
    sys.path.append(str(ROOT / "benchmarks" / "e2e"))

import workloads  # noqa: E402  (benchmarks/e2e, read-only)
from repro.routing import DeadlockError, RoutingTimeout, fast_phases  # noqa: E402
from repro.routing.fast_engine import FastPathEngine  # noqa: E402

COLUMNS = (
    "workload", "net steps", "arrival phases", "with residue",
    "residue p50", "p90", "max", "vector lane", "absorptions",
)  # fmt: skip


class Census:
    """What the wrapped calls saw during one timed unit."""

    def __init__(self) -> None:
        self.net_steps = 0
        self.phases = 0
        self.residues: list[int] = []
        self.absorptions = 0

    def row(self, name: str) -> list[str]:
        sizes = np.asarray(self.residues or [0])
        crossover = fast_phases.SCALAR_RESIDUE_MAX
        return [
            name,
            str(self.net_steps),
            str(self.phases),
            f"{len(self.residues) / max(self.phases, 1):.0%}",
            f"{np.percentile(sizes, 50):g}",
            f"{np.percentile(sizes, 90):g}",
            str(int(sizes.max())),
            f"{(sizes > crossover).sum() / max(len(self.residues), 1):.0%}",
            str(self.absorptions),
        ]


def residue_size(s, f: np.ndarray) -> int:
    """Arrivals of a batch (cursors *f*) that are not alone on an idle
    link — counted before ``enqueue`` changes the state."""
    li = s.li_flat[f]
    _, inverse, counts = np.unique(li, return_inverse=True, return_counts=True)
    return int(((s.q_len[li] > 0) | (counts[inverse] > 1)).sum())


@contextmanager
def counting(census: Census):
    """Wrap ``fast_phases.enqueue`` and ``FastPathEngine.run`` for the
    block, then restore both."""
    enqueue = fast_phases.__dict__["enqueue"]
    run = FastPathEngine.__dict__["run"]

    def counted_enqueue(s, batch, f):
        census.phases += 1
        size = residue_size(s, f)
        if size:
            census.residues.append(size)
        before = s.combines
        try:
            return enqueue(s, batch, f)
        finally:
            census.absorptions += s.combines - before

    def counted_run(self, *args, **kwargs):
        try:
            stats = run(self, *args, **kwargs)
        except (DeadlockError, RoutingTimeout) as exc:  # it still routed its steps
            census.net_steps += exc.stats.steps
            raise
        census.net_steps += stats.steps
        return stats

    fast_phases.enqueue = counted_enqueue
    FastPathEngine.run = counted_run
    try:
        yield census
    finally:
        fast_phases.enqueue = enqueue
        FastPathEngine.run = run


def census_of(workload, seed: int) -> Census:
    prepared = workload.prepare(seed, None)
    with counting(Census()) as census:
        prepared.timed()
    return census


def main(argv=None) -> int:
    names = [w.name for w in workloads.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    chosen = [w for w in workloads.WORKLOADS if w.name in (args.workload or names)]
    print(f"seed {args.seed}, SCALAR_RESIDUE_MAX = {fast_phases.SCALAR_RESIDUE_MAX}")
    print("| " + " | ".join(COLUMNS) + " |")
    print("|" + "---|" * len(COLUMNS))
    for workload in chosen:
        row = census_of(workload, args.seed).row(workload.name)
        print("| " + " | ".join(row) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
