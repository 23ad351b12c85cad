"""Census of the fast engine's lanes and contended residue on the e2e workloads.

``FastPathEngine.run`` steps a run of at most ``SCALAR_RUN_MAX`` packets
with no node capacity and no link-fault view on Python lists (the
*scalar lane*, ``repro.routing.fast_scalar``) and every other run on
numpy tables (the *vector lane*).  Within the vector lane, the arrival
phase (``repro.routing.fast_phases.enqueue``) places a packet alone on
an idle link through its solo lane; everything else — a link shared
within the step's batch, or one that already has waiters — is the
*contended residue*, resolved by a scalar walk when it has at most
``SCALAR_RESIDUE_MAX`` arrivals and by numpy calls otherwise.  A vector
run without node capacity or link faults whose arrival phase leaves no
link with a waiter jumps the steps that stay that way
(``repro.routing.fast_phases.free_flow``).  This tool measures the
properties those choices depend on: per workload, one timed unit of
``benchmarks/e2e/workloads.py`` (imported read-only, set-up and warm-up
excluded), with ``enqueue``, ``free_flow`` and ``FastPathEngine.run``
wrapped from outside for the duration of the unit.  It prints one
markdown row per workload:

- ``runs`` / ``scalar runs`` — engine runs, and those on the scalar lane,
- ``net steps`` / ``scalar steps`` — network steps routed
  (``RoutingStats.steps`` summed), all and on the scalar lane,
- ``free-flow steps`` — vector-lane steps a free-flow jump advanced
  instead of stepping them,
- ``free-flow calls / misses`` — the step loop's calls of ``free_flow``
  (one per waiter-free arrival phase), and those that landed where they
  started, having found a meeting or a spawn trigger one step out,
- ``population min / p50 / p90 / max`` — packets per engine run (the
  gap between two rows' ranges is where ``SCALAR_RUN_MAX`` can sit
  without moving a run),
- ``arrival phases`` — vector-lane calls of ``enqueue``,
- ``with residue`` — the share of those calls whose batch has a residue,
- ``residue p50 / p90 / max`` — residue size over the calls that have one,
- ``vector residue`` — the share of those above ``SCALAR_RESIDUE_MAX``,
- ``absorptions`` — CRCW combines made in the vector arrival phase.

``--lanes`` instead replays every engine run of the unit through both
lanes (best of three each, the scalar lane only where the configuration
allows it) and prints the seconds per population bucket and the
speedup, vector over scalar — the table beside ``SCALAR_RUN_MAX``.
It fails unless both replays of every run report the unit's
``RoutingStats`` field for field — ``max_node_load`` included, which
each lane derives from its own arrival log — so it doubles as a lane
parity check on real units.
Each run is replayed with the arguments the unit gave it.  A reply run
is handed its request run's arrays as one ``Replies`` population, and
each replay lays it out the way its lane does: the scalar replay
straight into lists from the request's tables, the vector replay in
arrays — inheriting a vector-lane request's link ids, and interning its
own links (one ``np.unique``) for a scalar-lane request, which keyed its
hops by ``(src, dst)`` codes and left none.

Run:  python tools/residue_census.py [--workload NAME ...] [--seed 7] [--lanes]
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
if str(ROOT / "benchmarks" / "e2e") not in sys.path:
    sys.path.append(str(ROOT / "benchmarks" / "e2e"))

import workloads  # noqa: E402  (benchmarks/e2e, read-only)
from repro.routing import DeadlockError, RoutingTimeout  # noqa: E402
from repro.routing import fast_engine, fast_phases, fast_scalar  # noqa: E402
from repro.routing.fast_engine import FastPathEngine, _normalise_paths  # noqa: E402
from repro.routing.fast_phases import Replies, reply_forest  # noqa: E402

COLUMNS = (
    "workload", "runs", "scalar runs", "net steps", "scalar steps",
    "free-flow steps", "free-flow calls / misses", "population min", "p50", "p90", "max",
    "arrival phases", "with residue", "residue p50", "p90", "max", "vector residue", "absorptions",
)  # fmt: skip

#: population buckets of ``--lanes``: (lowest, highest) packets per run
BUCKETS = (
    (1, 16), (17, 32), (33, 64), (65, 128), (129, 256), (257, 384), (385, 1 << 30),
)  # fmt: skip
LANE_COLUMNS = ("workload", "population", "runs", "vector ms", "scalar ms", "speedup")


class Census:
    """What the wrapped calls saw during one timed unit."""

    def __init__(self) -> None:
        self.populations: list[int] = []
        self.scalar: list[bool] = []  # per run: took the scalar lane
        self.eligible: list[bool] = []  # per run: its configuration allows it
        self.steps: list[int] = []  # per run
        self.skipped = 0  # steps free-flow jumps advanced
        self.flow_calls = self.flow_misses = 0  # calls, and those that skipped nothing
        self.phases = 0
        self.residues: list[int] = []
        self.absorptions = 0
        #: ``(engine, args, kwargs)`` per run, and the ``RoutingStats``
        #: it returned (or raised with), kept for ``--lanes``
        self.calls: list[tuple] = []
        self.results: list = []

    def record(self, stats, keep: bool) -> None:
        """A finished run's stats: its steps, and with *keep* the whole."""
        self.steps.append(stats.steps)
        if keep:
            self.results.append(stats)

    def row(self, name: str) -> list[str]:
        sizes = np.asarray(self.residues or [0])
        pops = np.asarray(self.populations or [0])
        steps = np.asarray(self.steps or [0])
        on_scalar = np.asarray(self.scalar or [False])
        crossover = fast_phases.SCALAR_RESIDUE_MAX
        return [
            name,
            str(len(self.populations)),
            str(int(on_scalar.sum())),
            str(int(steps.sum())),
            str(int(steps[on_scalar].sum())),
            str(self.skipped),
            f"{self.flow_calls} / {self.flow_misses}",
            str(int(pops.min())),
            f"{np.percentile(pops, 50):g}",
            f"{np.percentile(pops, 90):g}",
            str(int(pops.max())),
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


def population(args, kwargs) -> int:
    """Packets of the run ``FastPathEngine.run(*args, **kwargs)`` — for a
    ``Replies`` population, the replies of its combining forest."""
    paths = args[0] if args else kwargs["paths"]
    if isinstance(paths, Replies):
        hosts = np.asarray(paths.hosts, dtype=np.int64)
        return int(reply_forest(Replies(paths.requests, hosts))[0].size)
    return int(_normalise_paths(paths)[1].size)


@contextmanager
def counting(census: Census, keep_calls: bool = False):
    """Wrap ``fast_phases.enqueue``, the step loop's ``free_flow`` and
    ``FastPathEngine.run`` for the block, then restore all three;
    *keep_calls* keeps every run's arguments in ``census.calls``."""
    enqueue = fast_phases.__dict__["enqueue"]
    free_flow = fast_engine.__dict__["free_flow"]
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

    def counted_free_flow(s, t, *rest):
        landed = free_flow(s, t, *rest)
        census.skipped += landed - t
        census.flow_calls += 1
        census.flow_misses += landed == t
        return landed

    def counted_run(self, *args, **kwargs):
        n = population(args, kwargs)
        faults = kwargs.get("link_faults")
        census.populations.append(n)
        census.scalar.append(fast_scalar.takes(n, self.node_capacity, faults))
        # the configuration's half of the rule: an empty run always fits
        census.eligible.append(fast_scalar.takes(0, self.node_capacity, faults))
        if keep_calls:
            census.calls.append((self, args, kwargs))
        try:
            stats = run(self, *args, **kwargs)
        except (DeadlockError, RoutingTimeout) as exc:  # it still routed its steps
            census.record(exc.stats, keep_calls)
            raise
        census.record(stats, keep_calls)
        return stats

    fast_phases.enqueue = counted_enqueue
    fast_engine.free_flow = counted_free_flow
    FastPathEngine.run = counted_run
    try:
        yield census
    finally:
        fast_phases.enqueue = enqueue
        fast_engine.free_flow = free_flow
        FastPathEngine.run = run


def census_of(workload, seed: int, keep_calls: bool = False) -> Census:
    prepared = workload.prepare(seed, None)
    with counting(Census(), keep_calls) as census:
        prepared.timed()
    return census


def lane_seconds(engine, args, kwargs, run_max: int, repeats: int = 3):
    """``(best-of-repeats seconds, RoutingStats)`` of one engine run with
    ``SCALAR_RUN_MAX`` set to *run_max* (restored after)."""
    saved = fast_scalar.SCALAR_RUN_MAX
    fast_scalar.SCALAR_RUN_MAX = run_max
    best = float("inf")
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            try:
                stats = engine.run(*args, **kwargs)
            except (DeadlockError, RoutingTimeout) as exc:
                stats = exc.stats
            best = min(best, time.perf_counter() - t0)
    finally:
        fast_scalar.SCALAR_RUN_MAX = saved
    return best, stats


def stats_mismatch(unit, vector, scalar) -> list[str]:
    """The ``RoutingStats`` fields on which the two replays and the unit
    do not all agree (reading each field resolves a deferred one)."""
    seen, *replays = (dataclasses.asdict(stats) for stats in (unit, vector, scalar))
    return [f for f, value in seen.items() if any(r[f] != value for r in replays)]


def lane_rows(name: str, census: Census) -> list[list[str]]:
    """One ``--lanes`` row per population bucket with an eligible run;
    ``RuntimeError`` if a run's replays disagree with the unit."""
    totals = {bucket: [0, 0.0, 0.0] for bucket in BUCKETS}
    for (engine, args, kwargs), n, eligible, unit in zip(
        census.calls, census.populations, census.eligible, census.results
    ):
        if not eligible:
            continue
        vector, v_stats = lane_seconds(engine, args, kwargs, 0)
        scalar, s_stats = lane_seconds(engine, args, kwargs, sys.maxsize)
        fields = stats_mismatch(unit, v_stats, s_stats)
        if fields:
            detail = ", ".join(
                f"{f} {getattr(unit, f)!r} / {getattr(v_stats, f)!r} / "
                f"{getattr(s_stats, f)!r}"
                for f in fields
            )
            raise RuntimeError(f"{name}: a {n}-packet run's unit / vector / scalar "
                               f"stats differ: {detail}")
        entry = totals[next(b for b in BUCKETS if b[0] <= n <= b[1])]
        entry[0] += 1
        entry[1] += vector
        entry[2] += scalar
    return [
        [
            name,
            f"{lo}-{hi}" if hi < 1 << 30 else f">= {lo}",
            str(runs),
            f"{vector * 1e3:.1f}",
            f"{scalar * 1e3:.1f}",
            f"{vector / scalar:.2f}x" if scalar else "-",
        ]
        for (lo, hi), (runs, vector, scalar) in totals.items()
        if runs
    ]


def _print_table(columns, rows) -> None:
    print("| " + " | ".join(columns) + " |")
    print("|" + "---|" * len(columns))
    for row in rows:
        print("| " + " | ".join(row) + " |", flush=True)


def main(argv=None) -> int:
    names = [w.name for w in workloads.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--lanes", action="store_true", help="time both lanes on every run"
    )
    args = parser.parse_args(argv)
    chosen = [w for w in workloads.WORKLOADS if w.name in (args.workload or names)]
    print(
        f"seed {args.seed}, SCALAR_RUN_MAX = {fast_scalar.SCALAR_RUN_MAX}, "
        f"SCALAR_RESIDUE_MAX = {fast_phases.SCALAR_RESIDUE_MAX}"
    )
    if args.lanes:
        _print_table(LANE_COLUMNS, [])
        for workload in chosen:
            census = census_of(workload, args.seed, keep_calls=True)
            for row in lane_rows(workload.name, census):
                print("| " + " | ".join(row) + " |", flush=True)
        return 0
    _print_table(COLUMNS, [])
    for workload in chosen:
        row = census_of(workload, args.seed).row(workload.name)
        print("| " + " | ".join(row) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
