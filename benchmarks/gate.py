"""The ``--out`` / ``--check-baseline`` command line the gated benchmarks share.

``bench_traffic`` / ``bench_faults`` / ``bench_sharding`` / ``bench_apps`` /
``bench_obs`` each define their scenarios (``run_suite``), their
seed-independent ``structural_gates(rows, check)`` and a
:class:`BaselineGate` that says which deterministic metrics are pinned
against the committed ``BENCH_*.json``; :func:`main` is the rest: parse
the two flags, run, write the report, compare, exit 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class BaselineGate:
    """Which metrics of a row are compared against the baseline, and how
    a comparison line is laid out."""

    #: row fields that identify a scenario across runs
    key: tuple[str, ...]
    #: ``(field, width)`` columns that open every printed line
    head: tuple[tuple[str, int], ...]
    metrics: tuple[str, ...]
    metric_width: int
    #: format spec of a metric value, e.g. ``"10.2f"``
    value_format: str
    #: allowed relative drift; ``None`` = the values must be equal
    tolerance: float | None

    def _identity(self, row: dict) -> tuple:
        return tuple(row[field] for field in self.key)

    def _head(self, row: dict) -> str:
        return " ".join(f"{row[field]:{width}s}" for field, width in self.head)

    def check(self, rows: list[dict], baseline: dict) -> int:
        """Print one line per (row, metric); returns the failure count.

        Rows missing from the baseline are reported and skipped (a new
        scenario gates once the baseline is regenerated), while baseline
        rows missing from the run *fail* — dropping a scenario must be
        an explicit baseline regeneration, not a silent loss of
        coverage.  Runs are seeded, so drift beyond the tolerance means
        behaviour changed — not that the host was slow.
        """
        by_key = {self._identity(r): r for r in baseline.get("scenarios", [])}
        if self.tolerance is None:
            print("\nbaseline check (exact, deterministic metrics only):")
        else:
            print(f"\nbaseline check (tolerance: +-{self.tolerance:.0%}):")
        failures = 0
        for row in rows:
            base = by_key.get(self._identity(row))
            if base is None:
                print(f"  {self._head(row)} not in baseline — skipped")
                continue
            for metric in self.metrics:
                b, v = base[metric], row[metric]
                if self.tolerance is None or b == 0:
                    ok = v == b
                else:
                    ok = abs(v / b - 1.0) <= self.tolerance
                print(
                    f"  {self._head(row)} {metric:{self.metric_width}s} "
                    f"{b:{self.value_format}} -> {v:{self.value_format}} "
                    f"{'ok' if ok else 'REGRESSED'}"
                )
                failures += not ok
        ran = {self._identity(r) for r in rows}
        for key in sorted(set(by_key) - ran):
            print(f"  {self._head(by_key[key])} in baseline but MISSING from this run")
            failures += 1
        return failures


class Checks:
    """The ``check(cond, msg)`` a ``structural_gates`` is handed: prints
    one ok / FAIL line per gate and counts the failures."""

    def __init__(self) -> None:
        self.failures = 0

    def __call__(self, cond: bool, msg: str) -> None:
        print(f"  {'ok' if cond else 'FAIL'}  {msg}")
        self.failures += not cond


def main(
    argv,
    *,
    description: str,
    out: str,
    run_suite: Callable[[], list[dict]],
    structural_gates: Callable[[list[dict], Checks], None],
    baseline_gate: BaselineGate,
    benchmark: str,
    note: str,
) -> int:
    parser = argparse.ArgumentParser(description=description)
    tolerance = baseline_gate.tolerance
    drift = "any drift" if tolerance is None else f"a >{tolerance:.0%}% drift"
    parser.add_argument(
        "--out", type=Path, default=ROOT / out, help="where to write the JSON report"
    )
    parser.add_argument(
        "--check-baseline",
        type=Path,
        default=None,
        metavar="BASELINE_JSON",
        help=f"compare the deterministic metrics ({', '.join(baseline_gate.metrics)}) "
        f"against this committed report and exit nonzero on {drift}; runs "
        "are seeded, so the gate is host-speed-safe",
    )
    args = parser.parse_args(argv)

    # Load the baseline up front: --out may point at the same file.
    baseline = None
    if args.check_baseline is not None:
        baseline = json.loads(args.check_baseline.read_text())

    rows = run_suite()
    print("\nstructural gates:")
    check = Checks()
    structural_gates(rows, check)
    failures = check.failures
    report = {"benchmark": benchmark, "note": note, "scenarios": rows}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    if baseline is not None:
        failures += baseline_gate.check(rows, baseline)
    return 1 if failures else 0


def service_gate(width: int) -> BaselineGate:
    """The gate of an online-service benchmark (traffic, faults,
    sharding): p99 sojourn and per-step throughput within 30 %, rows
    matched by (scenario, network), scenario names padded to *width*."""
    return BaselineGate(
        key=("scenario", "network"),
        head=(("scenario", width),),
        metrics=("sojourn_p99", "throughput_per_step"),
        metric_width=20,
        value_format="10.2f",
        tolerance=0.30,
    )
