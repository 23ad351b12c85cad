"""Experiment harness: seeded trial sweeps producing paper-style tables.

The paper proves bounds instead of reporting measurements, so the
reproduction's "tables" are one row per parameter setting with measured
means/maxima next to the claimed bound.  Every sweep is reproducible from
a single seed (trials get independent child generators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.routing.engine import RoutingStats, RoutingTimeout
from repro.util.rng import spawn_generators
from repro.util.tables import Table


@dataclass
class SweepRow:
    params: dict
    #: metric name -> list of per-trial values
    samples: dict[str, list[float]] = field(default_factory=dict)

    def mean(self, key: str) -> float:
        vals = self.samples[key]
        return sum(vals) / len(vals)

    def max(self, key: str) -> float:
        return max(self.samples[key])


def require_completed(*runs: RoutingStats) -> None:
    """Raise :class:`~repro.routing.engine.RoutingTimeout` for the first
    of *runs* that did not deliver every packet: a table row is only
    measured on completed routes (a check ``python -O`` keeps)."""
    for stats in runs:
        if not stats.completed:
            raise RoutingTimeout(stats)


def run_sweep(
    trial_fn: Callable[..., Mapping[str, float]],
    param_grid: Sequence[Mapping],
    *,
    trials: int = 3,
    seed=0,
) -> list[SweepRow]:
    """Run ``trial_fn(rng=..., **params)`` *trials* times per setting.

    ``trial_fn`` returns a mapping of metric name -> value.
    """
    rows = []
    for i, params in enumerate(param_grid):
        row = SweepRow(params=dict(params))
        gens = spawn_generators((seed, i).__hash__() & 0x7FFFFFFF, trials)
        for rng in gens:
            metrics = trial_fn(rng=rng, **params)
            for key, value in metrics.items():
                row.samples.setdefault(key, []).append(float(value))
        rows.append(row)
    return rows


def rows_to_table(
    rows: Iterable[SweepRow],
    param_cols: Sequence[str],
    metric_cols: Sequence[tuple[str, str]],
    *,
    title: str,
    caption: str | None = None,
) -> Table:
    """Render sweep rows.  ``metric_cols`` entries are (metric, agg) with
    agg in {"mean", "max"}."""
    headers = list(param_cols) + [f"{m}({a})" for m, a in metric_cols]
    table = Table(headers, title=title)
    for row in rows:
        cells = [row.params[p] for p in param_cols]
        for metric, agg in metric_cols:
            cells.append(row.mean(metric) if agg == "mean" else row.max(metric))
        table.add_row(cells)
    if caption:
        table.set_caption(caption)
    return table
