"""Labeled metrics registry with deterministic JSON snapshots.

One registry replaces the repo's former trio of ad-hoc telemetry dicts
(traffic totals, fault/degraded-mode counters, per-tenant sharding
slices) with a single schema: named metrics of one of three kinds —

* **counter** — monotonically accumulated sum (``inc`` defaults to 1);
* **gauge** — last-write-wins instantaneous value;
* **histogram** — streaming ``count/sum/min/max`` summary of observed
  values (enough for means and extrema without storing samples).

Every metric may carry labels (keyword arguments); each distinct label
set is an independent series under the metric's name.  Names are
validated at registration time — snake_case, registered under exactly
one kind — which is the runtime half of the REPRO007 lint rule.

Snapshots are deterministic: metric names, label keys, and series are
all emitted in sorted order, so ``json.dumps`` of a snapshot is stable
across runs, engines, and interpreter builds (given the same recorded
values).
"""

from __future__ import annotations

import re

__all__ = ["MetricsError", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

_KINDS = ("counter", "gauge", "histogram")


class MetricsError(ValueError):
    """Invalid metric name or kind-conflicting re-registration."""


class _Metric:
    __slots__ = ("name", "kind", "series")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        #: sorted-label-tuple -> value (counter/gauge) or summary dict
        self.series: dict[tuple, object] = {}


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Registry of named, labeled counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    # -- registration --------------------------------------------------
    def _get(self, name: str, kind: str) -> _Metric:
        m = self._metrics.get(name)
        if m is None:
            if not _NAME_RE.match(name):
                raise MetricsError(
                    f"metric name {name!r} is not snake_case "
                    "(expected ^[a-z][a-z0-9_]*$)"
                )
            m = self._metrics[name] = _Metric(name, kind)
        elif m.kind != kind:
            raise MetricsError(
                f"metric {name!r} already registered as a {m.kind}; "
                f"cannot re-register as a {kind}"
            )
        return m

    # -- recording -----------------------------------------------------
    def counter(self, name: str, inc: float = 1, **labels) -> None:
        """Add *inc* to the counter *name* (series selected by labels)."""
        series = self._get(name, "counter").series
        key = _label_key(labels)
        series[key] = series.get(key, 0) + inc

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge *name* to *value* (last write wins)."""
        self._get(name, "gauge").series[_label_key(labels)] = value

    def histogram(self, name: str, value: float, **labels) -> None:
        """Fold *value* into the histogram *name*'s streaming summary."""
        series = self._get(name, "histogram").series
        key = _label_key(labels)
        s = series.get(key)
        if s is None:
            series[key] = {"count": 1, "sum": value, "min": value, "max": value}
        else:
            s["count"] += 1
            s["sum"] += value
            if value < s["min"]:
                s["min"] = value
            if value > s["max"]:
                s["max"] = value

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def value(self, name: str, **labels):
        """Current value of one series of a registered metric (None if
        that label set was never recorded)."""
        return self._metrics[name].series.get(_label_key(labels))

    # -- export ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic JSON-ready view of every metric.

        The standard versioned envelope around ``{"metrics": {name:
        {"kind": ..., "series": [{"labels": {...}, "value": ...},
        ...]}}}`` with names, label keys, and series all sorted.
        """
        from repro.obs.schema import versioned

        out: dict = {}
        for name in sorted(self._metrics):
            m = self._metrics[name]
            series = []
            for key in sorted(m.series):
                val = m.series[key]
                if isinstance(val, dict):
                    val = {k: val[k] for k in sorted(val)}
                series.append({"labels": dict(key), "value": val})
            out[name] = {"kind": m.kind, "series": series}
        return versioned("metrics", {"metrics": out})
