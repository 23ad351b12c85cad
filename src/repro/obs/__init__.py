"""Unified observability layer: metrics, tracing, profiling, flight data.

One :class:`Observer` object carries the four instruments the repo's
runtime surfaces accept (engines, routers, emulators, the online
driver, the sharded service, the apps harness):

* :class:`~repro.obs.registry.MetricsRegistry` — labeled counters /
  gauges / histograms with deterministic JSON snapshots;
* :class:`~repro.obs.tracer.SpanTracer` — spans on both the virtual
  and the wall clock, exporting Chrome trace-event JSON (Perfetto);
* :class:`~repro.obs.profile.PhaseProfile` — per-dispatch-mode and
  per-phase engine wall-time breakdowns;
* :class:`~repro.obs.recorder.FlightRecorder` — a bounded ring buffer
  of recent step events whose tail rides on ``DeadlockError`` /
  ``RehashStormError`` / ``RaceError`` diagnostics.

Everything is opt-in.  The default everywhere is :class:`NullObserver`
(``enabled = False``, every component ``None``, every hook a no-op), so
a run without an observer never reads the wall clock and stays
bit-identical to the pre-observability code paths — the property the
differential tests and ``benchmarks/bench_obs.py`` pin.

Wall-clock access is centralized in :mod:`repro.obs.clock`, the single
file exempt from the REPRO002 no-wall-clock lint rule.
"""

from __future__ import annotations

from repro.obs.clock import wall_time
from repro.obs.profile import PhaseProfile
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import MetricsError, MetricsRegistry
from repro.obs.schema import SCHEMA_VERSION, schema_of, stable_json, versioned
from repro.obs.tracer import Span, SpanTracer

__all__ = [
    "NULL_OBSERVER",
    "SCHEMA_VERSION",
    "FlightRecorder",
    "MetricsError",
    "MetricsRegistry",
    "NullObserver",
    "Observer",
    "PhaseProfile",
    "Span",
    "SpanTracer",
    "schema_of",
    "stable_json",
    "versioned",
    "wall_time",
]


class _NullSpan:
    """Context manager that measures nothing and tolerates everything."""

    __slots__ = ("virtual_end",)

    def __init__(self) -> None:
        self.virtual_end = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullObserver:
    """The do-nothing observer: default for every runtime surface.

    All components are ``None`` and every convenience hook is a no-op,
    so instrumented code can hold any observer and call it without
    branching; the disabled cost is an attribute read and a predictable
    branch.  A fresh instance is stateless, picklable, and shareable.
    """

    enabled = False
    metrics = None
    tracer = None
    profile = None
    recorder = None

    def span(self, name: str, category: str = "repro", virtual_clock=None, **args):
        return _NullSpan()

    def count(self, name: str, inc: float = 1, **labels) -> None:
        pass

    def observe(self, name: str, value: float, **labels) -> None:
        pass

    def record(self, kind: str, virtual_clock=None, **fields) -> None:
        pass

    def flight_tail(self) -> tuple:
        return ()


class Observer(NullObserver):
    """A live observer bundling the four instruments (all optional).

    Parameters select components: ``metrics``, ``tracing``, and
    ``profiling`` toggle their registries; ``flight_recorder`` is the
    ring-buffer bound (0 disables it).  Components the caller turned
    off stay ``None`` and their hooks degrade to no-ops, so a
    metrics-only observer pays nothing for tracing.
    """

    enabled = True

    def __init__(
        self,
        *,
        metrics: bool = True,
        tracing: bool = True,
        profiling: bool = True,
        flight_recorder: int = 64,
    ) -> None:
        self.metrics = MetricsRegistry() if metrics else None
        self.tracer = SpanTracer() if tracing else None
        self.profile = PhaseProfile() if profiling else None
        self.recorder = (
            FlightRecorder(flight_recorder) if flight_recorder else None
        )

    def span(self, name: str, category: str = "repro", virtual_clock=None, **args):
        if self.tracer is None:
            return _NullSpan()
        return self.tracer.span(
            name, category=category, virtual_clock=virtual_clock, **args
        )

    def count(self, name: str, inc: float = 1, **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, inc, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name, value, **labels)

    def record(self, kind: str, virtual_clock=None, **fields) -> None:
        if self.recorder is not None:
            self.recorder.record(kind, virtual_clock=virtual_clock, **fields)

    def flight_tail(self) -> tuple:
        return self.recorder.tail() if self.recorder is not None else ()


#: shared stateless no-op instance; high-level surfaces normalize
#: ``observer or NULL_OBSERVER`` once and then call hooks unguarded
NULL_OBSERVER = NullObserver()
