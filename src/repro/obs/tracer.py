"""Span tracer on two clocks, with a Chrome trace-event exporter.

Every span records *both* timestamps the repo cares about:

* **wall clock** (via :func:`repro.obs.clock.wall_time`) — where real
  time goes, for profiling;
* **virtual clock** (network steps / epochs) — where the emulation's
  *cost* goes, the quantity the paper's theorems bound.

Spans nest naturally as ``with`` blocks::

    with tracer.span("route_attempt", category="routing",
                     virtual_clock=emu.virtual_clock, attempt=1) as sp:
        ...
        sp.virtual_end = emu.virtual_clock

``to_chrome_trace()`` exports the span list in the Chrome trace-event
format (``{"traceEvents": [...]}`` of ``"ph": "X"`` complete events,
microsecond timestamps), which loads directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  Virtual-clock
bounds travel in each event's ``args``.
"""

from __future__ import annotations

import json

from repro.obs.clock import wall_time

__all__ = ["Span", "SpanTracer"]


class Span:
    """One traced interval; use as a context manager."""

    __slots__ = (
        "name",
        "category",
        "args",
        "wall_start",
        "wall_end",
        "virtual_start",
        "virtual_end",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "SpanTracer",
        name: str,
        category: str,
        virtual_clock,
        args: dict,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self.virtual_start = virtual_clock
        self.virtual_end = None
        self.wall_start = 0.0
        self.wall_end = None

    def __enter__(self) -> "Span":
        self.wall_start = wall_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_end = wall_time()
        self._tracer._finish(self)
        return False


class SpanTracer:
    """Collects finished spans; exports Chrome trace-event JSON."""

    def __init__(self) -> None:
        self._origin = wall_time()
        self._spans: list[Span] = []

    def span(
        self, name: str, category: str = "repro", virtual_clock=None, **args
    ) -> Span:
        """A new (unstarted) span; entering it starts the wall clock."""
        return Span(self, name, category, virtual_clock, args)

    def _finish(self, span: Span) -> None:
        self._spans.append(span)

    def __len__(self) -> int:
        return len(self._spans)

    def to_chrome_trace(self) -> dict:
        """The span list as a Chrome trace-event / Perfetto document."""
        events = []
        for s in self._spans:
            args = dict(s.args)
            if s.virtual_start is not None:
                args["virtual_start"] = s.virtual_start
            if s.virtual_end is not None:
                args["virtual_end"] = s.virtual_end
            ts = (s.wall_start - self._origin) * 1e6
            dur = ((s.wall_end or s.wall_start) - s.wall_start) * 1e6
            events.append(
                {
                    "name": s.name,
                    "cat": s.category,
                    "ph": "X",
                    "ts": ts,
                    "dur": dur,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        """Write the Chrome trace to *path* (open in Perfetto)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh)
