"""Bounded flight recorder: a ring buffer of recent step events.

When an emulation dies with a :class:`DeadlockError`, a
:class:`RehashStormError`, or a :class:`RaceError`, the stack trace says
*where* but not *what led up to it*.  The flight recorder keeps the last
K step events (engine steps, route attempts, rehashes, admission
epochs) in a ``deque(maxlen=K)``; the raise sites attach its tail to
the exception as ``exc.flight_tail``, so post-mortems see the run's
final moments without paying for full-run event logging.

The bound is hard: the deque drops the oldest event on overflow, so
memory use is O(K) no matter how long the run.
"""

from __future__ import annotations

from collections import deque

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Fixed-capacity ring buffer of event dicts."""

    def __init__(self, bound: int = 64) -> None:
        if bound <= 0:
            raise ValueError(f"flight recorder bound must be positive: {bound}")
        self.bound = bound
        self._events: deque[dict] = deque(maxlen=bound)

    def record(self, kind: str, virtual_clock=None, **fields) -> None:
        """Append one event; the oldest falls out past the bound."""
        event = {"kind": kind}
        if virtual_clock is not None:
            event["virtual_clock"] = virtual_clock
        event.update(fields)
        self._events.append(event)

    def tail(self) -> tuple[dict, ...]:
        """The recorded events, oldest first (at most ``bound``)."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)
