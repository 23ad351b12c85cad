"""Routing-run metrics: the quantities the paper's theorems bound.

* routing time — step at which the last packet arrives (§2.2.1);
* queue size — max packets ever resident in one link queue;
* delay — per-packet queueing delay (latency minus path length);
* hops — per-packet path length.

Both engines report them through one constructor,
:func:`stats_from_arrays`, over a run's per-packet rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Deferred:
    """A value worked out the first time it is read: ``derive(*args)``.

    A fast run leaves one of these where a value is costly to compute
    and rarely read: its :class:`RoutingStats` ``max_node_load``, derived
    from the run's arrival log, and a list-built reply run's
    :attr:`~repro.routing.fast_phases.RunArrays.paths`, gathered from
    its request run.  :meth:`resolve` computes the value once, keeps it
    and drops *args*, so nothing holds the arguments past the first
    read; an unread one pickles with them (*derive* must be a
    module-level function).
    """

    __slots__ = ("derive", "args", "value")

    def __init__(self, derive, *args) -> None:
        self.derive = derive
        self.args = args
        self.value = None

    def resolve(self):
        if self.args is not None:
            self.value = self.derive(*self.args)
            self.derive = self.args = None
        return self.value


class ReadResolves:
    """A dataclass field whose value may be a :class:`Deferred`: the
    first read through the instance resolves it and stores the value in
    its place, so attribute access, ``==``, ``repr`` and
    :func:`dataclasses.asdict` all see the value (``vars()`` shows what
    is stored).  A data descriptor, so it wins over the instance dict it
    stores into — on a frozen dataclass too.  Read through the class it
    is the field's *default*; given none, the field has none (a
    dataclass takes the ``AttributeError`` to mean so).  Given a
    *factory* instead, the default read through the class is the
    descriptor itself, which an instance stores as a fresh
    ``factory()``: a mutable default no two instances share."""

    def __init__(self, *default, factory=None) -> None:
        self.default = default
        self.factory = factory

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            if self.factory is not None:
                return self
            if not self.default:
                raise AttributeError(self.name)
            return self.default[0]
        value = obj.__dict__[self.name]
        if isinstance(value, Deferred):
            value = obj.__dict__[self.name] = value.resolve()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = self.factory() if value is self else value


@dataclass
class RoutingStats:
    """Outcome of one routing run."""

    steps: int
    delivered: int
    total_packets: int
    max_queue: int
    completed: bool
    #: the delivered packets' queueing delays and hop counts, in row
    #: order (Python ints); a run stores a :class:`Deferred` for each,
    #: worked out from its columns on the first read — no served path
    #: reads them
    delays: list[int] = ReadResolves(factory=list)
    hops: list[int] = ReadResolves(factory=list)
    #: number of packet merges performed (CRCW combining)
    combines: int = 0
    #: peak number of packets resident at any single node (sum of its
    #: outgoing link queues) after an arrival phase; the per-processor
    #: buffer requirement.  The reference engine and a fast
    #: ``node_capacity`` run count it as they go; every other fast run
    #: stores a :class:`Deferred` here, which derives it from the
    #: run's arrival log on the first read
    #: (:func:`repro.routing.fast_phases.peak_node_load`) and is
    #: replaced by the number — no served path reads it
    max_node_load: int = ReadResolves(0)
    #: (link, step) pairs where credit flow control held a transmission
    #: back — a queue head or escape occupant that could not move this
    #: step.  Zero unless ``flow_control="credit"``; identical across
    #: engines under a fixed seed (see docs/flow_control.md).
    credits_stalled: int = 0
    #: hops taken through dedicated per-link escape buffers (the
    #: deadlock-free channel of ``flow_control="credit"``); each one is
    #: a credit-starved head bypassing a full bulk buffer
    escape_hops: int = 0
    #: (link, step) pairs where an injected link fault held a
    #: transmission back — a queued head (or escape occupant) whose
    #: wire was down or in a slow-link off-phase this step.  Zero
    #: unless the run carries a fault schedule; identical across
    #: engines under a fixed seed (see docs/faults.md).
    fault_stalls: int = 0
    #: execution mode that produced this run: ``"reference"`` (the
    #: per-hop readable engine) or one of the fast engine's modes —
    #: ``"batch"``, ``"batch-constrained"`` (see
    #: ``FastPathEngine.last_run_mode``).  Deliberately excluded from
    #: the engine-differential equality contract: the *numbers* must
    #: match across engines, the mode must not.  The traffic subsystem
    #: aggregates these into a per-epoch dispatch history so online
    #: runs can assert "no silent reference fallback".
    run_mode: str = ""

    @property
    def max_delay(self) -> int:
        return max(self.delays) if self.delays else 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        flag = "" if self.completed else "  [TIMED OUT]"
        return (
            f"time={self.steps} delivered={self.delivered}/{self.total_packets} "
            f"max_queue={self.max_queue} max_delay={self.max_delay}{flag}"
        )


def stats_from_arrays(
    hops: np.ndarray,
    injected_at: np.ndarray | None,
    arrived_at: np.ndarray,
    *,
    steps: int,
    max_queue: int,
    completed: bool,
    combines: int,
    max_node_load: int | Deferred,
    credits_stalled: int,
    escape_hops: int,
    fault_stalls: int,
    run_mode: str,
) -> RoutingStats:
    """The :class:`RoutingStats` of a run, from one row per packet: the
    one constructor both engines and the restart aggregate report
    through.

    Row i describes one packet of the run, in the order the engine met
    it (the reference engine reads its packets into these columns with
    :func:`~repro.routing.packet.packet_outcomes`); ``arrived_at[i] < 0``
    means it was not delivered, and ``injected_at`` ``None`` that every
    row entered at step 0.  ``delivered`` and ``total_packets`` are
    counted from the rows; ``delays`` / ``hops`` are the delivered rows'
    entries, deferred to their first read (:func:`delivered_rows`), so
    the columns must not change after the call.  Every stat keyword is
    required, so a counter one caller forgets, or one that does not
    exist, is a ``TypeError`` at that caller's first run.
    """
    total = int(hops.size)
    delivered = total
    if total and arrived_at[arrived_at.argmin()] < 0:
        delivered = int(np.count_nonzero(arrived_at >= 0))
    minus = (hops,) if injected_at is None else (injected_at, hops)
    # Filled in place rather than through __init__, where each of the
    # three ReadResolves fields would cost a descriptor call: this runs
    # once per engine run, twice a served step.
    stats = object.__new__(RoutingStats)
    vars(stats).update(
        steps=steps,
        delivered=delivered,
        total_packets=total,
        max_queue=max_queue,
        completed=completed,
        delays=Deferred(delivered_rows, arrived_at, arrived_at, *minus),
        hops=Deferred(delivered_rows, arrived_at, hops),
        combines=combines,
        max_node_load=max_node_load,
        credits_stalled=credits_stalled,
        escape_hops=escape_hops,
        fault_stalls=fault_stalls,
        run_mode=run_mode,
    )
    return stats


def delivered_rows(arrived_at: np.ndarray, column: np.ndarray, *minus) -> list[int]:
    """*column* minus each of *minus*, at the delivered rows
    (``arrived_at >= 0``), as Python ints: a run's ``delays`` or
    ``hops``.  A completed run's list is the whole column, element for
    element."""
    for m in minus:
        column = column - m
    if column.size and arrived_at[arrived_at.argmin()] < 0:
        column = column[arrived_at >= 0]
    return column.tolist()
