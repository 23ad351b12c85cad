"""Emulator interfaces and reports (§2.4, §3.3).

One PRAM instruction is emulated as: hash the touched addresses to
modules, route request packets, perform the memory operations, route read
replies back.  An :class:`EmulationReport` records the network cost of
every emulated step so experiments can check the paper's bounds
(Theorems 2.5/2.6: Õ(ℓ); Theorem 3.2: 4n + o(n); Theorem 3.3: 6δ + o(δ)).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.faults import RehashStormError
from repro.pram.trace import MemoryTrace, StepTrace
from repro.util.stats import Summary, summarize


@dataclass
class StepCost:
    """Network cost of emulating one PRAM step."""

    request_steps: int
    reply_steps: int
    rehashes: int = 0
    combines: int = 0
    max_queue: int = 0
    requests: int = 0
    #: credit-flow-control stalls summed over the step's routing phases
    #: (zero unless ``flow_control="credit"``); the traffic subsystem
    #: turns these into a per-epoch time series
    credits_stalled: int = 0
    #: network steps burned by *failed* request attempts (missed
    #: allotments, wedged credit runs, fault-stalled timeouts) before
    #: the attempt that succeeded.  Excluded from ``total_steps`` so
    #: existing bounds checks keep measuring the successful phases; the
    #: traffic driver advances its virtual clock by
    #: ``total_steps + stall_steps`` so retries consume real time.
    stall_steps: int = 0
    #: link-fault transmission stalls summed over the step's routing
    #: phases (see :attr:`repro.routing.metrics.RoutingStats.fault_stalls`)
    fault_stalls: int = 0
    #: failed attempts that ended in a credit-flow-control
    #: :class:`~repro.routing.flow_control.DeadlockError` (each one was
    #: rehashed and retried)
    deadlock_retries: int = 0
    #: engine execution mode of every routing run performed for this
    #: step, in order: each request attempt (rehash retries included)
    #: followed by the reply phase.  Values are
    #: :attr:`repro.routing.metrics.RoutingStats.run_mode` strings;
    #: online runs assert on these that no epoch falls back to the
    #: reference engine.
    run_modes: tuple[str, ...] = ()

    @property
    def total_steps(self) -> int:
        return self.request_steps + self.reply_steps


@dataclass
class AttemptLog:
    """Accounting across one step's request-phase attempts.

    Both emulators thread one of these through their rehash/retry loops
    so the fault bookkeeping (failed-attempt steps, fault stalls,
    deadlock retries, fail-fast detections) lands in the
    :class:`StepCost` identically on either network.
    """

    rehashes: int = 0
    stall_steps: int = 0
    fault_stalls: int = 0
    deadlock_retries: int = 0
    fault_failfasts: int = 0
    run_modes: list[str] = field(default_factory=list)


@dataclass
class EmulationReport:
    """Aggregate outcome of emulating a trace."""

    costs: list[StepCost] = field(default_factory=list)
    #: reference scale (network diameter or mesh side) for normalization
    scale: float = 1.0

    def add(self, cost: StepCost) -> None:
        self.costs.append(cost)

    @property
    def pram_steps(self) -> int:
        return len(self.costs)

    @property
    def total_network_steps(self) -> int:
        return sum(c.total_steps for c in self.costs)

    @property
    def total_rehashes(self) -> int:
        return sum(c.rehashes for c in self.costs)

    @property
    def total_combines(self) -> int:
        return sum(c.combines for c in self.costs)

    @property
    def total_stall_steps(self) -> int:
        return sum(c.stall_steps for c in self.costs)

    @property
    def total_fault_stalls(self) -> int:
        return sum(c.fault_stalls for c in self.costs)

    @property
    def total_deadlock_retries(self) -> int:
        return sum(c.deadlock_retries for c in self.costs)

    @property
    def max_queue(self) -> int:
        return max((c.max_queue for c in self.costs), default=0)

    @property
    def mean_step_time(self) -> float:
        if not self.costs:
            return 0.0
        return self.total_network_steps / len(self.costs)

    @property
    def max_step_time(self) -> int:
        return max((c.total_steps for c in self.costs), default=0)

    def normalized_step_times(self) -> list[float]:
        """Per-step total time divided by the reference scale — the
        quantity the theorems bound by a constant."""
        return [c.total_steps / self.scale for c in self.costs]

    def step_time_summary(self) -> Summary:
        return summarize(c.total_steps for c in self.costs)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EmulationReport(steps={self.pram_steps}, "
            f"mean={self.mean_step_time:.1f}, max={self.max_step_time}, "
            f"scale={self.scale}, rehashes={self.total_rehashes})"
        )


class Emulator(ABC):
    """A machine that executes PRAM memory traces on a network.

    Emulators are *cheap, picklable, independently steppable* instances:
    all state lives on the instance (no module-level caches), so a
    mid-run emulator round-trips through ``pickle`` and continues
    bit-identically — the contract the sharding layer
    (:mod:`repro.sharding`) relies on to move shards into worker
    processes.  Besides the one-shot :meth:`emulate_step`, every
    emulator exposes a small queued-work API: :meth:`submit` parks step
    traces in an inbox, :meth:`step` serves exactly one of them, and
    :meth:`drain` serves the rest — which is what lets a scatter/gather
    front end step N shards independently.

    Concrete emulators may be built with an
    :class:`~repro.obs.Observer`; the class-level ``observer = None``
    default keeps old pickles (and observer-less subclasses) loading.
    """

    #: optional repro.obs observer (metrics/tracing/profiling/flight
    #: recorder); forwarded to routers and engines by the subclasses
    observer = None

    @abstractmethod
    def emulate_step(self, step: StepTrace) -> StepCost:
        """Emulate one PRAM instruction; returns its network cost."""

    # ---- queued-work API (submit / step / drain) ----------------------
    @property
    def inbox(self) -> deque:
        """Step traces submitted but not yet served (FIFO)."""
        # Created lazily so every Emulator subclass gets the queued-work
        # API without having to call a base __init__ (and old pickles
        # without the attribute keep loading).
        box = getattr(self, "_inbox", None)
        if box is None:
            box = self._inbox = deque()
        return box

    @property
    def pending(self) -> int:
        """Submitted step traces waiting to be served."""
        return len(self.inbox)

    def submit(self, step: StepTrace) -> None:
        """Queue one step trace for a later :meth:`step` / :meth:`drain`."""
        self.inbox.append(step)

    def step(self) -> StepCost | None:
        """Serve the oldest submitted step trace; ``None`` when idle.

        One call emulates exactly one PRAM step, so a coordinator can
        interleave many emulators at step granularity (the sharding
        front end steps every shard once per gather barrier).
        """
        if not self.inbox:
            return None
        return self.emulate_step(self.inbox.popleft())

    def drain(self) -> list[StepCost]:
        """Serve every queued step trace, in submission order."""
        costs: list[StepCost] = []
        while self.inbox:
            costs.append(self.emulate_step(self.inbox.popleft()))
        return costs

    def _prepare_attempt(
        self, step: StepTrace, fault_base: int, log: AttemptLog, *, rehash=True
    ) -> list:
        """Liveness refresh + fail-fast detection before one routing
        attempt (shared by the concrete emulators, which provide
        ``faults``/``rehash``/``max_rehashes``/``_build_request_packets``).

        Revives become visible, then any request aimed at an
        *undetected* dead module fails fast — the module's home switch
        NACKs, costing zero network steps — and the emulator
        acknowledges the kill and (with hashed placement) rehashes, the
        §2.1 recovery path.  Loops because a surrogate can itself be
        undetected-dead; the storm guard bounds kill/revive flapping.
        """
        faults = self.faults
        if faults.has_module_faults:
            faults.refresh(fault_base)
        packets = self._build_request_packets(step)
        while faults.has_module_faults:
            dead = faults.undetected_dead(fault_base)
            if not dead or not any(p.dest in dead for p in packets):
                break
            faults.acknowledge(fault_base)
            if rehash:
                self.rehash()
                log.rehashes += 1
            log.fault_failfasts += 1
            log.run_modes.append("fault-failfast")
            if log.fault_failfasts > self.max_rehashes + faults.num_modules:
                err = RehashStormError(
                    "fault detections keep forcing rehashes",
                    rehashes=log.rehashes,
                    stall_steps=log.stall_steps,
                    deadlock_retries=log.deadlock_retries,
                    fault_failfasts=log.fault_failfasts,
                    run_modes=tuple(log.run_modes),
                )
                if self.observer is not None:
                    err.flight_tail = self.observer.flight_tail()
                raise err
            packets = self._build_request_packets(step)
        return packets

    @property
    @abstractmethod
    def scale(self) -> float:
        """Normalization scale (diameter-like) for the report."""

    def emulate_trace(self, trace: MemoryTrace | Sequence[StepTrace]) -> EmulationReport:
        report = EmulationReport(scale=self.scale)
        steps = trace.steps if isinstance(trace, MemoryTrace) else list(trace)
        for step in steps:
            if step.num_requests == 0:
                report.add(StepCost(0, 0))
                continue
            report.add(self.emulate_step(step))
        return report
