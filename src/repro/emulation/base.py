"""Emulator interfaces and reports (§2.4, §3.3).

One PRAM instruction is emulated as: hash the touched addresses to
modules, route request packets, perform the memory operations, route read
replies back.  An :class:`EmulationReport` records the network cost of
every emulated step so experiments can check the paper's bounds
(Theorems 2.5/2.6: Õ(ℓ); Theorem 3.2: 4n + o(n); Theorem 3.3: 6δ + o(δ)).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import count
from typing import Sequence

import numpy as np

from repro.emulation.combining import (
    ReplySpawner,
    build_replies,
    reply_next_hop,
    route_replies_fast,
)
from repro.faults import FaultState, RehashStormError
from repro.hashing.family import HashFamily, degree_for_diameter
from repro.obs import NULL_OBSERVER
from repro.pram.memory import SharedMemory
from repro.pram.trace import MemoryTrace, RequestColumns
from repro.pram.variants import WritePolicy, resolve_writes
from repro.routing.engine import SynchronousEngine
from repro.routing.fast_engine import resolve_engine_mode
from repro.routing.flow_control import DeadlockError, resolve_flow_control
from repro.util.rng import as_generator


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
    #: the module that served each request, in the step's row order:
    #: the column the successful attempt routed on (its hash, the
    #: detected-dead remap applied) — what a front end records per
    #: delivered request without hashing the step again.  Empty from an
    #: emulator that places nothing; not part of equality or ``repr``.
    modules: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64), compare=False, repr=False
    )

    @property
    def total_steps(self) -> int:
        return self.request_steps + self.reply_steps


@dataclass
class AttemptLog:
    """Accounting across one step's request-phase attempts.

    ``Emulator._route_requests`` threads one of these through its
    rehash/retry loop (and the mesh's fresh-route reply retries add to
    it), so the fault bookkeeping (failed-attempt steps, fault stalls,
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
class StepColumns:
    """One step's requests as aligned columns: row i is the i-th request,
    reads first, then writes.  Read once per ``emulate_step``; nothing
    here depends on the hash, so a rehash retry recomputes the module
    column and nothing else."""

    #: rows below this are reads, the rest writes
    n_reads: int
    #: the requesting processors' endpoint ids (after the static
    #: processor-fault remap): what the router routes from, and the
    #: writer id of concurrent-write resolution
    sources: np.ndarray
    addrs: np.ndarray
    #: ``address * 2 + is_write``: requests that may combine (Theorem
    #: 2.6) share one, and then share a module; ``None`` in EREW mode,
    #: where nothing combines
    combine_keys: np.ndarray | None
    #: the writes' values, in row order from ``n_reads``
    payloads: list

    @property
    def n(self) -> int:
        return len(self.addrs)


def check_addresses(addrs: np.ndarray, address_space: int) -> None:
    """``ValueError`` naming the first address of *addrs* outside
    ``[0, address_space)`` — checked before a step routes, so a bad
    address leaves memory, clock and generator as they were.  One
    ``argmax`` read on the common path: viewed unsigned, a negative
    address is larger than any bound."""
    addrs = np.asarray(addrs, dtype=np.int64)
    top = addrs.view(np.uint64)
    if addrs.size and int(top[top.argmax()]) >= address_space:
        bad = np.flatnonzero((addrs < 0) | (addrs >= address_space))
        raise ValueError(
            f"address {int(addrs[bad[0]])} is outside the address space "
            f"[0, {address_space})"
        )


class RequestRoutingError(RuntimeError):
    """A routing phase gave up with no fault schedule to blame.

    Terminal: without injected faults, non-completion after every
    rehash and the last-resort budget is a bug (or a budget far below
    the network's diameter), not a condition to retry — the retryable
    twin under a fault schedule is
    :class:`~repro.faults.RehashStormError`.  Carries the same
    :class:`AttemptLog` accounting and, when the emulator's observer has
    a flight recorder, the last recorded step events (oldest first).
    """

    flight_tail: tuple = ()

    def __init__(self, message: str, log: AttemptLog, burned: int = 0) -> None:
        super().__init__(message)
        self.rehashes = log.rehashes
        #: network steps spent on the failed attempts, the last included
        self.stall_steps = log.stall_steps + burned
        self.deadlock_retries = log.deadlock_retries
        self.fault_failfasts = log.fault_failfasts
        self.run_modes = tuple(log.run_modes)


class ReplyCountError(RequestRoutingError):
    """A completed reply phase delivered a different number of replies
    than the step had reads.  Terminal like
    its base — no fault explains a lost or duplicated reply — and
    carries the same accounting and flight tail."""


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
    def mean_step_time(self) -> float:
        return self.total_network_steps / len(self.costs)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EmulationReport(steps={self.pram_steps}, "
            f"mean={self.mean_step_time:.1f}, "
            f"max={max((c.total_steps for c in self.costs), default=0)}, "
            f"scale={self.scale}, rehashes={self.total_rehashes})"
        )


class Emulator(ABC):
    """A machine that executes PRAM memory traces on a network.

    One object, one verb: :meth:`emulate_step` emulates exactly one PRAM
    instruction as one synchronous round — hash, route requests, serve
    memory, route replies.  Emulators are *cheap, picklable* instances:
    all state lives on the instance (no module-level caches), so a
    mid-run emulator round-trips through ``pickle`` and continues
    bit-identically — which is what lets a scatter/gather front end
    (:mod:`repro.sharding`) own N of them and step each in a plain loop.

    Service contract
    ----------------
    What a front end (:class:`~repro.traffic.OnlineEmulator`,
    :class:`~repro.sharding.ShardedEmulator`,
    :func:`~repro.emulation.replay.replay_program`, ``apps.harness``)
    may read of *any* emulator — plain attribute reads, never
    ``getattr`` / ``hasattr`` probes (lint rule ``REPRO008``).  The
    class-level defaults below are what an emulator with nothing to say
    reports (a scripted test double defines ``emulate_step`` and a
    constructor that skips :meth:`__init__`'s shared state); they also
    keep old pickles loading:

    ``n_processors``
        processors a step may name (``None``: unbounded / unknown).
    ``scale``
        diameter-like normalization of a step's cost (default 1).
    ``mode``
        ``"erew"`` / ``"crcw"``; drivers admit exclusively under
        ``"erew"`` (``None``: no stated mode).
    ``memory``
        the emulated shared memory (``size`` / ``read`` / ``write`` /
        ``touched``), or ``None``.
    ``observer``
        optional :class:`~repro.obs.Observer`, forwarded by subclasses
        to the routers and engines they build.
    ``faults``
        the :class:`~repro.faults.FaultState`, or ``None`` when there is
        no single fault timeline to annotate epochs from.
    ``virtual_clock``
        the fault timeline's "now"; drivers assign it to pin the
        emulator to their clock.
    ``write_policy`` / ``combine_op``
        concurrent-write resolution; the replay layer assigns them to
        match the program it replays.
    ``serving_modules(addrs)`` / ``module_of(addr)``
        which memory module serves each address right now.  What served
        a step's requests is not asked afterwards: ``emulate_step``
        returns it as :attr:`StepCost.modules`.
    """

    n_processors: int | None = None
    scale: float = 1.0
    mode: str | None = None
    memory = None
    observer = None
    faults = None
    virtual_clock = 0
    write_policy = WritePolicy.ARBITRARY
    combine_op = "sum"
    #: the address -> module hash (``None``: no placement to report)
    hash = None

    def __init__(
        self,
        address_space: int,
        *,
        n_modules: int,
        n_processors: int,
        diameter: int,
        mode: str,
        write_policy: WritePolicy = WritePolicy.ARBITRARY,
        combine_op: str = "sum",
        rehash_factor: float = 8.0,
        max_rehashes: int = 8,
        node_capacity: int | None = None,
        flow_control: str = "none",
        seed=None,
        engine: str = "auto",
        faults=None,
        observer=None,
    ) -> None:
        """The state every hashed-memory network emulator shares — all
        the step pipeline below reads off the instance.  A subclass
        passes what is network-specific (*n_modules*, *n_processors*,
        the *diameter* that sizes the hash degree, its default *mode*),
        defines ``_check_link_spec(target)`` — ``ValueError`` unless a
        link-fault event's *target* names a link of its network — and
        hands every other keyword of its own constructor through:

        write_policy / combine_op:
            Concurrent-write resolution (CRCW variants).
        rehash_factor / max_rehashes:
            The §2.1 rehash-on-timeout loop: the request phase's time
            allotment is *rehash_factor* times the network's path
            length; missing it draws a new hash, at most *max_rehashes*
            times.
        node_capacity / flow_control:
            Per-node buffer bound for the *request* phase (and the
            mesh's EREW fresh-route replies; reverse-path reply fan-out
            always runs unconstrained, on both engines).
            ``flow_control="credit"`` (requires ``node_capacity``)
            enables the deadlock-free escape protocol of
            :mod:`repro.routing.flow_control`; a wedged attempt
            (``DeadlockError``) is treated like a missed allotment:
            rehash and retry.  On the fast engine, capacity requests
            take the vectorized constrained-batch mode.
        seed:
            One generator, one draw order: the first hash function, then
            every router's randomness, step by step.
        engine:
            ``"auto"`` (default; compiled fast path, see
            :mod:`repro.routing.fast_engine`), ``"fast"`` or
            ``"reference"`` for every routing phase; identical step
            costs under a fixed seed.
        faults / observer:
            A :class:`~repro.faults.FaultPlan` / ``FaultSchedule`` (or
            ``None``), and an optional :class:`~repro.obs.Observer`.
        """
        if mode not in ("erew", "crcw"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.n_processors = n_processors
        #: repro.obs observer forwarded to every router/engine this
        #: emulator builds; None stays a no-op
        self.observer = observer
        self.engine_mode = engine
        resolve_engine_mode(engine)  # validate eagerly
        self.write_policy = write_policy
        self.combine_op = combine_op
        self.node_capacity = node_capacity
        self.flow_control = resolve_flow_control(
            flow_control, node_capacity=node_capacity
        )
        self.rehash_factor = rehash_factor
        self.max_rehashes = max_rehashes
        self.rng = as_generator(seed)
        self.memory = SharedMemory(address_space)
        self.family = HashFamily(
            address_space, n_modules, degree_for_diameter(diameter)
        )
        self.hash = self.family.sample(self.rng)
        self.rehash_count = 0
        self.faults = FaultState(
            faults, num_modules=n_modules, num_processors=n_processors
        )
        if self.faults.has_link_faults:
            for event in self.faults.schedule.link_events:
                self._check_link_spec(event.target)
        #: global virtual-network clock: advanced by each emulated step's
        #: ``total_steps + stall_steps`` so the fault schedule is sampled
        #: on one continuous timeline across steps and phases
        self.virtual_clock = 0

    @abstractmethod
    def emulate_step(self, step: RequestColumns) -> StepCost:
        """Emulate one PRAM instruction; returns its network cost.

        *step* is the instruction's requests as
        :class:`~repro.pram.trace.RequestColumns` — what the PRAM
        machine records and what a serving front end slices out of its
        request table.
        """

    # ---- the step pipeline --------------------------------------------
    # columns -> hash -> route requests (rehash + retry) -> memory ->
    # route replies -> StepCost: one scheme, parameterised by the network
    # (Theorems 2.5/2.6, 3.2, 3.3), on integer columns from end to end —
    # ``_step_columns`` reads the step's ``RequestColumns``, the router
    # is handed (source, module, combine key) columns, and hosts /
    # absorbed rows come back as row arrays (``Router.absorbed_rows``);
    # no ``Packet`` is built here (the reference engine's are the
    # router's business, and so is resolving ``engine``: a router is
    # built with ``engine=self.engine_mode``).  A served emulator's
    # ``emulate_step`` composes the pieces below and supplies what is
    # network-specific: ``_make_router(fault_base)``, its allotment and
    # budgets, placement (``_modules_of``) and the shape of its reply
    # phase.  The pieces read the state ``__init__`` builds.

    #: label on step metrics, rehash events and failure messages
    network = "network"

    @property
    def _obs(self):
        """The observer to call: ``self.observer`` or the no-op one.
        Computed, not stored, so pickles and ``emulator.observer`` keep
        their meaning."""
        return self.observer or NULL_OBSERVER

    def rehash(self) -> None:
        """Draw a fresh hash function (the §2.1 recovery action)."""
        self.hash = self.family.sample(self.rng)
        self.rehash_count += 1

    def _modules_of(self, addrs: np.ndarray) -> np.ndarray:
        """Home module of every address (placement, before fault remap)."""
        return self.hash.map(addrs)

    def _step_columns(self, step: RequestColumns) -> StepColumns:
        """Read *step* into the routed columns, reads first, checking
        what does not depend on the hash — the processor bound, the
        address space and exclusivity (EREW mode) — before anything
        routes, draws or writes."""
        step = step.reads_first()
        n_reads = int(np.count_nonzero(step.is_read))
        pids, addrs = step.pids, step.addrs
        faults = self.faults
        top = int(pids[pids.argmax()]) if pids.size else -1
        if top >= faults.num_processors:
            raise ValueError(
                f"processor {top} exceeds {self.network} size "
                f"{faults.num_processors}"
            )
        check_addresses(addrs, self.memory.size)
        sources = faults.map_processors(pids) if faults.has_processor_faults else pids
        keys = None
        if self.mode == "crcw":
            keys = addrs * 2
            keys[n_reads:] += 1
        else:
            by_addr = np.sort(addrs)
            if (by_addr[1:] == by_addr[:-1]).any():
                raise ValueError(
                    f"EREW {self.network} emulator given concurrent accesses; "
                    "use mode='crcw'"
                )
        return StepColumns(n_reads, sources, addrs, keys, step.values[n_reads:].tolist())

    def serving_modules(self, addrs: np.ndarray) -> np.ndarray:
        """The module serving every address under the current hash: one
        vectorized evaluation for the whole column (the scalar
        ``PolynomialHash.__call__`` is an O(S) Python Horner loop per
        address), then the detected-dead remap — a dead module's
        addresses go to its deterministic surrogate (next live module,
        cyclic), engine-independent, so differential runs stay
        identical.  The only per-attempt column of a step; the
        successful attempt's comes back as :attr:`StepCost.modules`, so
        a front end never asks again.  An emulator that places nothing
        reports nothing."""
        if self.hash is None:
            return np.empty(0, dtype=np.int64)
        modules = self._modules_of(addrs)
        faults = self.faults
        if faults is not None and faults.known_dead:
            modules = faults.map_modules(modules)
        return modules

    def module_of(self, addr: int) -> int:
        """Module currently serving ``addr`` (dead modules remapped)."""
        return int(self.serving_modules(np.asarray([addr], dtype=np.int64))[0])

    def _failure(self, message: str, log: AttemptLog, burned: int = 0) -> RuntimeError:
        """The exception for a phase that gave up, carrying *log*'s
        accounting (plus the *burned* steps of an attempt not yet
        charged to it) and the flight tail.  Under a fault schedule it
        is the :class:`RehashStormError` a service loop charges and
        retries; without one, non-completion is a real bug and the
        :class:`RequestRoutingError` is terminal."""
        if self.faults.schedule:
            err = RehashStormError(
                message + " (fault schedule active)",
                rehashes=log.rehashes,
                stall_steps=log.stall_steps + burned,
                deadlock_retries=log.deadlock_retries,
                fault_failfasts=log.fault_failfasts,
                run_modes=tuple(log.run_modes),
            )
        else:
            err = RequestRoutingError(message, log, burned)
        err.flight_tail = self._obs.flight_tail()
        return err

    def _prepare_attempt(
        self, addrs: np.ndarray, fault_base: int, log: AttemptLog, *, rehash=True
    ) -> np.ndarray:
        """Liveness refresh + fail-fast detection before one routing
        attempt; returns the attempt's module column.

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
        modules = self.serving_modules(addrs)
        while faults.has_module_faults:
            dead = faults.undetected_dead(fault_base)
            if not dead or not np.isin(modules, list(dead)).any():
                break
            faults.acknowledge(fault_base)
            if rehash:
                self.rehash()
                log.rehashes += 1
            log.fault_failfasts += 1
            log.run_modes.append("fault-failfast")
            if log.fault_failfasts > self.max_rehashes + faults.num_modules:
                raise self._failure("fault detections keep forcing rehashes", log)
            modules = self.serving_modules(addrs)
        return modules

    def _route_requests(
        self,
        cols: StepColumns,
        *,
        allotment: int,
        last_resort: int,
        rehash: bool = True,
    ):
        """Route the step's requests; rehash + retry on a missed allotment.

        "If within the allotted time the communication has not been
        completed, a designated processor chooses a new hash function,
        and all the M memory locations are remapped" (§2.1): up to
        ``max_rehashes + 1`` attempts run under *allotment* steps with a
        rehash between consecutive ones, then one attempt under the
        generous *last_resort* budget so the emulation still
        terminates.  A wedged credit run (``DeadlockError``) is just a
        failed attempt — the rehash redraws the trajectories.  With
        ``rehash=False`` (direct placement: kills are still detected
        fail-fast, but the remap alone reroutes an address) the first
        missed allotment goes straight to the last resort.

        Returns ``(router, modules, stats, log)`` of the attempt that
        completed: its module column and the router holding its run.
        """
        log = AttemptLog()
        obs = self._obs
        bounded = self.max_rehashes + 1 if rehash else 1
        for attempt in count():
            last = attempt == bounded
            # Each attempt starts where the previous one gave up: failed
            # steps accumulate into the global fault timeline.
            fault_base = self.virtual_clock + log.stall_steps
            modules = self._prepare_attempt(cols.addrs, fault_base, log, rehash=rehash)
            router = self._make_router(fault_base)
            wedged = False
            with obs.span(
                "route_attempt",
                category="request",
                virtual_clock=fault_base,
                attempt=attempt,
                requests=cols.n,
                last_resort=last,
            ) as sp:
                try:
                    stats = router.route(
                        cols.sources,
                        modules,
                        max_steps=last_resort if last else allotment,
                        combine_keys=cols.combine_keys,
                    )
                except DeadlockError as exc:
                    if last:
                        raise
                    stats = exc.stats
                    wedged = True
                sp.virtual_end = fault_base + stats.steps
            log.run_modes.append(stats.run_mode)
            log.fault_stalls += stats.fault_stalls
            if stats.completed:
                return router, modules, stats, log
            if last:
                raise self._failure(
                    f"{self.network} request routing failed after rehashes",
                    log,
                    stats.steps,
                )
            log.stall_steps += stats.steps
            if wedged:
                log.deadlock_retries += 1
            if rehash and attempt < self.max_rehashes:
                now = self.virtual_clock + log.stall_steps
                with obs.span(
                    "rehash",
                    category="recovery",
                    virtual_clock=now,
                    attempt=attempt,
                    wedged=wedged,
                ):
                    self.rehash()
                log.rehashes += 1
                obs.count("emulator_rehashes_total", network=self.network)
                obs.record("rehash", virtual_clock=now, attempt=attempt, wedged=wedged)

    def _apply_memory(self, writes) -> None:
        """One step's writes: each written address takes
        ``resolve_writes`` of its writers.

        *writes* yields ``(addr, writer id, value)`` triples.  A step's
        reads see pre-step memory, but the emulators cost the step and
        deliver no value, so nothing here reads.
        """
        memory = self.memory
        by_addr: dict[int, list[tuple[int, object]]] = {}
        for addr, writer, value in writes:
            by_addr.setdefault(addr, []).append((writer, value))
        for addr, writers in by_addr.items():
            memory.write(
                addr,
                resolve_writes(sorted(writers), self.write_policy, self.combine_op),
            )

    def _serve_memory(self, cols: StepColumns, router) -> np.ndarray:
        """The modules' work for a routed step; returns the read hosts.

        A *host* is a request that reached its module — every row the
        run did not absorb into another; a read host's reply fans out to
        the requests combined into it.  Every write of the step is
        applied, a combined one standing behind the host that carried
        it, with the requesting processor's id — not the row — deciding
        write conflicts.
        """
        n_reads = cols.n_reads
        self._apply_memory(
            zip(
                cols.addrs[n_reads:].tolist(),
                cols.sources[n_reads:].tolist(),
                cols.payloads,
            )
        )
        absorbed = np.zeros(cols.n, dtype=bool)
        absorbed[router.absorbed_rows()] = True
        return (~absorbed[:n_reads]).nonzero()[0]

    def _reverse_path_replies(self, router, read_hosts, *, budget, num_nodes):
        """Replies walk the request paths in reverse, splitting at the
        combining-tree merge points (Theorem 2.6); *read_hosts* are rows
        of the request population *router* just routed.

        Runs *unconstrained* on both engines — ``node_capacity`` applies
        to request routing only — and without a link-fault view.  If
        capacity is ever added to one branch it must be added to both
        (and the differential tests extended), or the bit-for-bit
        contract breaks.
        """
        if router.last_fast_run is not None:
            # The fast request run left its arrays: replay the compiled
            # trajectories backwards, keyed by the links that run
            # already keyed, spawning off static trigger tables.
            return route_replies_fast(
                router.last_fast_run,
                read_hosts,
                budget=budget,
                num_nodes=num_nodes,
                observer=self.observer,
            )
        # Reference engine: the packets the router materialised
        # recorded their traces.
        requests = router.last_packets
        return SynchronousEngine(observer=self.observer).run(
            build_replies([requests[i] for i in read_hosts.tolist()]),
            reply_next_hop,
            max_steps=budget,
            on_arrival=ReplySpawner(),
        )

    def _finish_step(
        self, cols: StepColumns, req_stats, reply_stats, log, modules: np.ndarray
    ) -> StepCost:
        """Check the reply phase (``None`` when the step had no reads),
        assemble the :class:`StepCost` — *modules* is the successful
        attempt's column, in the step's row order — advance
        ``virtual_clock`` past the step and emit the step metrics."""
        reply_steps = 0
        max_queue = req_stats.max_queue
        credits_stalled = req_stats.credits_stalled
        if reply_stats is not None:
            if not reply_stats.completed:
                raise self._failure(f"{self.network} replies did not complete", log)
            if reply_stats.delivered != cols.n_reads:
                err = ReplyCountError(
                    f"{cols.n_reads} reads but {reply_stats.delivered} "
                    "replies delivered",
                    log,
                )
                err.flight_tail = self._obs.flight_tail()
                raise err
            reply_steps = reply_stats.steps
            max_queue = max(max_queue, reply_stats.max_queue)
            credits_stalled += reply_stats.credits_stalled
            log.fault_stalls += reply_stats.fault_stalls
            log.run_modes.append(reply_stats.run_mode)
        cost = StepCost(
            request_steps=req_stats.steps,
            reply_steps=reply_steps,
            rehashes=log.rehashes,
            combines=req_stats.combines,
            max_queue=max_queue,
            requests=cols.n,
            credits_stalled=credits_stalled,
            stall_steps=log.stall_steps,
            fault_stalls=log.fault_stalls,
            deadlock_retries=log.deadlock_retries,
            run_modes=tuple(log.run_modes),
            modules=modules,
        )
        self.virtual_clock += cost.total_steps + cost.stall_steps
        obs = self._obs
        obs.count("pram_steps_total", network=self.network)
        obs.count("network_steps_total", cost.total_steps, network=self.network)
        obs.observe("step_total_steps", cost.total_steps, network=self.network)
        return cost

    def emulate_trace(
        self, trace: MemoryTrace | Sequence[RequestColumns]
    ) -> EmulationReport:
        report = EmulationReport(scale=self.scale)
        steps = trace.steps if isinstance(trace, MemoryTrace) else list(trace)
        for step in steps:
            if step.num_requests == 0:
                report.add(StepCost(0, 0))
                continue
            report.add(self.emulate_step(step))
        return report
