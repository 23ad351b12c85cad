"""Open-loop streaming driver: feed an emulator epoch by epoch.

:class:`OnlineEmulator` turns the closed-batch PRAM emulators into an
open service.  A :class:`~repro.traffic.generators.WorkloadGenerator`
produces arrivals; an admission queue smooths them into *epochs* — one
emulated PRAM step each — and windowed telemetry
(:class:`~repro.traffic.telemetry.TrafficReport`) records what the
service did.

Epoch loop
----------
Per epoch: (1) the generator's arrivals for the epoch enter the
admission queue (the ``"drop"`` overflow policy rejects arrivals beyond
``queue_limit``; ``"defer"`` keeps everything); (2) up to
``admit_limit`` queued requests are admitted FIFO into a
:class:`~repro.pram.trace.StepTrace` — requests past their
``request_timeout`` deadline expire here instead; (3) the emulator
serves the step — hashing, request routing under whatever
``node_capacity`` / ``flow_control`` / fault schedule the emulator was
built with, memory ops, replies; (4) the virtual clock advances by the
step's network cost (successful phases *plus* failed-attempt stalls)
and every served request's sojourn (arrival -> delivery, in network
steps) is recorded.  Un-admitted requests stay queued and carry over —
under credit backpressure a congested epoch takes longer, the clock
advances further, and the queued requests' sojourns grow: exactly the
open-loop feedback a closed batch cannot express.

Degraded-mode hardening
-----------------------
A step that the emulator gives up on (it raises
:class:`~repro.faults.RehashStormError` when a fault schedule keeps an
attempt from completing) does **not** lose its requests: each one is
re-enqueued at the back of the queue with an exponential-backoff
eligibility time (``backoff * 2**(attempt-1)`` virtual steps), up to
``retry_limit`` attempts, after which it moves to ``dead_letters``.
When every queued request is backing off, the driver fast-forwards the
clock to the earliest eligibility instead of spinning idle epochs.
Requests therefore obey an exact conservation law the tests and
benchmark gates assert::

    arrivals == delivered + dropped + timed_out + dead_lettered + backlog

The driver also pins the emulator's fault clock (``virtual_clock``) to
its own every epoch, so a :class:`~repro.faults.FaultSchedule` runs on
the same timeline the telemetry reports, and it annotates each epoch
with the fault events that fired during it.

Admitted batches are precompiled work for the engines: requests
become one PRAM step, which the emulators route through their
``engine="auto"`` dispatch, so online epochs stay on the vectorized
batch / constrained-batch paths.  The per-epoch dispatch history on the
report (``run_modes``) lets tests assert that no epoch silently fell
back to the reference engine.

Reproducibility: the workload stream is a pure function of the
generator's seed and the emulator pre-draws its routing randomness, so
a fixed (workload seed, emulator seed) pair replays bit-identically on
``engine="fast"`` and ``engine="reference"``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from repro.emulation.base import Emulator, StepCost
from repro.faults import RehashStormError
from repro.obs import NULL_OBSERVER
from repro.pram.trace import ReadRequest, StepTrace, WriteRequest
from repro.traffic.generators import TrafficRequest, WorkloadGenerator
from repro.traffic.telemetry import EpochRecord, TrafficReport

__all__ = ["DriverAlreadyRanError", "OnlineEmulator", "QOS_CLASSES", "TenantPolicy"]

OVERFLOW_POLICIES = ("defer", "drop")

#: admission priority order, highest first
QOS_CLASSES = ("gold", "silver", "bronze")


@dataclass(frozen=True)
class TenantPolicy:
    """Admission policy for one tenant.

    ``quota`` bounds the requests admitted for the tenant in any one
    epoch (``None`` = unlimited); ``qos`` picks the priority class.
    """

    tenant: str
    qos: str = "silver"
    quota: int | None = None
    #: heap rank of ``qos``: lower admits first (derived, read per push)
    rank: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.qos not in QOS_CLASSES:
            raise ValueError(
                f"unknown qos class {self.qos!r}; pick one of {QOS_CLASSES}"
            )
        if self.quota is not None and self.quota < 1:
            raise ValueError("quota must be >= 1 (or None for unlimited)")
        object.__setattr__(self, "rank", QOS_CLASSES.index(self.qos))


class DriverAlreadyRanError(RuntimeError):
    """A second :meth:`OnlineEmulator.run` on the same driver.  Terminal:
    the workload stream and the clock both restart at 0, so a re-run
    would replay the same arrivals against mutated emulator state."""


def _tenant_counts(*groups) -> dict[str, int]:
    """Requests per tenant label across any number of request iterables."""
    counts: dict[str, int] = {}
    for group in groups:
        for req in group:
            counts[req.tenant] = counts.get(req.tenant, 0) + 1
    return counts


class OnlineEmulator:
    """Drive an :class:`~repro.emulation.base.Emulator` with open traffic.

    Parameters
    ----------
    emulator:
        Any :class:`~repro.emulation.base.Emulator` — a configured
        :class:`~repro.emulation.MeshEmulator` or
        :class:`~repro.emulation.LeveledEmulator` (any engine, any
        flow-control setting, optionally carrying a fault schedule) or
        a :class:`~repro.sharding.ShardedEmulator` fleet.  The driver
        calls :meth:`emulate_step`, keeps the emulator's
        ``virtual_clock`` pinned to its own, and reads nothing of it
        beyond the ``Emulator`` service contract.
    workload:
        The seeded request source.  Its ``n_procs`` must not exceed the
        emulator's processor count.
    admit_limit:
        Maximum requests admitted into one epoch's PRAM step (default:
        the workload's ``n_procs`` — one request per processor, the
        natural rectangular step).  Arrivals beyond it wait.
    queue_limit / overflow:
        Admission-queue bound and what to do beyond it: ``"defer"``
        (default) never drops — the queue grows without bound (a
        ``queue_limit`` is rejected as meaningless) and saturation
        shows up as growing backlog; ``"drop"`` rejects (drop-tail)
        arrivals that would exceed ``queue_limit``.
    exclusive:
        Admit at most one request per address per epoch: later requests
        for an already-admitted address are *skipped over* (they keep
        their FIFO position and retry next epoch) rather than blocking
        the queue head.  Defaults to ``True`` exactly when the emulator
        runs ``mode="erew"``, which rejects concurrent accesses; CRCW
        emulators take the whole batch and let combining handle
        concurrency.  Under a hot-spot key distribution this rule *is*
        the cost of exclusive access: a hot address serializes to one
        touch per epoch, so its excess demand accumulates as backlog.
    request_timeout:
        Per-request deadline in virtual network steps.  A request still
        undelivered ``request_timeout`` steps after arrival expires at
        its next admission opportunity (lazily, when it reaches the
        head of its address's sub-queue) and is counted ``timed_out``.
        ``None`` (default) disables deadlines.
    retry_limit / backoff:
        Degraded-mode retry policy: a request whose serving step failed
        (:class:`~repro.faults.RehashStormError`) is re-enqueued with
        eligibility ``clock + backoff * 2**(attempt-1)`` for up to
        ``retry_limit`` attempts, then dead-lettered (kept, with its
        retry count, in :attr:`dead_letters`).
    rehash_storm_cap:
        Hard guard: if a *successful* epoch needed more than this many
        rehashes, the run aborts with
        :class:`~repro.faults.RehashStormError` instead of silently
        burning time.  ``None`` (default) disables the guard.
    policies / default_policy:
        Multi-tenant QoS: an iterable of :class:`TenantPolicy` (one per
        tenant label, duplicates rejected) and the policy of every
        tenant without one (default: ``silver``, no quota).  Heads pop
        in ``(qos rank, arrival)`` order — strict priority across
        classes, FIFO within a class — and a head whose tenant already
        used its per-epoch ``quota`` is deferred like one still backing
        off.  Only the admission *order* depends on policies; with none
        given every tenant shares the default class and admission is
        plain FIFO.
    """

    def __init__(
        self,
        emulator: Emulator,
        workload: WorkloadGenerator,
        *,
        admit_limit: int | None = None,
        queue_limit: int | None = None,
        overflow: str = "defer",
        exclusive: bool | None = None,
        request_timeout: int | None = None,
        retry_limit: int = 3,
        backoff: int = 4,
        rehash_storm_cap: int | None = None,
        observer=None,
        policies=(),
        default_policy: TenantPolicy | None = None,
    ) -> None:
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {overflow!r}; "
                f"pick one of {OVERFLOW_POLICIES}"
            )
        if overflow == "drop" and queue_limit is None:
            raise ValueError('overflow="drop" requires a queue_limit')
        if overflow == "defer" and queue_limit is not None:
            raise ValueError(
                'queue_limit has no effect under overflow="defer"; '
                'use overflow="drop" for a bounded queue'
            )
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if request_timeout is not None and request_timeout < 1:
            raise ValueError("request_timeout must be >= 1")
        if retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if backoff < 1:
            raise ValueError("backoff must be >= 1")
        if rehash_storm_cap is not None and rehash_storm_cap < 1:
            raise ValueError("rehash_storm_cap must be >= 1")
        procs = emulator.n_processors
        if procs is not None and workload.n_procs > procs:
            raise ValueError(
                f"workload spans {workload.n_procs} processors but the "
                f"emulator has only {procs}"
            )
        memory = emulator.memory
        if memory is not None and workload.address_space > memory.size:
            raise ValueError(
                f"workload draws addresses in [0, {workload.address_space}) "
                f"but the emulator's memory has only {memory.size} cells"
            )
        if admit_limit is None:
            admit_limit = workload.n_procs
        if admit_limit < 1:
            raise ValueError("admit_limit must be >= 1")
        if exclusive is None:
            exclusive = emulator.mode == "erew"
        self.emulator = emulator
        self.workload = workload
        #: repro.obs observer for epoch spans and service metrics; when
        #: not given explicitly, the emulator's own observer is reused so
        #: one wiring point covers the whole serving stack
        self.observer = observer if observer is not None else emulator.observer
        self.admit_limit = int(admit_limit)
        self.queue_limit = queue_limit
        self.overflow = overflow
        self.exclusive = bool(exclusive)
        self.request_timeout = request_timeout
        self.retry_limit = int(retry_limit)
        self.backoff = int(backoff)
        self.rehash_storm_cap = rehash_storm_cap
        self.policies: dict[str, TenantPolicy] = {}
        for policy in policies:
            if policy.tenant in self.policies:
                raise ValueError(f"duplicate policy for {policy.tenant!r}")
            self.policies[policy.tenant] = policy
        self.default_policy = (
            default_policy if default_policy is not None else TenantPolicy("default")
        )
        # Admission state: one FIFO sub-queue per address plus a lazy
        # min-heap of (qos rank, seq, addr) over the sub-queue *heads*
        # (the rank is the head's tenant's; with one class it is a
        # constant and the order is (seq, addr)).  Exclusive
        # admission used to rescan (and re-splice) the whole backlog
        # every epoch — O(epochs x backlog) on a hot-spot workload; the
        # heap pops exactly the admitted/deferred heads instead.
        # Invariant: the heap holds an entry for the current head of
        # every non-empty sub-queue (plus possibly stale entries, which
        # the seq check discards).  Entries are
        # (seq, request, arrival_clock, not_before).
        self._subq: dict[int, deque[tuple[int, TrafficRequest, int, int]]] = {}
        self._heap: list[tuple[int, int, int]] = []
        self._seq = 0
        self._n_queued = 0
        #: queued requests per tenant label (kept incrementally so the
        #: per-epoch backlog snapshot is O(tenants), not O(backlog))
        self._queued_by_tenant: dict[str, int] = {}
        #: retry attempts per request id (only failed-step survivors)
        self._retries: dict[int, int] = {}
        #: requests that exhausted ``retry_limit``: (request,
        #: arrival_clock, attempts) — kept for post-mortem accounting
        self.dead_letters: list[tuple[TrafficRequest, int, int]] = []
        #: requests expired by the last ``_admit`` call (per-epoch scratch)
        self._expired: list[TrafficRequest] = []
        #: virtual time in network steps (served cost + retry stalls +
        #: backoff fast-forwards)
        self.clock = 0
        self._ran = False

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self.policies.get(tenant, self.default_policy)

    @property
    def backlog(self) -> int:
        """Requests currently waiting in the admission queue."""
        return self._n_queued

    @property
    def queue(self) -> list[tuple[TrafficRequest, int]]:
        """The queued (request, arrival_clock) pairs in FIFO order.

        A read-only snapshot (introspection and tests); admission runs
        on the internal sub-queue structures.
        """
        entries: list[tuple[int, TrafficRequest, int, int]] = []
        for dq in self._subq.values():
            entries.extend(dq)
        entries.sort(key=lambda t: t[0])
        return [(req, stamp) for _seq, req, stamp, _nb in entries]

    # ------------------------------------------------------------------
    def _enqueue(self, req: TrafficRequest, stamp: int, not_before: int) -> None:
        dq = self._subq.get(req.addr)
        if dq is None:
            dq = self._subq[req.addr] = deque()
        if not dq:  # the new head: its tenant's class ranks the sub-queue
            rank = self.policies.get(req.tenant, self.default_policy).rank
            heappush(self._heap, (rank, self._seq, req.addr))
        dq.append((self._seq, req, stamp, not_before))
        self._seq += 1
        self._n_queued += 1
        t = req.tenant
        self._queued_by_tenant[t] = self._queued_by_tenant.get(t, 0) + 1

    def _dequeued(self, req: TrafficRequest) -> None:
        """Bookkeeping for one request leaving the admission queue."""
        self._n_queued -= 1
        left = self._queued_by_tenant.get(req.tenant, 0) - 1
        if left > 0:
            self._queued_by_tenant[req.tenant] = left
        else:
            self._queued_by_tenant.pop(req.tenant, None)

    def _admit(self) -> list[tuple[TrafficRequest, int]]:
        """Pop this epoch's batch: strict priority across QoS classes,
        FIFO within one, respecting the exclusive rule and quotas.

        Heads are taken in ``(qos rank, arrival seq)`` order.  A head is
        *deferred* — left queued, position preserved — when it is still
        backing off, (exclusive mode) its address was already admitted
        this epoch, or its tenant has used its per-epoch ``quota``;
        deferring the head defers its whole sub-queue, which is exactly
        the old skip-scan semantics, since every later request for that
        address queued behind it.  Heads past their ``request_timeout``
        deadline expire here instead of admitting; they land in
        ``self._expired`` (reset per call) for the epoch record.
        """
        batch: list[tuple[TrafficRequest, int]] = []
        expired: list[TrafficRequest] = []
        self._expired = expired
        deferred: list[tuple[int, int, int]] = []
        seen_addrs: set[int] = set()
        used: dict[str, int] = {}  # admitted this epoch, per quota'd tenant
        heap, subq = self._heap, self._subq
        policy_of, default = self.policies.get, self.default_policy
        while heap and len(batch) < self.admit_limit:
            entry = heappop(heap)
            _rank, seq, addr = entry
            dq = subq.get(addr)
            if not dq or dq[0][0] != seq:
                continue  # stale heap entry
            _seq, req, stamp, not_before = dq[0]
            if (
                self.request_timeout is not None
                and self.clock - stamp > self.request_timeout
            ):
                dq.popleft()
                self._dequeued(req)
                expired.append(req)
            elif (
                not_before > self.clock
                or (self.exclusive and addr in seen_addrs)
                or (
                    (quota := policy_of(req.tenant, default).quota) is not None
                    and used.get(req.tenant, 0) >= quota
                )
            ):
                deferred.append(entry)
                continue
            else:
                dq.popleft()
                self._dequeued(req)
                if self.exclusive:
                    seen_addrs.add(addr)
                if quota is not None:
                    used[req.tenant] = used.get(req.tenant, 0) + 1
                batch.append((req, stamp))
            if dq:
                head = dq[0]
                rank = policy_of(head[1].tenant, default).rank
                heappush(heap, (rank, head[0], addr))
            else:
                del subq[addr]
        for item in deferred:
            heappush(heap, item)
        return batch

    @staticmethod
    def _build_step(batch: list[tuple[TrafficRequest, int]]) -> StepTrace:
        step = StepTrace()
        for req, _stamp in batch:
            if req.kind == "read":
                step.reads.append(ReadRequest(req.pid, req.addr))
            else:
                step.writes.append(WriteRequest(req.pid, req.addr, req.value))
        return step

    def _requeue_failed(
        self, batch: list[tuple[TrafficRequest, int]]
    ) -> tuple[int, int]:
        """Retry-or-dead-letter every request of a failed step."""
        retried = dead = 0
        for req, stamp in batch:
            attempt = self._retries.get(req.rid, 0) + 1
            self._retries[req.rid] = attempt
            if attempt > self.retry_limit:
                self.dead_letters.append((req, stamp, attempt - 1))
                dead += 1
            else:
                # Re-enqueue at the back (fresh seq) with exponential
                # backoff; the original stamp is kept so an eventual
                # delivery reports the true arrival->delivery sojourn.
                self._enqueue(
                    req, stamp, self.clock + self.backoff * 2 ** (attempt - 1)
                )
                retried += 1
        return retried, dead

    def _fast_forward(self) -> int:
        """Steps to the earliest backoff eligibility among queued heads
        (0 when anything is admissible now or the queue is empty)."""
        if not self._subq:
            return 0
        nxt = min(dq[0][3] for dq in self._subq.values())
        return max(0, nxt - self.clock)

    # ------------------------------------------------------------------
    def run(self, epochs: int) -> TrafficReport:
        """Serve *epochs* epochs of traffic; returns the telemetry report.

        One-shot: the workload stream starts at epoch 0 and the driver's
        clock at 0, so a second call would silently replay the same
        arrivals against mutated emulator state — it raises instead.
        """
        if self._ran:
            raise DriverAlreadyRanError(
                "OnlineEmulator.run is one-shot; build a fresh driver "
                "(and emulator) to run again"
            )
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self._ran = True
        stream = self.workload.stream(epochs)
        report = TrafficReport()
        emu = self.emulator
        obs = self.observer or NULL_OBSERVER
        faults = emu.faults
        annotate = faults is not None and bool(faults.schedule)
        for epoch in range(epochs):
            arrivals = stream[epoch]
            dropped = 0
            dropped_reqs: list[TrafficRequest] = []
            if self.overflow == "drop":
                room = self.queue_limit - self._n_queued
                if len(arrivals) > room:
                    dropped = len(arrivals) - max(room, 0)
                    dropped_reqs = list(arrivals[max(room, 0) :])
                    arrivals = arrivals[: max(room, 0)]
            arrivals_by_tenant = _tenant_counts(arrivals, dropped_reqs)
            for req in arrivals:
                self._enqueue(req, self.clock, self.clock)
            clock_before = self.clock
            dead_before = len(self.dead_letters)
            batch = self._admit()
            expired = self._expired
            retried = dead_lettered = 0
            served: list[tuple[TrafficRequest, int]] = []
            if batch:
                # Pin the emulator's fault clock to the driver's so the
                # schedule, the backoff timers, and the telemetry all
                # run on one timeline (fast-forwards included).
                emu.virtual_clock = self.clock
                with obs.span(
                    "admission_epoch",
                    category="epoch",
                    virtual_clock=self.clock,
                    epoch=epoch,
                    admitted=len(batch),
                ) as sp:
                    try:
                        cost = emu.emulate_step(self._build_step(batch))
                        served = batch
                    except RehashStormError as exc:
                        # The step burned time but delivered nothing; its
                        # requests go back through the retry policy.
                        cost = StepCost(
                            0,
                            0,
                            rehashes=exc.rehashes,
                            requests=len(batch),
                            stall_steps=exc.stall_steps,
                            deadlock_retries=exc.deadlock_retries,
                            run_modes=tuple(exc.run_modes),
                        )
                        self.clock += cost.stall_steps
                        retried, dead_lettered = self._requeue_failed(batch)
                        obs.count("epoch_storms_total")
                    else:
                        self.clock += cost.total_steps + cost.stall_steps
                        if (
                            self.rehash_storm_cap is not None
                            and cost.rehashes > self.rehash_storm_cap
                        ):
                            err = RehashStormError(
                                f"epoch {epoch} needed {cost.rehashes} "
                                f"rehashes (cap {self.rehash_storm_cap})",
                                rehashes=cost.rehashes,
                                stall_steps=cost.stall_steps,
                                deadlock_retries=cost.deadlock_retries,
                                run_modes=cost.run_modes,
                            )
                            err.flight_tail = obs.flight_tail()
                            raise err
                    sp.virtual_end = self.clock
            else:
                cost = StepCost(0, 0)
            stall_steps = cost.stall_steps
            if not served and self._n_queued:
                # Nothing admissible: everything queued is backing off.
                # Jump to the earliest eligibility instead of spinning.
                ff = self._fast_forward()
                self.clock += ff
                stall_steps += ff
            fault_events: tuple[str, ...] = ()
            if annotate and self.clock > clock_before:
                fault_events = tuple(
                    faults.events_between(clock_before, self.clock)
                )
            tenant_sojourns: dict[str, list[int]] = {}
            for req, stamp in served:
                tenant_sojourns.setdefault(req.tenant, []).append(
                    self.clock - stamp
                )
            addrs = np.asarray([req.addr for req, _ in served], dtype=np.int64)
            record = EpochRecord(
                epoch=epoch,
                arrivals=len(arrivals) + dropped,
                dropped=dropped,
                admitted=len(served),
                backlog=self._n_queued,
                steps=cost.total_steps,
                request_steps=cost.request_steps,
                reply_steps=cost.reply_steps,
                rehashes=cost.rehashes,
                combines=cost.combines,
                max_queue=cost.max_queue,
                credits_stalled=cost.credits_stalled,
                run_modes=cost.run_modes,
                clock=self.clock,
                sojourns=[self.clock - stamp for _req, stamp in served],
                sojourns_epochs=[epoch - req.epoch for req, _stamp in served],
                stall_steps=stall_steps,
                fault_stalls=cost.fault_stalls,
                deadlock_retries=cost.deadlock_retries,
                retried=retried,
                timed_out=len(expired),
                dead_lettered=dead_lettered,
                fault_events=fault_events,
                # asked after the step: the hash of the attempt that
                # succeeded (mid-step rehashes, detected-dead remap)
                modules=emu.serving_modules(addrs).tolist() if served else [],
                arrivals_by_tenant=arrivals_by_tenant,
                dropped_by_tenant=_tenant_counts(dropped_reqs),
                delivered_by_tenant=_tenant_counts(r for r, _ in served),
                timed_out_by_tenant=_tenant_counts(expired),
                dead_lettered_by_tenant=_tenant_counts(
                    r for r, _stamp, _n in self.dead_letters[dead_before:]
                ),
                backlog_by_tenant=dict(self._queued_by_tenant),
                tenant_sojourns=tenant_sojourns,
            )
            report.add(record)
            _publish(obs, record)
        return report


def _publish(obs, record: EpochRecord) -> None:
    """An epoch's service metrics, read off its finished record — the
    one writer, so the registry and the report cannot drift."""
    obs.count("epochs_total")
    obs.count("requests_admitted_total", record.admitted)
    if record.dropped:
        obs.count("requests_dropped_total", record.dropped)
    obs.gauge("backlog_requests", record.backlog)
    obs.record(
        "epoch",
        virtual_clock=record.clock,
        epoch=record.epoch,
        admitted=record.admitted,
        backlog=record.backlog,
        rehashes=record.rehashes,
    )
