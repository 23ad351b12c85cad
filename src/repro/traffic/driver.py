"""Open-loop streaming driver: feed an emulator epoch by epoch.

:class:`OnlineEmulator` turns the closed-batch PRAM emulators into an
open service.  A :class:`~repro.traffic.generators.WorkloadGenerator`
produces arrivals; an admission queue smooths them into *epochs* — one
emulated PRAM step each — and windowed telemetry
(:class:`~repro.traffic.telemetry.TrafficReport`) records what the
service did.

Epoch loop
----------
Per epoch: (1) the generator's arrivals for the epoch — one
:class:`~repro.traffic.generators.RequestBatch`, a ``(field x request)``
integer matrix — are appended to the *pending table* (the ``"drop"``
overflow policy rejects arrivals beyond ``queue_limit``; ``"defer"``
keeps everything); (2) ``_admit`` selects up to ``admit_limit`` of the
table's columns — requests past their ``request_timeout`` deadline
expire here instead — and their processor / address / kind / value rows
become the :class:`~repro.pram.trace.RequestColumns` of one PRAM step;
(3) the emulator serves the step — hashing, request routing under
whatever ``node_capacity`` / ``flow_control`` / fault schedule the
emulator was built with, memory ops, replies; (4) the virtual clock
advances by the step's network cost (successful phases *plus*
failed-attempt stalls) and the epoch's record is read off the served
columns (sojourns are ``clock - stamp``, per-tenant counts one
``bincount`` over the tenant rows).  Un-admitted requests stay in the
table and carry over — under credit backpressure a congested epoch
takes longer, the clock advances further, and the queued requests'
sojourns grow: exactly the open-loop feedback a closed batch cannot
express.

A request is a table column from the generator to the
:class:`~repro.traffic.telemetry.EpochRecord`; no per-request object is
built on the way.  :class:`~repro.traffic.generators.TrafficRequest`
*row views* are made where somebody reads them: :attr:`dead_letters`
and iterating a batch.

Degraded-mode hardening
-----------------------
A step that the emulator gives up on (it raises
:class:`~repro.faults.RehashStormError` when a fault schedule keeps an
attempt from completing) does **not** lose its requests: each one is
re-appended to the table (a fresh seq, its attempt count one higher)
with an exponential-backoff eligibility time (``backoff *
2**(attempt-1)`` virtual steps, computed in int64), up to
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

Admitted batches are precompiled work for the engines: the selected
columns are one PRAM step, which the emulators route through their
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

from dataclasses import dataclass, field

import numpy as np

from repro.emulation.base import Emulator, StepCost
from repro.faults import RehashStormError
from repro.obs import NULL_OBSERVER
from repro.pram.trace import RequestColumns
from repro.traffic.generators import (
    ADDR,
    EPOCH,
    IS_READ,
    PID,
    TENANT,
    VALUE,
    RequestBatch,
    TrafficRequest,
    WorkloadGenerator,
)
from repro.traffic.telemetry import EpochRecord, TrafficReport

__all__ = ["DriverAlreadyRanError", "OnlineEmulator", "QOS_CLASSES", "TenantPolicy"]

OVERFLOW_POLICIES = ("defer", "drop")

#: admission priority order, highest first
QOS_CLASSES = ("gold", "silver", "bronze")

#: the pending table's rows below a batch matrix's seven request fields
STAMP, NOT_BEFORE, ATTEMPTS = 7, 8, 9
_TABLE_ROWS = 10


@dataclass(frozen=True)
class TenantPolicy:
    """Admission policy for one tenant.

    ``quota`` bounds the requests admitted for the tenant in any one
    epoch (``None`` = unlimited); ``qos`` picks the priority class.
    """

    tenant: str
    qos: str = "silver"
    quota: int | None = None
    #: rank of ``qos``: lower admits first (derived)
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
        head of its address's chain) and is counted ``timed_out``.
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
        tenant without one (default: ``silver``, no quota).  Per-address
        heads are taken in ``(qos rank, arrival)`` order — strict
        priority across classes, FIFO within a class — and a head whose
        tenant already used its per-epoch ``quota`` blocks like one
        still backing off (the rule is stated once, beside ``_admit``).
        Only the admission *order* depends on policies; with none given
        every tenant shares the default class and admission is plain
        FIFO.
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
        if backoff << retry_limit >= 1 << 62:
            raise ValueError(
                "backoff * 2**retry_limit overflows the int64 virtual clock"
            )
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
        # Admission state: the pending table.  One int64 matrix, a column
        # per queued request: the batch matrix's seven rows (TENANT
        # re-indexed into this driver's ``_tenants``) plus STAMP (the
        # clock at arrival), NOT_BEFORE (backoff eligibility) and
        # ATTEMPTS (failed steps so far).  Columns stay in seq order —
        # arrivals and backoff re-queues append, ``_admit`` masks out
        # what it popped — so a column's position *is* its seq.
        self._table = np.empty((_TABLE_ROWS, 0), dtype=np.int64)
        #: tenant labels in first-seen order, and per label (same index)
        #: its policy's rank and quota
        self._tenants: list[str] = []
        self._rank = np.empty(0, dtype=np.int64)
        self._quota: list[int | None] = []
        #: requests that exhausted ``retry_limit``: (request,
        #: arrival_clock, attempts) — kept for post-mortem accounting
        self.dead_letters: list[tuple[TrafficRequest, int, int]] = []
        #: table columns expired by the last ``_admit`` call
        self._expired = self._table
        #: virtual time in network steps (served cost + retry stalls +
        #: backoff fast-forwards)
        self.clock = 0
        self._ran = False

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self.policies.get(tenant, self.default_policy)

    @property
    def backlog(self) -> int:
        """Requests currently waiting in the admission queue."""
        return self._table.shape[1]

    def _views(self, columns: np.ndarray) -> RequestBatch:
        """Table *columns* as a batch (iterate it for ``TrafficRequest``s)."""
        return RequestBatch(columns[:STAMP], tuple(self._tenants))

    # ------------------------------------------------------------------
    def _tenant_column(self, batch: RequestBatch) -> np.ndarray:
        """*batch*'s ``TENANT`` row in this driver's tenant indices,
        interning labels (and their policies) on first sight."""
        known = self._tenants
        for name in batch.tenants:
            if name not in known:
                known.append(name)
                policy = self.policy_for(name)
                self._rank = np.append(self._rank, policy.rank)
                self._quota.append(policy.quota)
        column = batch.matrix[TENANT]
        if list(batch.tenants) == known[: len(batch.tenants)]:
            return column
        return np.asarray([known.index(t) for t in batch.tenants])[column]

    def _tenant_counts(self, *columns: np.ndarray) -> np.ndarray:
        """Requests per tenant label in each ``TENANT`` column, as a
        ``(len(columns), len(_tenants))`` table: row r is column r's
        ``bincount`` (an empty column counts nothing)."""
        width = len(self._tenants)
        counts = np.zeros((len(columns), width), dtype=np.int64)
        for r, column in enumerate(columns):
            if column.size:
                counts[r] = np.bincount(column, minlength=width)
        return counts

    def _enqueue(
        self, matrix: np.ndarray, tenants: np.ndarray, stamp: int, not_before: int
    ) -> None:
        """Append a batch's request *matrix* to the pending table, its
        ``TENANT`` row replaced by *tenants* (the same rows already in
        this driver's indices, from :meth:`_tenant_column`): one
        allocation of the grown table, the queued columns copied in
        front."""
        queued = self._table.shape[1]
        table = np.empty((_TABLE_ROWS, queued + matrix.shape[1]), dtype=np.int64)
        table[:, :queued] = self._table
        columns = table[:, queued:]
        columns[:STAMP] = matrix
        columns[TENANT] = tenants
        columns[STAMP] = stamp
        columns[NOT_BEFORE] = not_before
        columns[ATTEMPTS] = 0
        self._table = table

    def _admit(self) -> np.ndarray:
        """Pop this epoch's batch off the pending table, as table columns
        in pop order (``_expired`` gets the columns that timed out).

        The rule, stated without a data structure: each address's queued
        requests form a FIFO *chain*, and only a chain's oldest request
        — its head — can be taken.  The next head taken is the one with
        the smallest ``(qos rank, seq)``: strict priority across
        classes, FIFO within one.  A head past its ``request_timeout``
        expires; a head still backing off, whose address was already
        admitted this epoch (exclusive mode) or whose tenant has used
        its per-epoch quota *blocks* — it stays queued, and so does
        everything behind it in its chain; any other head is admitted.
        The pass ends with the ``admit_limit``-th admission.

        In closed form: a chain is cut at its first blocker and every
        row before the cut is popped, **in order of the running maximum
        of ``(rank, seq)`` along its chain, then its own seq** — a head
        exposed with a smaller key than the last pop is popped next,
        which is how a gold request waits behind a bronze head for its
        address and then jumps the silver queue (with one class this is
        plain seq order).  Back-off and exclusivity blockers are known
        up front (in exclusive mode: every live row with a live row
        before it in its chain; expired rows behind an admitted head
        still expire).  Quota blockers depend on the pop order: the
        tenant that first exceeds its quota, in pop order, has its live
        rows from there on made blockers and reachability is recomputed
        (pop keys never change, and rows already popped stay popped) —
        one pass per quota'd tenant at most.  Last, the pop sequence is
        cut right after the ``admit_limit``-th live row; expired rows
        past it stay queued.
        """
        clock = self.clock
        full = self._table
        n = full.shape[1]
        order = full[ADDR].argsort(kind="stable")  # chains, seq ascending
        addr, tenant = full[ADDR][order], full[TENANT][order]
        head = np.empty(n, dtype=bool)
        head[:1] = True
        np.not_equal(addr[1:], addr[:-1], out=head[1:])
        chain = head.cumsum() - 1
        start = head.nonzero()[0][chain]  # per row: its chain's first row
        # live: not past its deadline (None: no deadline, every row)
        live = None
        blocker = full[NOT_BEFORE][order] > clock
        if self.request_timeout is not None:
            live = clock - full[STAMP][order] <= self.request_timeout
            blocker &= live
        if self.exclusive:
            if live is None:  # every row but a chain's head has one before it
                blocker |= ~head
            else:
                seen = live.cumsum()
                blocker |= live & (seen - live > seen[start] - live[start])
        # chain c's keys are lifted above chain c-1's, so one running
        # maximum over the whole column is the per-chain one
        lift = chain * (len(QOS_CLASSES) * n)
        key = np.maximum.accumulate(self._rank[tenant] * n + order + lift) - lift
        while True:
            # the rows with no blocker at or before them in their chain
            seen = blocker.cumsum()
            pops = (seen == seen[start] - blocker[start]).nonzero()[0]
            pops = pops[key[pops].argsort(kind="stable")]
            taken = pops if live is None else pops[live[pops]]
            # the quota'd-tenant loop: where each one's (quota+1)-th
            # admission sits in the pop order
            over = {}
            for t, quota in enumerate(self._quota):
                if quota is not None:
                    at = (tenant[taken] == t).nonzero()[0][quota:]
                    if at.size:
                        over[at[0]] = taken[at]
            if not over:
                break
            blocker[over[min(over)]] = True
        if live is None:
            pops = taken = pops[: self.admit_limit]
            # a new empty table: a slice of ``full`` would keep it alive
            self._expired = np.empty((_TABLE_ROWS, 0), dtype=np.int64)
        else:
            alive = live[pops]
            last = alive.cumsum().searchsorted(self.admit_limit) + 1
            pops, alive = pops[:last], alive[:last]
            taken = pops[alive]
            self._expired = full.take(order[pops[~alive]], axis=1)
        popped = np.zeros(n, dtype=bool)
        popped[order[pops]] = True
        self._table = full[:, ~popped]
        return full.take(order[taken], axis=1)

    def _requeue_failed(self, batch: np.ndarray) -> np.ndarray:
        """Retry-or-dead-letter every request of a failed step; returns
        the dead-lettered columns."""
        attempt = batch[ATTEMPTS] + 1
        dead = batch[:, attempt > self.retry_limit]
        # dead letters: the one place the served path builds request
        # objects (row views), for post-mortem reading
        self.dead_letters += zip(
            self._views(dead), dead[STAMP].tolist(), dead[ATTEMPTS].tolist()
        )
        # Re-enqueue the rest at the back (fresh seq) with exponential
        # backoff; the original stamp is kept so an eventual delivery
        # reports the true arrival->delivery sojourn.
        retry = batch[:, attempt <= self.retry_limit]
        retry[ATTEMPTS] += 1
        retry[NOT_BEFORE] = self.clock + self.backoff * 2 ** (retry[ATTEMPTS] - 1)
        self._table = np.concatenate((self._table, retry), axis=1)
        return dead

    def _fast_forward(self) -> int:
        """Steps to the earliest backoff eligibility among queued heads
        (0 when anything is admissible now or the queue is empty)."""
        if not self.backlog:
            return 0
        _addrs, heads = np.unique(self._table[ADDR], return_index=True)
        return max(0, int(self._table[NOT_BEFORE, heads].min()) - self.clock)

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
            offered = self._tenant_column(arrivals)
            room = len(arrivals)
            if self.overflow == "drop":  # drop-tail beyond queue_limit
                room = min(room, max(self.queue_limit - self.backlog, 0))
            self._enqueue(
                arrivals.matrix[:, :room], offered[:room], self.clock, self.clock
            )
            clock_before = self.clock
            batch = self._admit()
            expired = self._expired
            served = dead = batch[:, :0]
            if batch.shape[1]:
                # Pin the emulator's fault clock to the driver's so the
                # schedule, the backoff timers, and the telemetry all
                # run on one timeline (fast-forwards included).
                emu.virtual_clock = self.clock
                with obs.span(
                    "admission_epoch",
                    category="epoch",
                    virtual_clock=self.clock,
                    epoch=epoch,
                    admitted=batch.shape[1],
                ) as sp:
                    try:
                        cost = emu.emulate_step(
                            RequestColumns(
                                batch[PID], batch[ADDR], batch[IS_READ], batch[VALUE]
                            )
                        )
                        served = batch
                    except RehashStormError as exc:
                        # The step burned time but delivered nothing; its
                        # requests go back through the retry policy.
                        cost = StepCost(
                            0,
                            0,
                            rehashes=exc.rehashes,
                            requests=batch.shape[1],
                            stall_steps=exc.stall_steps,
                            deadlock_retries=exc.deadlock_retries,
                            run_modes=tuple(exc.run_modes),
                        )
                        self.clock += cost.stall_steps
                        dead = self._requeue_failed(batch)
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
            n_served = served.shape[1]
            stall_steps = cost.stall_steps
            if not n_served and self.backlog:
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
            record = EpochRecord(
                epoch=epoch,
                arrivals=len(arrivals),
                dropped=len(arrivals) - room,
                admitted=n_served,
                backlog=self.backlog,
                steps=cost.total_steps,
                request_steps=cost.request_steps,
                reply_steps=cost.reply_steps,
                rehashes=cost.rehashes,
                combines=cost.combines,
                max_queue=cost.max_queue,
                credits_stalled=cost.credits_stalled,
                run_modes=cost.run_modes,
                clock=self.clock,
                sojourns=(self.clock - served[STAMP]).tolist(),
                sojourns_epochs=(epoch - served[EPOCH]).tolist(),
                stall_steps=stall_steps,
                fault_stalls=cost.fault_stalls,
                deadlock_retries=cost.deadlock_retries,
                retried=batch.shape[1] - n_served - dead.shape[1],
                timed_out=expired.shape[1],
                dead_lettered=dead.shape[1],
                fault_events=fault_events,
                # the step's own column: the hash of the attempt that
                # succeeded (mid-step rehashes, detected-dead remap)
                modules=cost.modules.tolist(),
                tenants=tuple(self._tenants),
                # rows in TENANT_COUNTERS order
                tenant_counts=self._tenant_counts(
                    offered,
                    served[TENANT],
                    offered[room:],
                    expired[TENANT],
                    dead[TENANT],
                    self._table[TENANT],
                ),
                sojourn_tenants=served[TENANT].tolist(),
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
    obs.record(
        "epoch",
        virtual_clock=record.clock,
        epoch=record.epoch,
        admitted=record.admitted,
        backlog=record.backlog,
        rehashes=record.rehashes,
    )
