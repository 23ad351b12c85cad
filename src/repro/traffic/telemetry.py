"""Windowed service telemetry for online emulation runs.

The driver (:mod:`repro.traffic.driver`) measures time in *network
steps*: each served epoch advances a virtual clock by the PRAM step's
routing cost (request + reply phases), so every latency below is in the
same unit the paper's theorems bound.  A request's **sojourn** is
``delivery_clock - arrival_clock``: the steps spent waiting in the
admission queue (while earlier epochs were served) plus the steps of
the epoch that served it.

:class:`TrafficReport` is what benchmarks and tests consume: per-epoch
records, sliding-window throughput and latency-percentile series,
steady-state summaries, and the per-epoch engine-dispatch history
(``run_modes``) that lets tests assert an online run never silently
fell back to the reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.schema import versioned

__all__ = ["EpochRecord", "TENANT_COUNTERS", "TrafficReport"]

#: the rows of :attr:`EpochRecord.tenant_counts`: arrivals first, then
#: every state an arrival can be in at the end of an epoch (``backlog``
#: is a depth, the others are this epoch's counts)
TENANT_COUNTERS = (
    "arrivals",
    "delivered",
    "dropped",
    "timed_out",
    "dead_lettered",
    "backlog",
)
_ARRIVALS, _DELIVERED, *_, _BACKLOG = range(len(TENANT_COUNTERS))


def _no_counts(width: int) -> np.ndarray:
    return np.zeros((len(TENANT_COUNTERS), width), dtype=np.int64)


def _deficits(totals: dict[str, dict[str, int]]) -> dict[str, int]:
    """Per tenant, arrivals minus the requests in every end state."""
    return {
        t: c["arrivals"] - sum(k for name, k in c.items() if name != "arrivals")
        for t, c in totals.items()
    }


@dataclass
class EpochRecord:
    """Everything measured about one epoch of an online run."""

    epoch: int
    #: new requests generated this epoch (before admission control)
    arrivals: int
    #: arrivals rejected by the ``"drop"`` overflow policy this epoch
    dropped: int
    #: requests admitted into (and fully served by) this epoch's PRAM step
    admitted: int
    #: admission-queue depth after the epoch (deferred carry-over)
    backlog: int
    #: network steps charged to this epoch (0 for an idle epoch)
    steps: int
    request_steps: int
    reply_steps: int
    rehashes: int
    combines: int
    max_queue: int
    credits_stalled: int
    #: engine execution mode of every routing run in this epoch's step
    #: (request attempts then replies); empty for idle epochs
    run_modes: tuple[str, ...]
    #: virtual clock (cumulative network steps) after this epoch
    clock: int
    #: sojourn (network steps, arrival -> delivery) of each request this
    #: epoch delivered, in admission order
    sojourns: list[int] = field(default_factory=list)
    #: sojourn of the same requests measured in epochs
    #: (serve epoch - arrival epoch)
    sojourns_epochs: list[int] = field(default_factory=list)
    #: virtual steps this epoch spent *not* delivering: failed request
    #: attempts inside the emulator (rehash retries, wedged or
    #: fault-stalled runs) plus driver backoff fast-forwards
    stall_steps: int = 0
    #: link-fault transmission stalls across the epoch's routing phases
    fault_stalls: int = 0
    #: failed attempts that ended in a credit DeadlockError (each was
    #: rehashed and retried inside the emulator)
    deadlock_retries: int = 0
    #: requests re-enqueued (with backoff) after this epoch's step failed
    retried: int = 0
    #: requests expired at admission by the ``request_timeout`` deadline
    timed_out: int = 0
    #: requests moved to the dead-letter list after exhausting retries
    dead_lettered: int = 0
    #: fault-schedule events that fired during this epoch's clock span,
    #: as stable ``describe()`` labels (annotations for plots/recovery)
    fault_events: tuple[str, ...] = ()
    #: memory module that served each delivered request, aligned with
    #: ``sojourns`` (empty when the emulator exposes no module mapping)
    modules: list[int] = field(default_factory=list)
    #: the driver's tenant labels at the end of the epoch, in first-seen
    #: order (single-tenant runs: ``("default",)``).  Labels are only
    #: ever appended, so an earlier epoch's labels are a prefix of a
    #: later epoch's.
    tenants: tuple[str, ...] = ()
    #: this epoch's counters per tenant: row r counts
    #: ``TENANT_COUNTERS[r]``, column j the label ``tenants[j]``.  The
    #: driver keeps them so the conservation law can be checked *per
    #: tenant* — the isolation property multi-tenant admission (quotas,
    #: QoS classes) must not break.  Read a row with :meth:`by_tenant`.
    tenant_counts: np.ndarray = field(default_factory=lambda: _no_counts(0))
    #: tenant index (into ``tenants``) of each delivered request,
    #: aligned with ``sojourns`` and ``modules``
    sojourn_tenants: list[int] = field(default_factory=list)

    def by_tenant(self, counter: str) -> dict[str, int]:
        """*counter*'s nonzero entries, keyed by tenant label."""
        row = self.tenant_counts[TENANT_COUNTERS.index(counter)].tolist()
        return {t: k for t, k in zip(self.tenants, row) if k}


class TrafficReport:
    """Aggregated telemetry of one :class:`~repro.traffic.OnlineEmulator` run."""

    def __init__(self, epochs: list[EpochRecord] | None = None) -> None:
        self.epochs: list[EpochRecord] = epochs if epochs is not None else []

    def add(self, record: EpochRecord) -> None:
        self.epochs.append(record)

    # ---- totals ----------------------------------------------------------
    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    @property
    def total_arrivals(self) -> int:
        return sum(e.arrivals for e in self.epochs)

    @property
    def total_delivered(self) -> int:
        return sum(e.admitted for e in self.epochs)

    @property
    def total_dropped(self) -> int:
        return sum(e.dropped for e in self.epochs)

    @property
    def total_steps(self) -> int:
        return sum(e.steps for e in self.epochs)

    @property
    def total_rehashes(self) -> int:
        return sum(e.rehashes for e in self.epochs)

    @property
    def total_deadlock_retries(self) -> int:
        """Credit-deadlock attempts the emulators absorbed via rehash."""
        return sum(e.deadlock_retries for e in self.epochs)

    @property
    def total_fault_stalls(self) -> int:
        return sum(e.fault_stalls for e in self.epochs)

    @property
    def total_stall_steps(self) -> int:
        return sum(e.stall_steps for e in self.epochs)

    @property
    def total_retried(self) -> int:
        return sum(e.retried for e in self.epochs)

    @property
    def total_timed_out(self) -> int:
        return sum(e.timed_out for e in self.epochs)

    @property
    def total_dead_lettered(self) -> int:
        return sum(e.dead_lettered for e in self.epochs)

    @property
    def final_backlog(self) -> int:
        return self.epochs[-1].backlog if self.epochs else 0

    def conservation_deficit(self) -> int:
        """Requests not accounted for — must be 0.

        Every arrival is exactly one of: delivered, dropped at
        admission, expired by its deadline, dead-lettered after
        retries, or still in the backlog.  (Retries are not a terminal
        state: a retried request is later delivered, dead-lettered, or
        left queued.)  Nonzero means the driver lost or duplicated a
        request; the fault tests and benchmark gates assert zero.
        """
        return self.total_arrivals - (
            self.total_delivered
            + self.total_dropped
            + self.total_timed_out
            + self.total_dead_lettered
            + self.final_backlog
        )

    # ---- per-tenant accounting -------------------------------------------
    def _tenant_table(self) -> tuple[dict[str, int], np.ndarray]:
        """The whole-run tenant table and the labels it reports.

        The table is every epoch's ``tenant_counts`` summed (an earlier
        epoch's labels are a prefix of the last one's, so its table adds
        into the leading columns), except ``backlog``: the final
        epoch's.  The labels are those with arrivals, deliveries or
        backlog in some epoch — a multi-tenant batch carries every
        label, even one whose lane is empty — sorted, each mapped to
        its column.
        """
        if not self.epochs:
            return {}, _no_counts(0)
        last = self.epochs[-1]
        total = _no_counts(len(last.tenants))
        for e in self.epochs:
            total[:, : len(e.tenants)] += e.tenant_counts
        seen = total[[_ARRIVALS, _DELIVERED, _BACKLOG]].any(axis=0)
        total[_BACKLOG] = last.tenant_counts[_BACKLOG]
        columns = {t: j for j, t in enumerate(last.tenants) if seen[j]}
        return dict(sorted(columns.items())), total

    @property
    def tenants(self) -> list[str]:
        """Every tenant label observed anywhere in the run, sorted."""
        return list(self._tenant_table()[0])

    def tenant_totals(self) -> dict[str, dict[str, int]]:
        """Whole-run counters per tenant.

        Keys per tenant: :data:`TENANT_COUNTERS` — ``backlog`` is the
        *final* epoch's queue depth, not a sum.
        """
        columns, total = self._tenant_table()
        return {
            t: dict(zip(TENANT_COUNTERS, total[:, j].tolist()))
            for t, j in columns.items()
        }

    def tenant_conservation_deficits(self) -> dict[str, int]:
        """The conservation law, sliced per tenant — every value must be 0.

        ``arrivals - (delivered + dropped + timed_out + dead_lettered +
        final backlog)`` per tenant: multi-tenant admission (quotas, QoS
        priorities) may *reorder* and *delay* a tenant's requests but
        must never lose or leak one across tenant boundaries.
        """
        return _deficits(self.tenant_totals())

    def tenant_sojourn_percentiles(
        self, qs: tuple[float, ...] = (50.0, 95.0, 99.0), *, skip_epochs: int = 0
    ) -> dict[str, dict[str, float]]:
        """Per-tenant sojourn percentiles — the QoS-class outcome metric."""
        tail = self.epochs[skip_epochs:]
        sojourns = np.asarray([s for e in tail for s in e.sojourns], dtype=np.float64)
        owners = np.asarray([t for e in tail for t in e.sojourn_tenants], dtype=np.int64)
        out: dict[str, dict[str, float]] = {}
        for t, j in self._tenant_table()[0].items():
            vals = sojourns[owners == j]
            out[t] = {
                f"p{q:g}": float(np.percentile(vals, q)) if len(vals) else float("nan")
                for q in qs
            }
        return out

    # ---- dispatch history ------------------------------------------------
    def run_mode_counts(self) -> dict[str, int]:
        """How many routing runs each engine mode served."""
        counts: dict[str, int] = {}
        for e in self.epochs:
            for m in e.run_modes:
                counts[m] = counts.get(m, 0) + 1
        return counts

    # ---- time series -----------------------------------------------------
    def credits_stalled_series(self) -> list[int]:
        return [e.credits_stalled for e in self.epochs]

    def throughput_series(self, window: int = 1) -> list[float]:
        """Delivered requests per network step over a trailing window.

        Entry i covers epochs ``[i - window + 1, i]`` (fewer at the
        start); epochs that charged no steps contribute 0 work and 0
        time, and a window with zero total steps reports 0.0.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        served = [e.admitted for e in self.epochs]
        steps = [e.steps for e in self.epochs]
        out: list[float] = []
        for i in range(len(self.epochs)):
            lo = max(0, i - window + 1)
            s = sum(steps[lo : i + 1])
            out.append(sum(served[lo : i + 1]) / s if s else 0.0)
        return out

    # ---- degraded-mode analyses ------------------------------------------
    def module_service_counts(self) -> dict[int, int]:
        """Delivered requests per serving memory module (whole run)."""
        counts: dict[int, int] = {}
        for e in self.epochs:
            for m in e.modules:
                counts[m] = counts.get(m, 0) + 1
        return counts

    def module_hotness(self, top: int | None = None) -> list[tuple[int, int]]:
        """(module, served) ranking, hottest first (ties by module id).

        Under module faults the surrogate of a dead module absorbs its
        addresses on top of its own, so it climbs this ranking — the
        degraded-mode load-imbalance signal.
        """
        ranked = sorted(
            self.module_service_counts().items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked if top is None else ranked[:top]

    @property
    def fault_event_log(self) -> list[tuple[int, str]]:
        """(epoch, event label) pairs for every annotated fault event."""
        out: list[tuple[int, str]] = []
        for e in self.epochs:
            out.extend((e.epoch, label) for label in e.fault_events)
        return out

    def recovery_times(
        self, *, window: int = 4, tolerance: float = 0.10
    ) -> list[dict]:
        """Recovery time after each fault-annotated epoch.

        For every epoch carrying fault events, the pre-fault level is
        the windowed throughput just before the event; recovery is the
        first epoch at or after it whose windowed throughput is back
        within ``tolerance`` (default 10%) of that level.  Returns one
        dict per fault epoch: ``epoch``, ``events``, ``pre_throughput``,
        ``recovered_epoch`` (None if never), and ``recovery_steps`` —
        virtual steps from the start of the fault epoch to the end of
        the recovery epoch (None if never).  The search starts at the
        fault epoch itself, so when throughput never left the band the
        fault epoch is its own recovery epoch and ``recovery_steps`` is
        that epoch's length (its clock advance), not 0.
        """
        thr = self.throughput_series(window)
        out: list[dict] = []
        for i, e in enumerate(self.epochs):
            if not e.fault_events:
                continue
            pre = thr[i - 1] if i > 0 else thr[i]
            start_clock = self.epochs[i - 1].clock if i > 0 else 0
            recovered_epoch = None
            recovery_steps = None
            for j in range(i, len(self.epochs)):
                if thr[j] >= pre * (1.0 - tolerance):
                    recovered_epoch = j
                    recovery_steps = self.epochs[j].clock - start_clock
                    break
            out.append(
                {
                    "epoch": i,
                    "events": list(e.fault_events),
                    "pre_throughput": pre,
                    "recovered_epoch": recovered_epoch,
                    "recovery_steps": recovery_steps,
                }
            )
        return out

    # ---- summaries -------------------------------------------------------
    def sojourn_percentiles(
        self, qs: tuple[float, ...] = (50.0, 95.0, 99.0), *, skip_epochs: int = 0
    ) -> dict[str, float]:
        """p50/p95/p99 (by default) sojourn latency in network steps.

        ``skip_epochs`` discards a warmup prefix so steady-state numbers
        are not polluted by the initially empty queue.  Empty sample
        sets report ``nan``.
        """
        samples: list[int] = []
        for e in self.epochs[skip_epochs:]:
            samples.extend(e.sojourns)
        if not samples:
            return {f"p{q:g}": float("nan") for q in qs}
        arr = np.asarray(samples, dtype=np.float64)
        return {f"p{q:g}": float(np.percentile(arr, q)) for q in qs}

    def steady_state(self, *, skip_epochs: int | None = None) -> dict[str, float]:
        """One-row summary of the run past a warmup prefix.

        ``skip_epochs`` defaults to a quarter of the run.  Keys are
        stable (benchmarks serialize them): offered/served rates,
        throughput per step, sojourn percentiles, mean backlog + drops,
        and the saturation flag (backlog still growing at the end).
        """
        n = len(self.epochs)
        if skip_epochs is None:
            skip_epochs = n // 4
        tail = self.epochs[skip_epochs:]
        if not tail:
            raise ValueError("no epochs past the warmup prefix")
        steps = sum(e.steps for e in tail)
        served = sum(e.admitted for e in tail)
        percentiles = self.sojourn_percentiles(skip_epochs=skip_epochs)
        return {
            "epochs": float(len(tail)),
            "offered_per_epoch": sum(e.arrivals for e in tail) / len(tail),
            "served_per_epoch": served / len(tail),
            "steps_per_epoch": steps / len(tail),
            "throughput_per_step": served / steps if steps else 0.0,
            "sojourn_p50": percentiles["p50"],
            "sojourn_p95": percentiles["p95"],
            "sojourn_p99": percentiles["p99"],
            "mean_backlog": sum(e.backlog for e in tail) / len(tail),
            "final_backlog": float(self.final_backlog),
            "dropped": float(sum(e.dropped for e in tail)),
            "credits_stalled": float(sum(e.credits_stalled for e in tail)),
            "saturated": float(self._is_saturated(tail)),
        }

    @staticmethod
    def _is_saturated(tail: list[EpochRecord]) -> bool:
        """The source outruns the service: backlog trending up AND more
        than one epoch's offered load already pending (small stable
        queues from arrival jitter do not count)."""
        if len(tail) < 2:
            return False
        mid = len(tail) // 2
        first = sum(e.backlog for e in tail[:mid]) / mid
        second = sum(e.backlog for e in tail[mid:]) / (len(tail) - mid)
        mean_arrivals = sum(e.arrivals for e in tail) / len(tail)
        return second > first and tail[-1].backlog > mean_arrivals

    # ---- serialization ---------------------------------------------------
    def _traffic_numbers(self) -> dict:
        return {
            "num_epochs": self.num_epochs,
            "total_arrivals": self.total_arrivals,
            "total_delivered": self.total_delivered,
            "total_dropped": self.total_dropped,
            "total_steps": self.total_steps,
            "final_backlog": self.final_backlog,
            "conservation_deficit": self.conservation_deficit(),
        }

    def _fault_numbers(self) -> dict:
        return {
            "total_rehashes": self.total_rehashes,
            "total_deadlock_retries": self.total_deadlock_retries,
            "total_fault_stalls": self.total_fault_stalls,
            "total_stall_steps": self.total_stall_steps,
            "total_retried": self.total_retried,
            "total_timed_out": self.total_timed_out,
            "total_dead_lettered": self.total_dead_lettered,
        }

    def _tenant_numbers(self) -> dict:
        totals = self.tenant_totals()
        return {"totals": totals, "conservation_deficits": _deficits(totals)}

    def to_dict(self) -> dict:
        """JSON-ready dump (benchmarks commit these as baselines).

        Carries the shared versioned envelope of
        :mod:`repro.obs.schema` plus three grouped section views —
        ``traffic`` / ``faults`` / ``tenants``, each with its own
        envelope — over the same numbers: the historical flat keys are
        the sections' entries, so existing consumers (committed
        baselines, engine-vs-engine dump comparisons) read the dump
        unchanged.
        """
        traffic = self._traffic_numbers()
        faults = self._fault_numbers()
        tenants = self._tenant_numbers()
        flat = {
            **traffic,
            **faults,
            "tenant_totals": tenants["totals"],
            "tenant_conservation_deficits": tenants["conservation_deficits"],
            "run_mode_counts": self.run_mode_counts(),
            "epochs": [
                {
                    "epoch": e.epoch,
                    "arrivals": e.arrivals,
                    "dropped": e.dropped,
                    "admitted": e.admitted,
                    "backlog": e.backlog,
                    "steps": e.steps,
                    "request_steps": e.request_steps,
                    "reply_steps": e.reply_steps,
                    "rehashes": e.rehashes,
                    "combines": e.combines,
                    "max_queue": e.max_queue,
                    "credits_stalled": e.credits_stalled,
                    "run_modes": list(e.run_modes),
                    "clock": e.clock,
                    "sojourns": list(e.sojourns),
                    "sojourns_epochs": list(e.sojourns_epochs),
                    "stall_steps": e.stall_steps,
                    "fault_stalls": e.fault_stalls,
                    "deadlock_retries": e.deadlock_retries,
                    "retried": e.retried,
                    "timed_out": e.timed_out,
                    "dead_lettered": e.dead_lettered,
                    "fault_events": list(e.fault_events),
                    "modules": list(e.modules),
                    "arrivals_by_tenant": e.by_tenant("arrivals"),
                    "delivered_by_tenant": e.by_tenant("delivered"),
                    "backlog_by_tenant": e.by_tenant("backlog"),
                }
                for e in self.epochs
            ],
            "traffic": versioned("traffic", traffic),
            "faults": versioned("faults", faults),
            "tenants": versioned("tenants", tenants),
        }
        return versioned("traffic_report", flat)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        p = self.sojourn_percentiles()
        return (
            f"TrafficReport(epochs={self.num_epochs}, "
            f"arrivals={self.total_arrivals}, delivered={self.total_delivered}, "
            f"dropped={self.total_dropped}, backlog={self.final_backlog}, "
            f"steps={self.total_steps}, p50={p['p50']:.0f}, "
            f"p99={p['p99']:.0f})"
        )
