"""The one admission pass (``OnlineEmulator._enqueue`` / ``._admit``)
against an executable specification.

The driver keeps one FIFO sub-queue per address and a lazy heap over the
sub-queue heads; the specification below knows neither structure.  It
holds the backlog as one list in arrival order and re-derives every
choice from the documented rules:

* a request is only ever reachable as the *head* (oldest queued request)
  of its address — a sub-queue is FIFO across tenants, so a gold request
  behind a bronze one for the same cell waits for it (which is why "sort
  the whole backlog by ``(rank, seq)``" is *not* the rule; see
  ``test_a_gold_request_waits_behind_a_bronze_head_for_its_address``);
* among reachable heads the next one taken has the smallest
  ``(qos rank, seq)``;
* a head past its deadline expires; a head still backing off, whose
  address was already admitted this epoch (exclusive mode) or whose
  tenant has used its quota is deferred, and "deferring a head defers
  its address's sub-queue" for the rest of the epoch;
* the pass ends when the batch is full or nothing is reachable.

This is the oracle a table-selection ``_admit`` (ROADMAP item 3) will be
held to.
"""

import json
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulation import LeveledEmulator
from repro.emulation.base import Emulator, StepCost
from repro.sharding import MultiTenantOnlineEmulator, MultiTenantWorkload
from repro.topology import DAryButterflyLeveled
from repro.traffic import (
    QOS_CLASSES,
    OnlineEmulator,
    PoissonArrivals,
    TenantPolicy,
    TrafficRequest,
    WorkloadGenerator,
    ZipfKeys,
)

TENANTS = ("acme", "globex", "initech")


class _IdleEmulator(Emulator):
    def emulate_step(self, step):  # pragma: no cover - never stepped
        return StepCost(1, 1)


def _req(rid, addr, tenant, epoch=0):
    return TrafficRequest(
        rid=rid, pid=0, addr=addr, kind="write", epoch=epoch, value=rid, tenant=tenant
    )


class _NoWorkload:
    n_procs = 4
    address_space = 64

    def stream(self, epochs):  # pragma: no cover - never streamed
        return [[] for _ in range(epochs)]


# ---------------------------------------------------------------------------
# the specification
# ---------------------------------------------------------------------------


@dataclass
class Entry:
    seq: int
    req: TrafficRequest
    stamp: int
    not_before: int


class SpecQueue:
    """The admission queue as one list in arrival order."""

    def __init__(self, *, admit_limit, exclusive, timeout, policy_for):
        self.backlog: list[Entry] = []
        self.seq = 0
        self.admit_limit, self.exclusive = admit_limit, exclusive
        self.timeout, self.policy_for = timeout, policy_for

    def enqueue(self, req, stamp, not_before):
        self.backlog.append(Entry(self.seq, req, stamp, not_before))
        self.seq += 1

    def admit(self, clock):
        batch, expired = [], []
        deferred_addrs, seen_addrs, used = set(), set(), {}
        while len(batch) < self.admit_limit:
            heads: dict[int, Entry] = {}
            for e in self.backlog:  # arrival order: first per address
                heads.setdefault(e.req.addr, e)
            reachable = [e for a, e in heads.items() if a not in deferred_addrs]
            if not reachable:
                break
            e = min(
                reachable, key=lambda e: (self.policy_for(e.req.tenant).rank, e.seq)
            )
            addr, tenant = e.req.addr, e.req.tenant
            quota = self.policy_for(tenant).quota
            if self.timeout is not None and clock - e.stamp > self.timeout:
                self.backlog.remove(e)
                expired.append(e.req)
            elif (
                e.not_before > clock
                or (self.exclusive and addr in seen_addrs)
                or (quota is not None and used.get(tenant, 0) >= quota)
            ):
                deferred_addrs.add(addr)
            else:
                self.backlog.remove(e)
                seen_addrs.add(addr)
                used[tenant] = used.get(tenant, 0) + 1
                batch.append((e.req, e.stamp))
        return batch, expired

    def depth_by_tenant(self):
        depth: dict[str, int] = {}
        for e in self.backlog:
            depth[e.req.tenant] = depth.get(e.req.tenant, 0) + 1
        return depth


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

POLICY_SETS = {
    "none": lambda quota: {},
    "all-default": lambda quota: {"policies": [TenantPolicy(t) for t in TENANTS]},
    "mixed": lambda quota: {
        "policies": [
            TenantPolicy(t, qos=q, quota=quota) for t, q in zip(TENANTS, QOS_CLASSES)
        ]
    },
    # one tenant named, the others on a non-default default class
    "partial": lambda quota: {
        "policies": [TenantPolicy("acme", qos="bronze", quota=quota)],
        "default_policy": TenantPolicy("default", qos="gold"),
    },
}


@st.composite
def admission_cases(draw):
    n_addrs = draw(st.integers(1, 6))
    epochs = draw(st.integers(1, 6))
    arrival = st.tuples(
        st.integers(0, n_addrs - 1), st.sampled_from(TENANTS)
    )
    return dict(
        policy_set=draw(st.sampled_from(sorted(POLICY_SETS))),
        quota=draw(st.sampled_from([None, 1, 2])),
        exclusive=draw(st.booleans()),
        timeout=draw(st.sampled_from([None, 2, 5])),
        admit_limit=draw(st.integers(1, 8)),
        epochs=[
            dict(
                arrivals=draw(st.lists(arrival, max_size=10)),
                # how many of the admitted batch a failed step re-queues,
                # and how far in the future they become eligible again
                requeue=draw(st.integers(0, 3)),
                backoff=draw(st.integers(1, 6)),
                tick=draw(st.integers(0, 4)),
            )
            for _ in range(epochs)
        ],
    )


@given(case=admission_cases())
@settings(max_examples=300, deadline=None)
def test_admit_matches_the_executable_spec(case):
    kwargs = POLICY_SETS[case["policy_set"]](case["quota"])
    drv = OnlineEmulator(
        _IdleEmulator(),
        _NoWorkload(),
        admit_limit=case["admit_limit"],
        exclusive=case["exclusive"],
        request_timeout=case["timeout"],
        **kwargs,
    )
    spec = SpecQueue(
        admit_limit=case["admit_limit"],
        exclusive=case["exclusive"],
        timeout=case["timeout"],
        policy_for=drv.policy_for,
    )
    rid = 0
    for epoch, plan in enumerate(case["epochs"]):
        for addr, tenant in plan["arrivals"]:
            req = _req(rid, addr, tenant, epoch)
            rid += 1
            drv._enqueue(req, drv.clock, drv.clock)
            spec.enqueue(req, drv.clock, drv.clock)
        got = drv._admit()
        want, want_expired = spec.admit(drv.clock)
        assert [(r.rid, s) for r, s in got] == [(r.rid, s) for r, s in want]
        assert [r.rid for r in drv._expired] == [r.rid for r in want_expired]
        # a failed step's survivors go to the back with a future
        # eligibility, keeping their original stamp
        for req, stamp in got[: plan["requeue"]]:
            drv._enqueue(req, stamp, drv.clock + plan["backoff"])
            spec.enqueue(req, stamp, drv.clock + plan["backoff"])
        assert [(r.rid, s) for r, s in drv.queue] == [
            (e.req.rid, e.stamp) for e in spec.backlog
        ]
        assert drv.backlog == len(spec.backlog)
        assert drv._queued_by_tenant == spec.depth_by_tenant()
        drv.clock += plan["tick"]


def test_a_gold_request_waits_behind_a_bronze_head_for_its_address():
    """Per-address FIFO beats class priority: the heap only ever sees a
    sub-queue's head, so gold rid 1 (behind bronze rid 0 on cell 7) is
    admitted after it — and ahead of silver rid 2, whose turn it jumps
    the moment it becomes a head."""
    drv = OnlineEmulator(
        _IdleEmulator(),
        _NoWorkload(),
        admit_limit=8,
        exclusive=False,
        policies=[TenantPolicy("acme", qos="gold"), TenantPolicy("initech", qos="bronze")],
    )
    for rid, (addr, tenant) in enumerate(
        [(7, "initech"), (7, "acme"), (3, "globex"), (5, "initech")]
    ):
        drv._enqueue(_req(rid, addr, tenant), 0, 0)
    assert [r.rid for r, _ in drv._admit()] == [2, 0, 1, 3]


# ---------------------------------------------------------------------------
# no policies == every tenant on the default policy == the old class name
# ---------------------------------------------------------------------------

NET = DAryButterflyLeveled(2, 4)
SPACE = 512


def _report_bytes(driver_cls, **kwargs) -> str:
    em = LeveledEmulator(NET, SPACE, mode="erew", seed=5)
    wl = MultiTenantWorkload(
        {
            t: WorkloadGenerator(
                NET.column_size,
                arrivals=PoissonArrivals(7.0),
                keys=ZipfKeys(SPACE, exponent=1.2),
                seed=20 + i,
            )
            for i, t in enumerate(TENANTS)
        }
    )
    report = driver_cls(em, wl, admit_limit=12, request_timeout=400, **kwargs).run(12)
    assert report.total_delivered and report.final_backlog  # a loaded run
    return json.dumps(report.to_dict(), sort_keys=True)


def test_no_policies_is_every_tenant_on_the_default_policy():
    assert MultiTenantOnlineEmulator is OnlineEmulator
    plain = _report_bytes(OnlineEmulator)
    assert plain == _report_bytes(
        OnlineEmulator, policies=[TenantPolicy(t) for t in TENANTS]
    )
    assert plain == _report_bytes(
        OnlineEmulator, default_policy=TenantPolicy("default", qos="bronze")
    )
    assert plain == _report_bytes(MultiTenantOnlineEmulator)
    # ... and the classes do reorder the very same run
    assert plain != _report_bytes(
        OnlineEmulator,
        policies=[TenantPolicy(t, qos=q) for t, q in zip(TENANTS, QOS_CLASSES)],
    )
