"""The one admission pass (``OnlineEmulator._enqueue`` / ``._admit`` /
``._requeue_failed``) against an executable specification.

The driver keeps its backlog as one integer table and takes each
epoch's batch as a closed-form selection on it (sorts, running maxima,
cumulative sums); the specification below knows none of that.  It
holds the backlog as one list in arrival order and re-derives every
choice, one request at a time, from the documented rules:

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

The sweep drives both through the same arrivals, clock ticks and failed
steps; the directed cases below it pin the facts the closed form rests
on (pop order is a running maximum, exclusivity and quotas are chain
cuts, the ``admit_limit`` cut leaves later expired rows queued).
"""

import json
from collections import Counter
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batch_of, enqueue, queued
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
from repro.traffic.driver import ATTEMPTS, STAMP
from repro.traffic.generators import RID

TENANTS = ("acme", "globex", "initech")
#: the sweep's tenants: a fourth one, so two share a class
SWEEP_TENANTS = TENANTS + ("umbrella",)


class _IdleEmulator(Emulator):
    def __init__(self):  # none of a network emulator's shared state
        pass

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
        return [batch_of([]) for _ in range(epochs)]


# the adapter: the driver speaks table columns, the spec request objects


def _enqueue(drv, spec, reqs, stamp, not_before):
    enqueue(drv, reqs, stamp, not_before)
    for req in reqs:
        spec.enqueue(req, stamp, not_before)


def _pairs(columns):
    """Table columns -> [(rid, stamp)]."""
    return list(zip(columns[RID].tolist(), columns[STAMP].tolist()))


def _assert_same_pass(drv, spec):
    """One ``_admit`` against one ``spec.admit``; returns the batch."""
    got = drv._admit()
    want, want_expired = spec.admit(drv.clock)
    assert _pairs(got) == [(r.rid, s) for r, s in want]
    assert drv._expired[RID].tolist() == [r.rid for r in want_expired]
    assert [(r, s) for r, s in queued(drv)] == [(e.req, e.stamp) for e in spec.backlog]
    assert drv.backlog == len(spec.backlog)
    assert Counter(r.tenant for r, _ in queued(drv)) == spec.depth_by_tenant()
    return got, want


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
    # four tenants over all three classes, every one quota'd
    "four": lambda quota: {
        "policies": [
            TenantPolicy(t, qos=q, quota=quota)
            for t, q in zip(SWEEP_TENANTS, QOS_CLASSES + ("gold",))
        ]
    },
}


@st.composite
def admission_cases(draw):
    n_addrs = draw(st.integers(1, 12))
    epochs = draw(st.integers(1, 6))
    arrival = st.tuples(
        st.integers(0, n_addrs - 1), st.sampled_from(SWEEP_TENANTS)
    )
    return dict(
        policy_set=draw(st.sampled_from(sorted(POLICY_SETS))),
        quota=draw(st.sampled_from([None, 1, 2, 3, 4])),
        exclusive=draw(st.booleans()),
        timeout=draw(st.sampled_from([None, 2, 5])),
        admit_limit=draw(st.integers(1, 16)),
        retry_limit=draw(st.integers(0, 3)),
        epochs=[
            dict(
                arrivals=draw(st.lists(arrival, max_size=30)),
                # how many of the admitted batch a failed step sends
                # back through the retry policy, and its base backoff
                requeue=draw(st.integers(0, 6)),
                backoff=draw(st.integers(1, 3)),
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
        retry_limit=case["retry_limit"],
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
        reqs = [
            _req(rid + i, addr, tenant, epoch)
            for i, (addr, tenant) in enumerate(plan["arrivals"])
        ]
        rid += len(reqs)
        _enqueue(drv, spec, reqs, drv.clock, drv.clock)
        got, want = _assert_same_pass(drv, spec)
        # a failed step's survivors go to the back with a future
        # eligibility that doubles per attempt (the table carries each
        # row's attempts across re-queues), keeping their original
        # stamp; rows out of attempts are dead-lettered instead
        failed = got[:, : plan["requeue"]]
        drv.backoff = plan["backoff"]
        letters = len(drv.dead_letters)
        dead = drv._requeue_failed(failed)
        want_dead = []
        for (req, stamp), attempts in zip(want, failed[ATTEMPTS].tolist()):
            if attempts + 1 > case["retry_limit"]:
                want_dead.append((req, stamp, attempts))
            else:
                spec.enqueue(req, stamp, drv.clock + plan["backoff"] * 2**attempts)
        assert drv.dead_letters[letters:] == want_dead
        assert dead[RID].tolist() == [r.rid for r, _s, _a in want_dead]
        assert [(r, s) for r, s in queued(drv)] == [
            (e.req, e.stamp) for e in spec.backlog
        ]
        drv.clock += plan["tick"]


# ---------------------------------------------------------------------------
# directed cases: the facts the closed form rests on
# ---------------------------------------------------------------------------


def _pair(*, policies=(), **kwargs):
    """A driver and its spec twin."""
    kwargs.setdefault("admit_limit", 16)
    kwargs.setdefault("exclusive", False)
    drv = OnlineEmulator(_IdleEmulator(), _NoWorkload(), policies=policies, **kwargs)
    spec = SpecQueue(
        admit_limit=kwargs["admit_limit"],
        exclusive=kwargs["exclusive"],
        timeout=kwargs.get("request_timeout"),
        policy_for=drv.policy_for,
    )
    return drv, spec


def test_a_gold_request_waits_behind_a_bronze_head_for_its_address():
    """Per-address FIFO beats class priority: only a chain's head can be
    taken, so gold rid 1 (behind bronze rid 0 on cell 7) is admitted
    after it — and ahead of silver rid 2, whose turn it jumps the moment
    it becomes a head."""
    drv = OnlineEmulator(
        _IdleEmulator(),
        _NoWorkload(),
        admit_limit=8,
        exclusive=False,
        policies=[TenantPolicy("acme", qos="gold"), TenantPolicy("initech", qos="bronze")],
    )
    reqs = [
        _req(rid, addr, tenant)
        for rid, (addr, tenant) in enumerate(
            [(7, "initech"), (7, "acme"), (3, "globex"), (5, "initech")]
        )
    ]
    enqueue(drv, reqs, 0, 0)
    assert drv._admit()[RID].tolist() == [2, 0, 1, 3]


def test_pop_order_is_the_running_maximum_along_a_chain():
    """A three-deep chain whose middle row outranks both neighbours:
    gold rid 1 pops right after the bronze head that hid it, and silver
    rid 2 — exposed with a key below the last pop's — right after that,
    ahead of bronze rid 5 which has been a head all along.  A flat
    ``(rank, seq)`` sort would give [1, 4, 2, 3, 0, 5]."""
    drv, spec = _pair(
        policies=[TenantPolicy("acme", qos="gold"), TenantPolicy("initech", qos="bronze")]
    )
    arrivals = [
        (7, "initech"), (7, "acme"), (7, "globex"),
        (3, "globex"), (5, "acme"), (9, "initech"),
    ]  # fmt: skip
    reqs = [_req(rid, addr, tenant) for rid, (addr, tenant) in enumerate(arrivals)]
    _enqueue(drv, spec, reqs, 0, 0)
    got, _want = _assert_same_pass(drv, spec)
    assert got[RID].tolist() == [4, 3, 0, 1, 2, 5]


def test_exclusive_mode_expires_behind_an_admitted_head_up_to_the_next_live_row():
    drv, spec = _pair(exclusive=True, request_timeout=5)
    drv.clock = 10
    # cell 7: live, timed out, timed out, live, timed out
    for rid, stamp in enumerate([8, 1, 2, 9, 3]):
        _enqueue(drv, spec, [_req(rid, 7, "acme")], stamp, stamp)
    got, _want = _assert_same_pass(drv, spec)
    assert got[RID].tolist() == [0]
    assert drv._expired[RID].tolist() == [1, 2]
    assert [r.rid for r, _ in queued(drv)] == [3, 4]


def test_a_quota_hit_cuts_later_chains_and_the_next_hit_is_found_on_the_new_order():
    """acme's quota of 1 is used by rid 0, so rid 1 blocks its chain
    (hiding globex's rid 2) and rid 5 blocks its own; rid 0, already
    popped, stays.  On the order *before* that cut globex's second
    admission would have been rid 3 — on the recomputed one it is rid
    4, so rid 3 is served."""
    drv, spec = _pair(
        policies=[TenantPolicy("acme", quota=1), TenantPolicy("globex", quota=1)]
    )
    arrivals = [
        (1, "acme"), (2, "acme"), (2, "globex"),
        (3, "globex"), (4, "globex"), (5, "acme"),
    ]  # fmt: skip
    reqs = [_req(rid, addr, tenant) for rid, (addr, tenant) in enumerate(arrivals)]
    _enqueue(drv, spec, reqs, 0, 0)
    got, _want = _assert_same_pass(drv, spec)
    assert got[RID].tolist() == [0, 3]
    assert [r.rid for r, _ in queued(drv)] == [1, 2, 4, 5]


def test_an_expired_row_past_the_last_admission_stays_queued():
    drv, spec = _pair(admit_limit=1, request_timeout=5)
    drv.clock = 10
    for rid, stamp in enumerate([1, 9, 2]):  # timed out, live, timed out
        _enqueue(drv, spec, [_req(rid, rid, "acme")], stamp, stamp)
    got, _want = _assert_same_pass(drv, spec)
    assert got[RID].tolist() == [1]
    assert drv._expired[RID].tolist() == [0]
    assert [r.rid for r, _ in queued(drv)] == [2]


# ---------------------------------------------------------------------------
# no policies == every tenant on the default policy == the old class name
# ---------------------------------------------------------------------------

NET = DAryButterflyLeveled(2, 4)
SPACE = 512


def _loaded(driver_cls, **kwargs):
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
    return driver_cls(em, wl, admit_limit=12, request_timeout=400, **kwargs)


def _report_bytes(driver_cls, **kwargs) -> str:
    report = _loaded(driver_cls, **kwargs).run(12)
    assert report.total_delivered and report.final_backlog  # a loaded run
    return json.dumps(report.to_dict(), sort_keys=True)


def test_run_interns_each_epochs_tenant_labels_once(monkeypatch):
    """An epoch's arrivals are interned once, for the offered counts,
    and ``_enqueue`` takes that column: no second pass over the labels,
    also when drop-tail queues only part of the epoch."""
    interned = []
    intern = OnlineEmulator._tenant_column

    def counted(self, batch):
        interned.append(len(batch))
        return intern(self, batch)

    monkeypatch.setattr(OnlineEmulator, "_tenant_column", counted)
    report = _loaded(OnlineEmulator, queue_limit=40, overflow="drop").run(12)
    assert len(interned) == 12
    assert interned == [e.arrivals for e in report.epochs]
    assert report.total_dropped  # some epochs queued a prefix only


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
