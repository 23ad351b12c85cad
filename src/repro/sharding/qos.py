"""Multi-tenant admission: QoS classes and per-tenant quotas.

A shared memory *service* has tenants: they share the front end, and the
operator wants (a) latency classes and (b) bounds on how much of each
epoch any one tenant can consume.  Both are part of the one admission
pass of :class:`~repro.traffic.OnlineEmulator`; this module holds what
is specific to serving several tenants at once:

* :class:`~repro.traffic.TenantPolicy` (re-exported) names a tenant's
  QoS class (``gold`` > ``silver`` > ``bronze``, :data:`QOS_CLASSES`)
  and an optional per-epoch admission quota; the driver takes them as
  ``policies=`` / ``default_policy=``.
* :class:`MultiTenantWorkload` merges several seeded single-tenant
  generators into one labeled request stream (round-robin interleave,
  globally re-numbered rids), still a pure function of its sources'
  seeds — one sort of the concatenated lanes per epoch, no per-request
  work.
* :data:`MultiTenantOnlineEmulator` is a plain alias of
  :class:`~repro.traffic.OnlineEmulator`, kept for callers that
  imported the QoS driver under that name: its admission takes
  per-address heads in ``(qos_rank, seq)`` order — strict priority
  across classes, FIFO within a class — and a head whose tenant already
  used its quota this epoch blocks its address for the epoch (position
  preserved, the same mechanism retry backoff uses).

Strict priority can starve bronze under sustained gold load; quotas are
the knob that bounds it (cap gold's per-epoch admissions and the
residual capacity drains lower classes).  Whatever the policy does —
reorder, delay, defer — the per-tenant conservation law still holds and
is asserted by the tests and the sharding benchmark gates::

    arrivals[t] == delivered[t] + dropped[t] + timed_out[t]
                   + dead_lettered[t] + backlog[t]    for every tenant t
"""

from __future__ import annotations

import numpy as np

from repro.traffic.driver import QOS_CLASSES, OnlineEmulator, TenantPolicy
from repro.traffic.generators import (
    RID,
    TENANT,
    VALUE,
    RequestBatch,
    WorkloadGenerator,
)

__all__ = [
    "QOS_CLASSES",
    "MultiTenantOnlineEmulator",
    "MultiTenantWorkload",
    "TenantPolicy",
]

MultiTenantOnlineEmulator = OnlineEmulator


class MultiTenantWorkload:
    """Merge labeled single-tenant generators into one request stream.

    Parameters
    ----------
    sources:
        ``{tenant_name: WorkloadGenerator}``.  All sources must draw
        from the same address space; the merged ``n_procs`` is the
        maximum over sources (every pid stays valid).

    The merged stream interleaves the sources round-robin within each
    epoch (one request from each tenant in turn, in the listed order)
    and re-numbers rids globally, so rids stay unique and monotone —
    the invariant the conservation accounting keys on.  Each request is
    stamped with its tenant's name.  Determinism is inherited: every
    source pre-draws its own stream from its own snapshotted seed, and
    the merge itself draws nothing.
    """

    def __init__(self, sources: dict[str, WorkloadGenerator]) -> None:
        if not sources:
            raise ValueError("need at least one tenant source")
        spaces = {g.address_space for g in sources.values()}
        if len(spaces) != 1:
            raise ValueError(
                f"tenant sources disagree on address space: {sorted(spaces)}"
            )
        self.sources = dict(sources)
        self.n_procs = max(g.n_procs for g in sources.values())

    @property
    def address_space(self) -> int:
        return next(iter(self.sources.values())).address_space

    def stream(self, epochs: int) -> list[RequestBatch]:
        """The merged, tenant-labeled arrival stream."""
        lanes = [gen.stream(epochs) for gen in self.sources.values()]
        tenants = tuple(self.sources)
        out = []
        rid = 0
        for epoch in range(epochs):
            mats = [lane[epoch].matrix for lane in lanes]
            sizes = [m.shape[1] for m in mats]
            # round-robin: sort by (position in the lane, lane)
            turn = np.concatenate([np.arange(k) for k in sizes]) * len(lanes)
            turn += np.repeat(np.arange(len(lanes)), sizes)
            order = np.argsort(turn, kind="stable")
            merged = np.concatenate(mats, axis=1)[:, order]
            merged[TENANT] = turn[order] % len(lanes)
            rids = np.arange(rid, rid + len(order))
            # writes carry their rid as the default value; keep that
            # tie after re-numbering
            merged[VALUE] = np.where(
                merged[VALUE] == merged[RID], rids, merged[VALUE]
            )
            merged[RID] = rids
            rid += len(order)
            out.append(RequestBatch(merged, tenants))
        return out
