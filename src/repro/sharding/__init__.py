"""Sharded multi-module memory service (``docs/sharding.md``).

The paper emulates one PRAM memory on one network; this subsystem
scales the same idea out: a :class:`ShardedEmulator` partitions the
address space across N independent emulator shards with two-level
hashing — a seeded global :class:`ShardPlacement` picks the shard, each
shard's own Karlin–Upfal hash spreads its addresses over its modules —
and serves every PRAM step scatter/gather: one ``emulate_step`` per
loaded shard.  In front of it, the one :class:`~repro.traffic.OnlineEmulator`
driver does multi-tenant admission (QoS classes and per-epoch quotas,
per-tenant conservation guaranteed); :mod:`repro.sharding.qos` merges
tenant workloads and re-exports the policy names.

Quickstart::

    from repro.emulation import LeveledEmulator
    from repro.sharding import ShardedEmulator
    from repro.topology import DAryButterflyLeveled

    net = DAryButterflyLeveled(2, 6)

    def make_shard(index, seed):
        return LeveledEmulator(net, 1 << 20, mode="crcw", seed=seed)

    service = ShardedEmulator(make_shard, 4, 1 << 20, seed=7)
    # service is itself an Emulator: emulate_step / emulate_trace
    # work, and OnlineEmulator can drive it.

See ``docs/sharding.md`` for the architecture, the clock/failure
models, and a worked multi-tenant example.
"""

from repro.sharding.placement import ShardPlacement
from repro.sharding.qos import (
    QOS_CLASSES,
    MultiTenantOnlineEmulator,
    MultiTenantWorkload,
    TenantPolicy,
)
from repro.sharding.service import ShardedEmulator, ShardedMemory, merge_costs

__all__ = [
    "MultiTenantOnlineEmulator",
    "MultiTenantWorkload",
    "QOS_CLASSES",
    "ShardPlacement",
    "ShardedEmulator",
    "ShardedMemory",
    "TenantPolicy",
    "merge_costs",
]
