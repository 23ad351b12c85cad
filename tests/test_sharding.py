"""The sharded memory service (repro.sharding): placement, scatter/gather,
tenant QoS, and the Emulator picklability contract.

Layers under test:

* **placement** — the level-1 (address -> shard) hash: determinism,
  range, order-preserving step splits;
* **service** — :class:`ShardedEmulator`: the shards=1 row is
  bit-identical to an unsharded emulator on *both* engines, the fast
  and reference fleets agree cost for cost, writes land in the owning
  shard, a failed gather leaves nothing behind for the next step;
* **pickle** — a mid-run emulator (either network) or fleet
  round-trips through ``pickle`` with a bit-identical continuation;
* **qos** — multi-tenant admission: strict priority, per-epoch quotas,
  and the per-tenant conservation law.
"""

import dataclasses
import gc
import json
import pickle
import weakref

import numpy as np

import pytest

from conftest import batch_of
from repro.emulation import LeveledEmulator, MeshEmulator
from repro.emulation.base import StepCost
from repro.faults import RehashStormError
from repro.pram.trace import RequestColumns, permutation_step, random_trace
from repro.sharding import (
    MultiTenantOnlineEmulator,
    MultiTenantWorkload,
    ShardPlacement,
    ShardedEmulator,
    TenantPolicy,
    merge_costs,
)
from repro.topology import DAryButterflyLeveled, Mesh2D
from repro.traffic import (
    DeterministicArrivals,
    OnlineEmulator,
    PoissonArrivals,
    TrafficRequest,
    UniformKeys,
    WorkloadGenerator,
)

NET = DAryButterflyLeveled(2, 4)
N_PROCS = NET.column_size
SPACE = 4096
ENGINES = ("fast", "reference")


def make_factory(engine: str, **kwargs):
    def factory(index, seed):
        return LeveledEmulator(
            NET, SPACE, mode="crcw", seed=seed, engine=engine, **kwargs
        )

    return factory


def steps_for(n: int, *, kind: str = "read", start: int = 0):
    return [
        permutation_step(N_PROCS, SPACE, seed=100 + start + k, kind=kind)
        for k in range(n)
    ]


def costs_sans_modes(costs):
    """Step costs with the engine-mode labels stripped (the labels name
    the executing engine, so they differ across a differential pair by
    construction), and the module column as a list (compared too)."""
    out = []
    for c in costs:
        d = dict(c.__dict__)
        d.pop("run_modes")
        d["modules"] = c.modules.tolist()
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# level-1 placement
# ---------------------------------------------------------------------------

class TestShardPlacement:
    def test_deterministic_under_seed(self):
        a = ShardPlacement(SPACE, 8, seed=3)
        b = ShardPlacement(SPACE, 8, seed=3)
        addrs = list(range(0, SPACE, 7))
        assert a.map(addrs).tolist() == b.map(addrs).tolist()

    def test_range_and_spread(self):
        p = ShardPlacement(SPACE, 8, seed=3)
        owners = p.map(list(range(SPACE)))
        assert owners.min() >= 0 and owners.max() < 8
        # a universal hash over 4096 addresses must touch every shard
        assert len(set(owners.tolist())) == 8

    def test_scalar_matches_vector(self):
        p = ShardPlacement(SPACE, 5, seed=9)
        addrs = list(range(0, 200, 3))
        assert [p.shard_of(a) for a in addrs] == p.map(addrs).tolist()

    def test_split_partitions_and_preserves_order(self):
        p = ShardPlacement(SPACE, 4, seed=1)
        step = random_trace(N_PROCS, SPACE, 1, seed=5).steps[0]
        parts = p.split(step)
        # every request lands in exactly the shard that owns its address
        for shard, sub in parts.items():
            assert (p.map(sub.addrs) == shard).all()
        # the shards' rows partition the step's, each shard's in issue
        # order (this trace's addresses are pairwise distinct)
        row_of = {addr: row for row, addr in enumerate(step.addrs.tolist())}
        rows = [[row_of[addr] for addr in sub.addrs.tolist()] for sub in parts.values()]
        assert all(r == sorted(r) for r in rows)
        assert sorted(sum(rows, [])) == list(range(step.num_requests))
        for sub, r in zip(parts.values(), rows):
            for name in ("pids", "is_read", "values"):
                assert getattr(sub, name).tolist() == getattr(step, name)[r].tolist()

    def test_split_of_columns_is_one_map_and_a_row_take_per_shard(self):
        p = ShardPlacement(SPACE, 4, seed=1)
        cols = RequestColumns(
            pids=np.arange(12) % N_PROCS,
            addrs=np.arange(100, 112),
            is_read=np.arange(12) % 3 > 0,  # reads and writes interleaved
            values=np.arange(12) * 10,
        )
        owners = p.map(cols.addrs)
        parts = p.split(cols)
        assert sorted(parts) == sorted(set(owners.tolist()))
        for shard, sub in parts.items():
            rows = np.flatnonzero(owners == shard)  # issue order kept
            assert isinstance(sub, RequestColumns) and sub.num_requests == len(rows)
            for name in ("pids", "addrs", "is_read", "values"):
                assert getattr(sub, name).tolist() == getattr(cols, name)[rows].tolist()
        single = ShardPlacement(SPACE, 1, seed=1)
        assert single.split(cols)[0] is cols and single.split(cols.take(rows[:0])) == {}

    def test_single_shard_split_is_passthrough(self):
        p = ShardPlacement(SPACE, 1, seed=1)
        step = steps_for(1)[0]
        assert p.split(step) == {0: step}
        assert p.split(RequestColumns.of()) == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPlacement(SPACE, 0, seed=1)


# ---------------------------------------------------------------------------
# gather cost merge
# ---------------------------------------------------------------------------

class TestMergeCosts:
    def test_empty_and_identity(self):
        assert merge_costs([]) == StepCost(0, 0)
        c = StepCost(5, 3, rehashes=1, combines=2, max_queue=4, requests=7,
                     stall_steps=6, run_modes=("batch",))
        assert merge_costs([c]) == c

    def test_time_maxed_events_summed(self):
        a = StepCost(10, 4, rehashes=1, combines=2, max_queue=3, requests=5,
                     credits_stalled=1, stall_steps=7, fault_stalls=2,
                     deadlock_retries=1, run_modes=("batch",))
        b = StepCost(6, 8, rehashes=2, combines=1, max_queue=9, requests=4,
                     credits_stalled=3, stall_steps=2, fault_stalls=1,
                     deadlock_retries=2, run_modes=("batch-constrained",))
        m = merge_costs([a, b])
        assert (m.request_steps, m.reply_steps) == (10, 8)  # slowest shard
        assert m.max_queue == 9 and m.stall_steps == 7
        assert m.rehashes == 3 and m.combines == 3 and m.requests == 9
        assert m.credits_stalled == 4 and m.fault_stalls == 3
        assert m.deadlock_retries == 3
        assert m.run_modes == ("batch", "batch-constrained")


# ---------------------------------------------------------------------------
# the scatter/gather service
# ---------------------------------------------------------------------------

class TestShardedEmulator:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_shard_bit_identical_to_unsharded(self, engine):
        service = ShardedEmulator(make_factory(engine), 1, SPACE, seed=42)
        bare = LeveledEmulator(
            NET, SPACE, mode="crcw", seed=service.shard_seeds[0], engine=engine
        )
        steps = steps_for(6)
        assert [service.emulate_step(s) for s in steps] == [
            bare.emulate_step(s) for s in steps
        ]
        assert service.virtual_clock == bare.virtual_clock

    def test_engine_differential_across_shards(self):
        steps = steps_for(6)
        fast = ShardedEmulator(make_factory("fast"), 4, SPACE, seed=42)
        ref = ShardedEmulator(make_factory("reference"), 4, SPACE, seed=42)
        cf = [fast.emulate_step(s) for s in steps]
        cr = [ref.emulate_step(s) for s in steps]
        assert costs_sans_modes(cf) == costs_sans_modes(cr)

    def test_a_fleet_serves_a_step_the_same_in_any_read_write_interleaving(self):
        """Every shard puts its reads first, issue order kept, so the
        fleet's cost and memory do not depend on how the step
        interleaves reads and writes; its scatter span counts the
        requests."""
        from repro.obs import Observer

        step = random_trace(N_PROCS, SPACE, 1, seed=7, erew=False).steps[0]
        by_pid = step.take(np.argsort(step.pids, kind="stable"))
        assert (by_pid.is_read != step.is_read).any()  # really interleaved
        costs, spans, cells = [], [], []
        for form in (step, by_pid):
            obs = Observer(flight_recorder=0)
            service = ShardedEmulator(make_factory("fast"), 4, SPACE, seed=42, observer=obs)
            costs.append(service.emulate_step(form))
            events = obs.tracer.to_chrome_trace()["traceEvents"]
            spans.append([e["args"] for e in events if e["name"] == "shard_scatter"])
            cells.append([service.memory.read(addr) for addr in step.addrs.tolist()])
        assert costs[0] == costs[1] and costs[0].requests == step.num_requests
        assert spans[0] == spans[1] == [{"requests": step.num_requests, "virtual_start": 0}]
        # every write landed with its own value
        assert cells[0] == cells[1] and set(step.values[~step.is_read]) <= set(cells[0])

    def test_writes_land_in_owning_shard(self):
        service = ShardedEmulator(make_factory("fast"), 4, SPACE, seed=42)
        step = permutation_step(N_PROCS, SPACE, seed=5, kind="write")
        service.emulate_step(step)
        for addr, value in zip(step.addrs.tolist(), step.values):
            owner = service.placement.shard_of(addr)
            assert service.shards[owner].memory.read(addr) == value
            # the facade routes the read to the same cell
            assert service.memory.read(addr) == value
            # shards that do not own the address never saw the write
            for i, shard in enumerate(service.shards):
                if i != owner:
                    assert shard.memory.read(addr) == 0

    def test_module_of_strides_by_shard(self):
        service = ShardedEmulator(make_factory("fast"), 4, SPACE, seed=42)
        stride = service.module_stride
        for addr in range(0, SPACE, 97):
            m = service.module_of(addr)
            shard = service.placement.shard_of(addr)
            assert m // stride == shard
            assert m % stride == service.shards[shard].module_of(addr)

    def test_seed_derivation_is_stable(self):
        a = ShardedEmulator(make_factory("fast"), 4, SPACE, seed=42)
        b = ShardedEmulator(make_factory("fast"), 4, SPACE, seed=42)
        assert a.placement_seed == b.placement_seed
        assert a.shard_seeds == b.shard_seeds

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedEmulator(make_factory("fast"), 0, SPACE, seed=1)
        with pytest.raises(TypeError):
            ShardedEmulator(lambda i, s: object(), 2, SPACE, seed=1)
        small = lambda i, s: LeveledEmulator(NET, SPACE // 2, seed=s)
        with pytest.raises(ValueError):
            ShardedEmulator(small, 2, SPACE, seed=1)

    def test_a_failed_gather_leaves_nothing_behind_for_the_next_step(self):
        """Shard 1 fails once with something that is not a storm; the
        next, clean step must serve exactly its own requests.  (With
        per-shard inboxes cleared only on a storm, shards 2 and 3 kept
        the failed step's sub-steps and served those instead — 11 of
        these 16 — off by one from then on.)"""

        class FailsOnce(LeveledEmulator):
            failed = False

            def emulate_step(self, step):
                if not self.failed:
                    self.failed = True
                    raise ValueError("not a storm")
                return super().emulate_step(step)

        def factory(index, seed):
            cls = FailsOnce if index == 1 else LeveledEmulator
            return cls(NET, SPACE, mode="crcw", seed=seed, engine="fast")

        service = ShardedEmulator(factory, 4, SPACE, seed=42)
        bad, clean = steps_for(2, kind="write")
        assert set(service.placement.split(bad)) == {0, 1, 2, 3}
        with pytest.raises(ValueError, match="not a storm"):
            service.emulate_step(bad)
        cost = service.emulate_step(clean)
        assert cost.requests == clean.num_requests == N_PROCS
        assert all(
            service.memory.read(addr) == value
            for addr, value in zip(clean.addrs.tolist(), clean.values)
        )

    def test_a_storm_on_one_shard_fails_the_gather_with_a_flight_tail(self):
        from repro.obs import Observer

        class Wedged(LeveledEmulator):
            def emulate_step(self, step):
                raise RehashStormError("wedged", rehashes=3, stall_steps=11)

        def factory(index, seed):
            cls = Wedged if index == 0 else LeveledEmulator
            return cls(NET, SPACE, mode="crcw", seed=seed, engine="fast")

        obs = Observer(flight_recorder=8)
        obs.record("marker", virtual_clock=0)
        service = ShardedEmulator(factory, 4, SPACE, seed=42, observer=obs)
        with pytest.raises(RehashStormError) as exc:
            service.emulate_step(steps_for(1)[0])
        # the shard had no observer of its own: the tail is the fleet's
        assert [e["kind"] for e in exc.value.flight_tail] == ["marker"]

    def test_online_driver_runs_a_sharded_service(self):
        service = ShardedEmulator(make_factory("fast"), 4, SPACE, seed=42)
        workload = WorkloadGenerator(
            N_PROCS,
            arrivals=PoissonArrivals(0.5 * N_PROCS),
            keys=UniformKeys(SPACE),
            seed=7,
        )
        report = OnlineEmulator(service, workload).run(12)
        assert report.conservation_deficit() == 0
        assert set(report.run_mode_counts()) <= {"batch", "batch-constrained"}
        # single-tenant runs account everything under "default"
        assert report.tenants == ["default"]
        assert report.tenant_conservation_deficits() == {"default": 0}

    def test_per_shard_credit_pools_compose(self):
        service = ShardedEmulator(
            make_factory("fast", node_capacity=2, flow_control="credit"),
            4,
            SPACE,
            seed=42,
        )
        costs = [service.emulate_step(s) for s in steps_for(4)]
        modes = {m for c in costs for m in c.run_modes}
        # request phases take the vectorized constrained-batch path on
        # every shard; replies run unconstrained, as on a bare emulator
        assert "batch-constrained" in modes
        assert modes <= {"batch", "batch-constrained"}


# ---------------------------------------------------------------------------
# picklability: a mid-run shard moves and continues bit-identically
# ---------------------------------------------------------------------------

class TestPicklability:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_midrun_shard_roundtrip_continues_identically(self, engine):
        for em in (
            LeveledEmulator(NET, SPACE, mode="crcw", seed=13, engine=engine),
            MeshEmulator(Mesh2D.square(4), SPACE, mode="crcw", seed=13, engine=engine),
        ):
            for s in steps_for(3, kind="write"):
                em.emulate_step(s)
            clone = pickle.loads(pickle.dumps(em))
            cont = steps_for(3, start=50)
            assert [em.emulate_step(s) for s in cont] == [
                clone.emulate_step(s) for s in cont
            ]
            assert em.virtual_clock == clone.virtual_clock
            assert em.memory.snapshot() == clone.memory.snapshot()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_midrun_service_roundtrip(self, engine):
        service = ShardedEmulator(make_factory(engine), 4, SPACE, seed=42)
        for s in steps_for(3):
            service.emulate_step(s)
        clone = pickle.loads(pickle.dumps(service))
        cont = steps_for(3, start=50)
        assert [service.emulate_step(s) for s in cont] == [
            clone.emulate_step(s) for s in cont
        ]

    def test_a_fleet_and_its_memory_facade_are_not_a_cycle(self):
        """``ShardedMemory`` holds the shards and the placement, not the
        fleet: a served fleet dies with its last reference."""
        gc.collect()
        gc.disable()
        try:
            service = ShardedEmulator(make_factory("fast"), 2, SPACE, seed=1)
            service.emulate_step(steps_for(1)[0])
            service.memory.write(5, 1)
            alive = weakref.ref(service)
            del service
            assert alive() is None
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# multi-tenant workloads
# ---------------------------------------------------------------------------

def _tenant_sources(rate: float = 4.0, read_fraction: float = 1.0):
    return {
        name: WorkloadGenerator(
            N_PROCS,
            arrivals=DeterministicArrivals(rate),
            keys=UniformKeys(SPACE),
            read_fraction=read_fraction,
            seed=i,
        )
        for i, name in enumerate(("gold", "silver", "bronze"))
    }


class TestMultiTenantWorkload:
    def test_stream_is_deterministic_and_labeled(self):
        wl = MultiTenantWorkload(_tenant_sources())
        s1, s2 = wl.stream(5), wl.stream(5)
        assert s1 == s2
        tenants = {r.tenant for epoch in s1 for r in epoch}
        assert tenants == {"gold", "silver", "bronze"}

    def test_rids_globally_unique_and_monotone(self):
        wl = MultiTenantWorkload(_tenant_sources())
        rids = [r.rid for epoch in wl.stream(5) for r in epoch]
        assert rids == sorted(rids) == list(range(len(rids)))

    def test_write_values_follow_renumbered_rids(self):
        wl = MultiTenantWorkload(_tenant_sources(read_fraction=0.0))
        for epoch in wl.stream(3):
            for r in epoch:
                assert r.kind == "write" and r.value == r.rid

    @staticmethod
    def _merge_one_by_one(lanes: dict, epochs: int):
        """The merge as it was written per request: the reference."""
        out, rid = [], 0
        for epoch in range(epochs):
            merged = []
            depth = max((len(batch[epoch]) for batch in lanes.values()), default=0)
            for i in range(depth):
                for name, batch in lanes.items():
                    if i < len(batch[epoch]):
                        req = batch[epoch][i]
                        value = rid if req.value == req.rid else req.value
                        merged.append(
                            dataclasses.replace(req, rid=rid, tenant=name, value=value)
                        )
                        rid += 1
            out.append(merged)
        return out

    def test_merge_is_the_round_robin_interleave(self):
        """Unequal lane lengths, a lane that never sends, epochs in
        which nobody does, and a write whose value is not its rid."""

        class Lane:
            n_procs, address_space = N_PROCS, SPACE

            def __init__(self, epochs):
                self.epochs = epochs

            def stream(self, epochs):
                return [batch_of(e) for e in self.epochs[:epochs]]

        def lane(sizes, first_rid=0):
            rid, out = first_rid, []
            for epoch, k in enumerate(sizes):
                reqs = []
                for i in range(k):
                    kind = "read" if (rid + i) % 3 else "write"
                    value = None if kind == "read" else (rid + i if i % 2 else -7)
                    reqs.append(
                        TrafficRequest(rid + i, i % N_PROCS, 5 * rid + i, kind, epoch, value)
                    )
                rid += k
                out.append(reqs)
            return out

        lanes = {
            "gold": lane([3, 0, 1, 0]),
            "silver": lane([0, 0, 0, 0]),
            "bronze": lane([5, 0, 4, 0]),
        }
        wl = MultiTenantWorkload({name: Lane(e) for name, e in lanes.items()})
        got = wl.stream(4)
        assert [list(batch) for batch in got] == self._merge_one_by_one(lanes, 4)
        assert [len(batch) for batch in got] == [8, 0, 5, 0]
        assert all(batch.tenants == ("gold", "silver", "bronze") for batch in got)

    def test_address_space_mismatch_rejected(self):
        bad = _tenant_sources()
        bad["bronze"] = WorkloadGenerator(
            N_PROCS,
            arrivals=DeterministicArrivals(1.0),
            keys=UniformKeys(SPACE * 2),
            seed=9,
        )
        with pytest.raises(ValueError):
            MultiTenantWorkload(bad)
        with pytest.raises(ValueError):
            MultiTenantWorkload({})


# ---------------------------------------------------------------------------
# QoS admission
# ---------------------------------------------------------------------------

class TestTenantPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantPolicy("t", qos="platinum")
        with pytest.raises(ValueError):
            TenantPolicy("t", quota=0)
        assert TenantPolicy("t", qos="gold").rank < TenantPolicy("t").rank


class TestQoSAdmission:
    POLICIES = (
        TenantPolicy("gold", qos="gold"),
        TenantPolicy("silver", qos="silver", quota=4),
        TenantPolicy("bronze", qos="bronze", quota=2),
    )

    def _driver(self, *, admit_limit=None, policies=POLICIES):
        em = LeveledEmulator(NET, SPACE, mode="crcw", seed=11, engine="fast")
        wl = MultiTenantWorkload(_tenant_sources())
        return MultiTenantOnlineEmulator(
            em, wl, policies=policies, admit_limit=admit_limit
        )

    def test_strict_priority_under_scarce_admission(self):
        # 4 gold arrive per epoch; an admit_limit of 4 means gold's
        # class priority must claim every admission slot.
        driver = self._driver(admit_limit=4, policies=(
            TenantPolicy("gold", qos="gold"),
            TenantPolicy("silver", qos="silver"),
            TenantPolicy("bronze", qos="bronze"),
        ))
        report = driver.run(4)
        first = report.epochs[0]
        assert first.by_tenant("delivered") == {"gold": 4}

    def test_quota_caps_each_epoch(self):
        driver = self._driver()
        report = driver.run(8)
        for e in report.epochs:
            assert e.by_tenant("delivered").get("silver", 0) <= 4
            assert e.by_tenant("delivered").get("bronze", 0) <= 2

    def test_conservation_per_tenant(self):
        report = self._driver().run(10)
        assert all(
            v == 0 for v in report.tenant_conservation_deficits().values()
        )

    def test_unknown_tenant_gets_default_policy(self):
        driver = self._driver(policies=())
        assert driver.policy_for("nobody").qos == "silver"
        report = driver.run(4)
        assert all(
            v == 0 for v in report.tenant_conservation_deficits().values()
        )

    def test_duplicate_policy_rejected(self):
        em = LeveledEmulator(NET, SPACE, seed=1)
        wl = MultiTenantWorkload(_tenant_sources())
        with pytest.raises(ValueError):
            MultiTenantOnlineEmulator(
                em, wl, policies=(TenantPolicy("a"), TenantPolicy("a"))
            )

    def test_sharded_qos_engine_differential(self):
        def run(engine):
            service = ShardedEmulator(make_factory(engine), 4, SPACE, seed=42)
            wl = MultiTenantWorkload(_tenant_sources())
            return MultiTenantOnlineEmulator(
                service, wl, policies=self.POLICIES
            ).run(8)

        fast, ref = run("fast"), run("reference")
        strip = lambda d: {
            k: v for k, v in d.items() if k != "run_mode_counts"
        }

        def strip_epochs(dump):
            out = strip(dump)
            out["epochs"] = [
                {k: v for k, v in e.items() if k != "run_modes"}
                for e in dump["epochs"]
            ]
            return out

        assert json.dumps(strip_epochs(fast.to_dict()), sort_keys=True) == (
            json.dumps(strip_epochs(ref.to_dict()), sort_keys=True)
        )
