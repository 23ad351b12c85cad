"""Sharded multi-module memory service: scatter/gather over emulator shards.

The production-scale version (``docs/sharding.md``) of the related
work's "emulating a large memory with a collection of smaller ones"
(Hanlon, PAPERS.md): a :class:`ShardedEmulator` partitions the PRAM
address space across N *independent* emulator shards with the two-level
hash of :mod:`repro.sharding.placement` and serves each PRAM step by

1. **scatter** — splitting the step into per-shard sub-steps;
2. **step** — one ``emulate_step`` on every loaded shard, in shard
   order, each independent of the others;
3. **gather** — merging the per-shard :class:`StepCost` records into
   one step cost under the parallel-shards clock model below.

Each shard is a full emulator (its own network, hash function, memory,
credit pool, fault plan), built by a caller-supplied factory from a
seed this class derives — so per-shard flow control and per-shard
:class:`~repro.faults.FaultPlan` schedules compose unchanged, and the
whole service is a pure function of one root seed on either engine.

Clock model: shards run in parallel, so *time-like* fields of the
merged cost (request/reply steps, stalls, peak queue) take the maximum
over shards — the gather barrier waits for the slowest shard — while
*event counters* (requests, rehashes, combines, fault stalls, deadlock
retries, credit stalls) sum.  With one shard the merge is the identity,
which is what makes the shards=1 benchmark row bit-identical to an
unsharded emulator built from the same derived seed.

Failure model: a shard that exhausts its rehash budget raises
:class:`~repro.faults.RehashStormError`.  The gather barrier then fails
the *whole* step — the error propagates, so a driver retries the full
batch, and since a sub-step exists only inside the loop that serves it
there is nothing to clean up.  Reads are idempotent and retried writes
re-apply the same values, so the retry is safe; the work shards
completed before the failure is charged to the failed attempt's clock
by the driver's stall accounting.

Shards are cheap, picklable instances (the Emulator contract), stepped
in-process, in shard order.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.emulation.base import Emulator, StepCost, check_addresses
from repro.faults import RehashStormError
from repro.pram.trace import RequestColumns
from repro.sharding.placement import ShardPlacement
from repro.util.rng import as_generator

__all__ = ["ShardedEmulator", "ShardedMemory", "merge_costs"]


def merge_costs(costs: Sequence[StepCost]) -> StepCost:
    """Gather per-shard step costs into one (max time, summed events)."""
    if not costs:
        return StepCost(0, 0)
    modes: list[str] = []
    for c in costs:
        modes.extend(c.run_modes)
    return StepCost(
        request_steps=max(c.request_steps for c in costs),
        reply_steps=max(c.reply_steps for c in costs),
        rehashes=sum(c.rehashes for c in costs),
        combines=sum(c.combines for c in costs),
        max_queue=max(c.max_queue for c in costs),
        requests=sum(c.requests for c in costs),
        credits_stalled=sum(c.credits_stalled for c in costs),
        stall_steps=max(c.stall_steps for c in costs),
        fault_stalls=sum(c.fault_stalls for c in costs),
        deadlock_retries=sum(c.deadlock_retries for c in costs),
        run_modes=tuple(modes),
    )


class ShardedMemory:
    """Facade presenting the shards' memories as one address space.

    Reads and writes route through the placement hash to the owning
    shard, so callers that initialize or inspect emulator memory (the
    replay layer's ``configure_emulator_for``, memory differentials)
    work unchanged against a shard fleet.
    """

    def __init__(self, shards: Sequence[Emulator], placement: ShardPlacement) -> None:
        # the fleet's members, not the fleet: a back-reference would
        # make every ShardedEmulator cyclic garbage
        self._shards = shards
        self._placement = placement

    @property
    def size(self) -> int:
        return self._placement.address_space

    def read(self, addr: int):
        return self._shards[self._placement.shard_of(addr)].memory.read(addr)

    def write(self, addr: int, value) -> None:
        self._shards[self._placement.shard_of(addr)].memory.write(addr, value)

    def touched(self) -> set[int]:
        """The addresses ever written on any shard (each lives on the
        shard that owns it); every other cell reads 0."""
        return set().union(*(s.memory.touched() for s in self._shards))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedMemory(size={self.size}, "
            f"shards={len(self._shards)})"
        )


class ShardedEmulator(Emulator):
    """Scatter/gather front end over N independently steppable shards.

    Parameters
    ----------
    shard_factory:
        ``factory(shard_index, shard_seed) -> Emulator``.  Called once
        per shard with a seed derived from ``seed``; build whatever
        emulator the shard should run (network, mode, flow control,
        fault plan) from exactly that seed so runs stay replayable.
        Every shard must cover the full ``address_space`` (memories are
        sparse, so this is O(touched cells), not O(M) — see
        :class:`~repro.pram.memory.SharedMemory`).
    n_shards:
        Number of shards.
    address_space:
        M — the emulated PRAM's shared-memory size.
    seed:
        Root seed.  One generator draw order — placement seed first,
        then one seed per shard — makes the whole service a pure
        function of it.  ``shard_seeds[i]`` is exposed so a benchmark
        can build the *unsharded* comparator from ``shard_seeds[0]``
        and check the shards=1 row bit for bit.
    placement_degree:
        Degree parameter S of the outer (address -> shard) hash.
    """

    def __init__(
        self,
        shard_factory: Callable[[int, int], Emulator],
        n_shards: int,
        address_space: int,
        *,
        seed=None,
        placement_degree: int = 4,
        observer=None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if address_space < 1:
            raise ValueError("address space must be positive")
        self.n_shards = int(n_shards)
        self.address_space = int(address_space)
        #: repro.obs observer for scatter/gather spans and fleet metrics;
        #: shards get their own observers only if shard_factory wires one
        self.observer = observer
        rng = as_generator(seed)
        seeds = rng.integers(2**63 - 1, size=self.n_shards + 1)
        #: seed of the outer address -> shard hash
        self.placement_seed = int(seeds[0])
        #: per-shard emulator seeds, in shard order
        self.shard_seeds = [int(s) for s in seeds[1:]]
        self.placement = ShardPlacement(
            self.address_space,
            self.n_shards,
            degree_param=placement_degree,
            seed=self.placement_seed,
        )
        self.shards: list[Emulator] = [
            shard_factory(i, self.shard_seeds[i]) for i in range(self.n_shards)
        ]
        for i, shard in enumerate(self.shards):
            if not isinstance(shard, Emulator):
                raise TypeError(
                    f"shard_factory returned {type(shard).__name__!r} for "
                    f"shard {i}; expected an Emulator"
                )
            mem = shard.memory
            if mem is not None and mem.size < self.address_space:
                raise ValueError(
                    f"shard {i} covers only {mem.size} of "
                    f"{self.address_space} addresses"
                )
        modes = {shard.mode for shard in self.shards}
        if len(modes) > 1:
            raise ValueError(
                f"shards disagree on mode ({sorted(map(str, modes))}); a fleet "
                "is admitted under one"
            )
        #: shared-access mode of the shard fleet (drivers key admission
        #: exclusivity off this, exactly as for a plain emulator)
        (self.mode,) = modes
        self.memory = ShardedMemory(self.shards, self.placement)
        #: global module-id stride: shard i's module m is reported as
        #: ``i * module_stride + m``, so telemetry's module-hotness
        #: rankings stay meaningful across the fleet (every emulator has
        #: one module per processor)
        self.module_stride = max(s.n_processors or 1 for s in self.shards)
        self._virtual_clock = 0

    # ---- the Emulator service contract, fleet-wide --------------------
    @property
    def scale(self) -> float:
        """Slowest shard's scale: one gather waits for one full pass."""
        return max(s.scale for s in self.shards)

    @property
    def n_processors(self) -> int | None:
        """Smallest shard: every pid must be valid on whichever shard
        its request lands on."""
        known = [s.n_processors for s in self.shards if s.n_processors is not None]
        return min(known, default=None)

    @property
    def virtual_clock(self) -> int:
        """Fleet-wide fault clock; assigning pins every shard to it."""
        return self._virtual_clock

    @virtual_clock.setter
    def virtual_clock(self, value: int) -> None:
        self._virtual_clock = int(value)
        for shard in self.shards:
            shard.virtual_clock = self._virtual_clock

    @property
    def write_policy(self):
        """The fleet's concurrent-write resolution (the front end itself
        never resolves writes); assigning sets it on every shard."""
        return self.shards[0].write_policy

    @write_policy.setter
    def write_policy(self, value) -> None:
        for shard in self.shards:
            shard.write_policy = value

    @property
    def combine_op(self):
        return self.shards[0].combine_op

    @combine_op.setter
    def combine_op(self, value) -> None:
        for shard in self.shards:
            shard.combine_op = value

    def serving_modules(self, addrs: np.ndarray) -> np.ndarray:
        """Global (shard-strided) module serving every address: the
        outer hash picks the shard, each shard maps its own rows."""
        owners = self.placement.map(addrs)
        modules = np.empty(len(owners), dtype=np.int64)
        for idx, shard in enumerate(self.shards):
            rows = np.flatnonzero(owners == idx)
            if rows.size:
                modules[rows] = idx * self.module_stride + shard.serving_modules(
                    addrs[rows]
                )
        return modules

    # ---- the scatter/gather step -------------------------------------
    def emulate_step(self, step: RequestColumns) -> StepCost:
        """Scatter → one ``emulate_step`` per loaded shard, in shard
        order → gather.  The merged cost's ``modules`` puts each shard's
        column at the rows it served, as ``shard * module_stride + m``.
        An address outside the fleet is rejected before any shard
        steps."""
        obs = self._obs
        check_addresses(step.addrs, self.address_space)
        with obs.span(
            "shard_scatter",
            category="sharding",
            virtual_clock=self._virtual_clock,
            requests=step.num_requests,
        ):
            rows = self.placement.scatter(step)
            parts = self.placement.split(step, rows)
        costs: list[StepCost] = []
        try:
            with obs.span(
                "shard_gather",
                category="sharding",
                virtual_clock=self._virtual_clock,
                shards=len(parts),
            ) as sp:
                for idx in sorted(parts):
                    costs.append(self.shards[idx].emulate_step(parts[idx]))
                sp.virtual_end = self._virtual_clock + max(
                    (c.total_steps + c.stall_steps for c in costs), default=0
                )
        except RehashStormError as err:
            # Gather barrier failed: the caller's retry policy re-runs
            # the whole batch (reads are idempotent, re-applied writes
            # carry the same values).
            if not err.flight_tail:
                err.flight_tail = obs.flight_tail()
            raise
        merged = merge_costs(costs)
        merged.modules = self._gather_modules(step.num_requests, rows, costs)
        obs.count("shard_gathers_total")
        obs.observe("shards_loaded", len(parts))
        # One fleet timeline: advance by the merged (parallel-shards)
        # cost and re-pin every shard, superseding the per-shard clocks
        # that each advanced by their own local cost.
        self.virtual_clock = (
            self._virtual_clock + merged.total_steps + merged.stall_steps
        )
        return merged

    def _gather_modules(self, n: int, rows: dict, costs: list[StepCost]) -> np.ndarray:
        """The fleet's module column of a step: shard ``idx``'s
        ``cost.modules`` at its scatter rows, strided to global ids."""
        modules = np.empty(n, dtype=np.int64)
        for (idx, at), cost in zip(sorted(rows.items()), costs):
            modules[slice(None) if at is None else at] = (
                idx * self.module_stride + cost.modules
            )
        return modules

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedEmulator(shards={self.n_shards}, "
            f"M={self.address_space}, mode={self.mode!r})"
        )
