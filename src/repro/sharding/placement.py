"""Level-1 placement: a seeded global hash from address to shard.

The sharded memory service uses *two-level* hashing.  This module is
the first level: a :class:`ShardPlacement` maps every PRAM address to
one of N shards with a member of the same Karlin–Upfal polynomial
family H the paper uses within a network (§2.1) — drawn over the full
address space with the shard count as the modulus.  The second level is
unchanged: each shard's emulator samples its own per-shard
:class:`~repro.hashing.family.PolynomialHash` to spread the addresses
it owns across its memory modules.

The two levels compose because H is universal at *every* modulus: the
outer hash balances addresses across shards, the inner one balances
each shard's addresses across its modules, and both are pure functions
of their seeds — so a sharded run is replayable bit for bit.

Placement is *static*: unlike the within-shard hash, the shard map is
never redrawn at runtime (a shard-level rehash would move memory cells
between shards, which is a resharding migration, not a §2.1 recovery).
A shard that cannot complete a step raises and the front end retries
the step against the same placement.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.family import HashFamily
from repro.pram.trace import RequestColumns

__all__ = ["ShardPlacement"]


class ShardPlacement:
    """Seeded address -> shard map over ``[0, address_space)``.

    Parameters
    ----------
    address_space:
        M — size of the emulated PRAM's shared memory.
    n_shards:
        Number of independent emulator shards.
    degree_param:
        S for the outer polynomial.  The outer hash only needs pairwise
        balance across shards (there is no shard-level congestion
        argument to serve), so a small constant degree suffices; the
        default 4 keeps the map description tiny.
    seed:
        Anything :func:`repro.util.rng.as_generator` accepts; the outer
        hash is drawn from H once, at construction.
    """

    def __init__(
        self,
        address_space: int,
        n_shards: int,
        *,
        degree_param: int = 4,
        seed=None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.address_space = int(address_space)
        self.n_shards = int(n_shards)
        self.family = HashFamily(address_space, n_shards, degree_param)
        self.hash = self.family.sample(seed)

    def shard_of(self, addr: int) -> int:
        """Shard owning ``addr``."""
        return int(self.hash(int(addr)))

    def map(self, addrs) -> np.ndarray:
        """Vectorized :meth:`shard_of` over an address array."""
        return self.hash.map(np.asarray(addrs, dtype=np.int64))

    def scatter(self, step: RequestColumns) -> dict[int, np.ndarray | None]:
        """The rows of *step* each loaded shard owns, in issue order.

        One :meth:`map` over the step's address column; shards that
        receive no requests are absent.  With ``n_shards == 1`` there is
        no map and the one shard's rows are ``None``: all of them, in
        place.
        """
        if self.n_shards == 1:
            return {0: None} if step.num_requests else {}
        owners = self.map(step.addrs)
        return {
            shard: np.flatnonzero(owners == shard)
            for shard in np.flatnonzero(np.bincount(owners)).tolist()
        }

    def split(
        self, step: RequestColumns, scatter: dict | None = None
    ) -> dict[int, RequestColumns]:
        """Partition one PRAM step into per-shard sub-steps: one row-take
        per loaded shard of its :meth:`scatter` (*scatter*, when the
        caller already has it), so requests keep their relative order
        within each shard.  With ``n_shards == 1`` the single sub-step
        is the input itself — the property the shards=1 bit-identity
        gate rests on.
        """
        if scatter is None:
            scatter = self.scatter(step)
        return {
            shard: step if rows is None else step.take(rows)
            for shard, rows in scatter.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardPlacement(M={self.address_space}, "
            f"shards={self.n_shards}, S={self.hash.degree_param})"
        )
