"""PRAM emulation on the n x n mesh (§3.3; Theorems 3.2 & 3.3).

Our algorithm has exactly two routing phases (the paper's improvement over
Karlin–Upfal's four):

1. processor (i, j) sends its request straight to module h(addr);
2. for reads, the module sends the value straight back.

Each phase is one run of the 3-stage randomized mesh router (Theorem 3.1:
2n + o(n)), so a full EREW step costs 4n + o(n) (Theorem 3.2).

Locality (Theorem 3.3): with *direct placement* (address a lives at node
a) and every request within Manhattan distance δ of its target, the same
algorithm — with the stage-1 random offset confined to an o(δ) slice —
finishes in 6δ + o(δ) steps.  Hashed placement would destroy locality, so
the locality mode switches placement to direct, exactly as the paper's
statement presumes requests "originate within a distance d of the
location of the memory".

``engine="auto" | "fast" | "reference"`` selects the routing simulator
for every phase — requests, EREW reply re-routing, and CRCW reverse-path
reply fan-out (rebuilt from the router's compiled integer trajectories
on the fast path) — with identical step costs under a fixed seed.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from repro.emulation.base import Emulator, StepCost
from repro.pram.trace import RequestColumns
from repro.routing.mesh_router import MeshRouter
from repro.topology.mesh import Mesh2D


def locality_slice_rows(delta: int) -> int:
    """An o(δ) slice height for the locality mode: δ / log₂(δ+2)."""
    return max(1, round(delta / math.log2(delta + 2)))


class MeshEmulator(Emulator):
    """Two-phase PRAM emulation on a mesh-connected computer.

    Parameters
    ----------
    mode:
        ``"erew"`` (exclusive accesses, Theorem 3.2) or ``"crcw"``
        (requests routed with combine keys, so they combine, and reply
        fan-out along the merge trees).
    placement:
        ``"hash"`` (Karlin–Upfal hashed memory, the default) or
        ``"direct"`` (address a lives at node a — the locality mode of
        Theorem 3.3, see :func:`locality_slice_rows`).
    slice_rows:
        Stage-0 slice height forwarded to the router.
    **shared:
        Every other keyword (``seed``, ``engine``, ``faults``, ...) is
        documented on :meth:`Emulator.__init__`, which takes them.
    """

    network = "mesh"

    def __init__(
        self,
        mesh: Mesh2D,
        address_space: int,
        *,
        mode: Literal["erew", "crcw"] = "erew",
        placement: Literal["hash", "direct"] = "hash",
        slice_rows: int | None = None,
        **shared,
    ) -> None:
        if placement not in ("hash", "direct"):
            raise ValueError(f"unknown placement {placement!r}")
        n = mesh.num_nodes
        if placement == "direct" and address_space > n:
            raise ValueError(
                "direct placement needs address_space <= number of nodes"
            )
        self.mesh = mesh
        self.placement = placement
        self.slice_rows = slice_rows
        # Every mesh node is both a processor and a memory module, so
        # both id spaces are [0, num_nodes).
        super().__init__(
            address_space,
            n_modules=n,
            n_processors=n,
            diameter=mesh.diameter,
            mode=mode,
            **shared,
        )

    def _check_link_spec(self, target) -> None:
        """Link specs are ``(u, v)`` packed-node-id pairs and must be
        mesh edges."""
        u, v = target
        n = self.mesh.num_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"link fault spec {target!r} out of range")
        ur, uc = self.mesh.unpack(u)
        vr, vc = self.mesh.unpack(v)
        if abs(ur - vr) + abs(uc - vc) != 1:
            raise ValueError(f"link fault spec {target!r} is not a mesh edge")

    # ------------------------------------------------------------------
    @property
    def scale(self) -> float:
        """n (the mesh side): Theorem 3.2's bound is 4n + o(n)."""
        return float(self.mesh.rows)

    def _modules_of(self, addrs: np.ndarray) -> np.ndarray:
        return addrs if self.placement == "direct" else self.hash.map(addrs)

    def _make_router(self, fault_base: int = 0) -> MeshRouter:
        return MeshRouter(
            self.mesh,
            seed=self.rng,
            slice_rows=self.slice_rows,
            node_capacity=self.node_capacity,
            flow_control=self.flow_control,
            engine=self.engine_mode,
            link_faults=self.faults.link_timeline,
            fault_base=fault_base,
            observer=self.observer,
        )

    # ------------------------------------------------------------------
    def emulate_step(self, step: RequestColumns) -> StepCost:
        cols = self._step_columns(step)
        n = self.mesh.rows + self.mesh.cols
        patience = 500 * n + 2000  # last-resort request and reply budget
        router, modules, req_stats, log = self._route_requests(
            cols,
            allotment=max(int(self.rehash_factor * n), n + 4),
            last_resort=patience,
            rehash=self.placement == "hash",
        )
        read_hosts = self._serve_memory(cols, router)
        reply_stats = None
        if read_hosts.size:
            with self._obs.span(
                "reply_phase",
                category="reply",
                virtual_clock=self.virtual_clock + req_stats.steps,
                replies=len(read_hosts),
            ) as sp:
                if self.mode == "crcw":
                    reply_stats = self._reverse_path_replies(
                        router,
                        read_hosts,
                        budget=patience,
                        num_nodes=self.mesh.num_nodes,
                    )
                else:
                    reply_stats = self._replies_fresh_route(
                        modules[read_hosts],
                        cols.sources[read_hosts],
                        patience,
                        log,
                        fault_base=(
                            self.virtual_clock + log.stall_steps + req_stats.steps
                        ),
                    )
                sp.virtual_end = (
                    self.virtual_clock + req_stats.steps + reply_stats.steps
                )
        return self._finish_step(
            cols, req_stats, reply_stats, log, step.from_reads_first(modules)
        )

    def _replies_fresh_route(self, modules, processors, budget: int, log, fault_base: int):
        """EREW replies: an independent run of the 3-stage router from the
        *modules* back to the requesting *processors* (the paper's
        phase 2).

        Link faults apply here too: a down link stalls replies exactly
        like requests, and the generous budget rides out transient
        flaps.  A link held down *past* a whole budget fails the
        attempt, which is retried on a fresh router with the fault
        clock advanced by the burned steps — so a prolonged down
        window is ridden out attempt by attempt instead of surfacing
        as a hard error.  Failed attempts are charged to the step's
        stall accounting (``log``), mirroring the request-phase retry
        loop; the stats of the last attempt are returned, and a run
        that never completed is ``_finish_step``'s to raise.
        """
        for _attempt in range(self.max_rehashes + 1):
            router = self._make_router(fault_base)
            stats = router.route(modules, processors, max_steps=budget)
            if stats.completed:
                break
            fault_base += stats.steps
            log.stall_steps += stats.steps
            log.fault_stalls += stats.fault_stalls
            log.run_modes.append(stats.run_mode)
        return stats
