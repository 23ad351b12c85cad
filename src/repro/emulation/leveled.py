"""PRAM emulation on leveled networks (§2.1, §2.4; Theorems 2.5 & 2.6).

The pipeline per PRAM step:

1. every request's address is hashed with the Karlin–Upfal h ∈ H to a
   memory module (a last-column row);
2. request packets are routed by the universal algorithm (Algorithm 2.1 /
   2.2 / 2.3 via :class:`LeveledRouter`), combining concurrent accesses in
   CRCW mode (Theorem 2.6);
3. modules perform the memory operations — reads see pre-step memory,
   write conflicts resolve per :class:`WritePolicy`;
4. read replies fan back out along the reversed request paths, splitting
   at the combining-tree merge points.

If the request phase misses its time allotment, a new hash function is
chosen and the step restarts — "if within the allotted time the
communication has not been completed, a designated processor chooses a new
hash function, and all the M memory locations are remapped" (§2.1).
Rehash events are counted; Lemma 2.2 predicts they are vanishingly rare.
"""

from __future__ import annotations

from typing import Literal

from repro.emulation.base import Emulator, StepCost
from repro.pram.trace import RequestColumns
from repro.routing.leveled_router import LeveledRouter
from repro.topology.compiled import compile_leveled
from repro.topology.leveled import LeveledNetwork


class LeveledEmulator(Emulator):
    """Emulate a PRAM on a leveled network.

    Parameters
    ----------
    net:
        The emulating leveled network (star logical net, shuffle, d-ary
        butterfly, ...); processors are column-0 rows, memory modules are
        last-column rows.
    address_space:
        M — the emulated PRAM's shared-memory size.
    mode:
        "erew" routes requests without combining (Theorem 2.5);
        "crcw" routes them with combine keys, so they combine, and fans
        the replies out along the combining trees (Theorem 2.6).
    intermediate:
        Phase-1 flavor of the universal algorithm ("coin" = Algorithm 2.1,
        "node" = Algorithms 2.2/2.3).
    **shared:
        Every other keyword (``seed``, ``engine``, ``faults``, ...) is
        documented on :meth:`Emulator.__init__`, which takes them.
    """

    network = "leveled"

    def __init__(
        self,
        net: LeveledNetwork,
        address_space: int,
        *,
        mode: Literal["erew", "crcw"] = "crcw",
        intermediate: Literal["coin", "node"] = "coin",
        **shared,
    ) -> None:
        self.net = net
        self.intermediate = intermediate
        # Modules are last-column rows, processors are column-0 rows; a
        # request path crosses the leveled structure twice.
        super().__init__(
            address_space,
            n_modules=net.column_size,
            n_processors=net.column_size,
            diameter=2 * net.num_levels,
            mode=mode,
            **shared,
        )

    def _check_link_spec(self, target) -> None:
        """Link specs are ``(col, u_row, v_row)`` wires."""
        c, u, v = target
        L, N = self.net.num_levels, self.net.column_size
        if not (0 <= c < L and 0 <= u < N and 0 <= v < N):
            raise ValueError(f"link fault spec {target!r} out of range")

    # ------------------------------------------------------------------
    @property
    def scale(self) -> float:
        """2L: one pass through the leveled structure each way."""
        return 2.0 * self.net.num_levels

    def _make_router(self, fault_base: int = 0) -> LeveledRouter:
        return LeveledRouter(
            self.net,
            intermediate=self.intermediate,
            seed=self.rng,
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
        L = self.net.num_levels
        router, modules, req_stats, log = self._route_requests(
            cols,
            # An allotment below the 2L path length guarantees timeouts;
            # that is intentional (tests force rehash storms this way).
            allotment=max(int(self.rehash_factor * 2 * L), 1),
            last_resort=400 * L + 1000,
        )
        read_hosts = self._serve_memory(cols, router)
        # Reply phase (reads only): reverse paths + combining-tree fan-out.
        reply_stats = None
        if read_hosts.size:
            compiled = compile_leveled(self.net)
            with self._obs.span(
                "reply_phase",
                category="reply",
                virtual_clock=self.virtual_clock + req_stats.steps,
                replies=len(read_hosts),
            ) as sp:
                reply_stats = self._reverse_path_replies(
                    router,
                    read_hosts,
                    budget=int(self.rehash_factor * 4 * L) + 1000,
                    num_nodes=compiled.num_node_ids,
                )
                sp.virtual_end = (
                    self.virtual_clock + req_stats.steps + reply_stats.steps
                )
        return self._finish_step(
            cols, req_stats, reply_stats, log, step.from_reads_first(modules)
        )
