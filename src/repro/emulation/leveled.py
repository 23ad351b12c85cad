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
from repro.faults import FaultState
from repro.hashing.family import HashFamily, degree_for_diameter
from repro.pram.memory import SharedMemory
from repro.pram.trace import RequestColumns, StepTrace
from repro.pram.variants import WritePolicy
from repro.routing.fast_engine import resolve_engine_mode
from repro.routing.flow_control import resolve_flow_control
from repro.routing.leveled_router import LeveledRouter
from repro.topology.compiled import compile_leveled
from repro.topology.leveled import LeveledNetwork
from repro.util.rng import as_generator


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
        "crcw" enables combining + tree fan-out replies (Theorem 2.6).
    intermediate:
        Phase-1 flavor of the universal algorithm ("coin" = Algorithm 2.1,
        "node" = Algorithms 2.2/2.3).
    rehash_factor:
        Time allotment per routing phase, as a multiple of the 2L path
        length; exceeding it triggers a rehash.
    node_capacity / flow_control:
        Bounded per-node buffering for the *request* phase (reply
        fan-out runs unconstrained in both engines, mirroring the mesh
        emulator's CRCW reply contract); ``flow_control="credit"``
        enables the deadlock-free escape protocol of
        :mod:`repro.routing.flow_control`, and a wedged attempt
        (``DeadlockError``) is treated like a missed allotment: rehash
        and retry.  On the fast engine, capacity requests take the
        vectorized constrained-batch mode (batch credit accounting).
    engine:
        Routing simulator: "auto" (default; compiled fast path, see
        :mod:`repro.routing.fast_engine`), "fast", or "reference".  Both
        request and reply phases honour the choice and produce identical
        step costs under a fixed seed.
    """

    network = "leveled"

    def __init__(
        self,
        net: LeveledNetwork,
        address_space: int,
        *,
        mode: Literal["erew", "crcw"] = "crcw",
        write_policy: WritePolicy = WritePolicy.ARBITRARY,
        combine_op: str = "sum",
        intermediate: Literal["coin", "node"] = "coin",
        hash_c: float = 1.0,
        rehash_factor: float = 8.0,
        max_rehashes: int = 8,
        node_capacity: int | None = None,
        flow_control: str = "none",
        seed=None,
        validate: bool = True,
        engine: str = "auto",
        faults=None,
        observer=None,
    ) -> None:
        if mode not in ("erew", "crcw"):
            raise ValueError(f"unknown mode {mode!r}")
        self.net = net
        self.mode = mode
        #: repro.obs observer forwarded to every router/engine this
        #: emulator builds; None stays a no-op (see Emulator.observer)
        self.observer = observer
        self.engine_mode = engine
        resolve_engine_mode(engine)  # validate eagerly
        self.write_policy = write_policy
        self.combine_op = combine_op
        self.intermediate = intermediate
        self.node_capacity = node_capacity
        self.flow_control = resolve_flow_control(
            flow_control, node_capacity=node_capacity
        )
        self.rehash_factor = rehash_factor
        self.max_rehashes = max_rehashes
        self.validate = validate
        self.rng = as_generator(seed)
        self.memory = SharedMemory(address_space)

        diameter = 2 * net.num_levels  # request path length in the network
        self.family = HashFamily(
            address_space, net.column_size, degree_for_diameter(diameter, hash_c)
        )
        self.hash = self.family.sample(self.rng)
        self.rehash_count = 0
        # Fault model: modules are last-column rows, processors are
        # column-0 rows.  Link specs are (col, u_row, v_row) wires.
        self.faults = FaultState(
            faults,
            num_modules=net.column_size,
            num_processors=net.column_size,
        )
        if self.faults.link_timeline is not None:
            for e in self.faults.schedule.link_events:
                c, u, v = e.target
                L, N = net.num_levels, net.column_size
                if not (0 <= c < L and 0 <= u < N and 0 <= v < N):
                    raise ValueError(f"link fault spec {e.target!r} out of range")
        #: global virtual-network clock: advanced by each emulated step's
        #: ``total_steps + stall_steps`` so the fault schedule is sampled
        #: on one continuous timeline across steps and phases
        self.virtual_clock = 0

    # ------------------------------------------------------------------
    @property
    def scale(self) -> float:
        """2L: one pass through the leveled structure each way."""
        return 2.0 * self.net.num_levels

    @property
    def n_processors(self) -> int:
        return self.net.column_size

    def _make_router(self, engine_mode: str, fault_base: int = 0) -> LeveledRouter:
        # The fast engine only engages when trajectories are compilable
        # (node mode, or coin mode on a uniform-degree network).  Traces
        # are recorded only when the router will run on the reference
        # engine: the fast reply phase rebuilds reverse itineraries from
        # the router's compiled integer paths instead.
        fast_engages = engine_mode == "fast" and (
            self.intermediate == "node" or self.net.uniform_out_degree
        )
        return LeveledRouter(
            self.net,
            intermediate=self.intermediate,
            seed=self.rng,
            combine=(self.mode == "crcw"),
            node_capacity=self.node_capacity,
            flow_control=self.flow_control,
            track_paths=not fast_engages,
            engine=engine_mode,
            link_faults=self.faults.link_timeline,
            fault_base=fault_base,
            observer=self.observer,
        )

    # ------------------------------------------------------------------
    def emulate_step(self, step: StepTrace | RequestColumns) -> StepCost:
        cols = self._step_columns(step)
        engine_mode = resolve_engine_mode(self.engine_mode)
        L = self.net.num_levels
        router, _modules, req_stats, log = self._route_requests(
            cols,
            engine_mode,
            # An allotment below the 2L path length guarantees timeouts;
            # that is intentional (tests force rehash storms this way).
            allotment=max(int(self.rehash_factor * 2 * L), 1),
            last_resort=400 * L + 1000,
        )
        read_hosts, values = self._serve_memory(cols, router)
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
                    values,
                    budget=int(self.rehash_factor * 4 * L) + 1000,
                    num_nodes=compiled.num_node_ids,
                )
                sp.virtual_end = (
                    self.virtual_clock + req_stats.steps + reply_stats.steps
                )
        return self._finish_step(cols, req_stats, reply_stats, log)
