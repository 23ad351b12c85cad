"""Algorithm 2.1 — the universal randomized routing algorithm (§2.3.2).

Phase 1 sends every packet to a random node of the last column; phase 2
follows the unique path from there to the true destination.  The two
standard variants are both implemented:

* ``intermediate="coin"`` — the literal Algorithm 2.1: at every level the
  packet "selects a random link as a bridge to go to the next level by
  flipping a d-sided coin".
* ``intermediate="node"`` — Algorithms 2.2/2.3: pick a uniformly random
  intermediate *node* up front and follow the unique path to it.

All randomness is drawn **before** routing begins: coin flips arrive as
one batched ``(n_packets, L)`` RNG call (elementwise identical to the
scalar draws, but orders of magnitude cheaper) and intermediates as one
vector draw.  That also makes the run independent of the engine used, so
the compiled fast path (:mod:`repro.routing.fast_engine`) — selected by
default — reproduces the reference engine's results bit for bit.

Networks whose last column is identified with the first (shuffle,
wrapped butterfly, the star's logical network — all our families) let the
packet re-enter column 0 for the second pass, so every packet traverses
exactly ``2 * num_levels`` links.

Engine node keys are ``(pass, column, row)`` triples.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from repro.routing.engine import SynchronousEngine
from repro.routing.fast_engine import FastPathEngine, RunArrays, resolve_engine_mode
from repro.routing.metrics import RoutingStats
from repro.routing.packet import Packet, make_packets
from repro.routing.queues import fifo_factory
from repro.topology.compiled import compile_leveled
from repro.topology.leveled import LeveledNetwork
from repro.util.rng import as_generator


class LeveledRouter:
    """Two-phase randomized router for a :class:`LeveledNetwork`.

    ``engine`` selects the simulator: ``"reference"`` is the readable
    per-hop engine, ``"fast"`` the compiled integer path
    (:class:`~repro.routing.fast_engine.FastPathEngine`); ``"auto"``
    (default) resolves via the ``REPRO_ENGINE`` environment variable and
    falls back to the fast path.  Both produce identical results under a
    fixed seed.

    ``node_capacity`` bounds each node's resident packets (leveled paths
    move strictly forward in (pass, level), so plain backpressure cannot
    cycle here), and ``flow_control="credit"`` adds the escape channel
    of :mod:`repro.routing.flow_control` for O(1)-queue runs.  Capacity
    accounting identifies the wrap aliases ``(0, L, r)`` / ``(1, 0, r)``
    as one physical node, matching the compiled ids.  On the fast
    engine, capacity runs take the vectorized constrained-batch mode
    (batch credit accounting; escape buffers keyed by arithmetic link
    id) — see ``docs/architecture.md``.
    """

    def __init__(
        self,
        net: LeveledNetwork,
        *,
        intermediate: Literal["coin", "node"] = "coin",
        seed=None,
        combine: bool = False,
        node_capacity: int | None = None,
        flow_control: str = "none",
        track_paths: bool = False,
        engine: str = "auto",
        link_faults=None,
        fault_base: int = 0,
        observer=None,
    ) -> None:
        if intermediate not in ("coin", "node"):
            raise ValueError(f"unknown intermediate mode {intermediate!r}")
        self.net = net
        self.intermediate = intermediate
        self.rng = as_generator(seed)
        self.combine = combine
        self.node_capacity = node_capacity
        self.flow_control = flow_control
        self.track_paths = track_paths
        self.engine_mode = engine
        #: forwarded to whichever engine runs (profiling / flight data)
        self.observer = observer
        resolve_engine_mode(engine)  # validate eagerly
        # Link-fault support: specs are (col, u_row, v_row) physical
        # wires, blocked on both passes; each engine gets a view in its
        # own key space (tuples vs. arithmetic ids), translated so the
        # two stay step-equivalent.  ``fault_base`` offsets this run
        # into the emulator's global virtual clock.
        self.fault_base = int(fault_base)
        self._link_faults = link_faults
        self._ref_fault_view = None
        self._fast_fault_view = None
        if link_faults is not None:
            Lf, Nf = net.num_levels, net.column_size

            def _check(spec):
                c, u, v = spec
                if not (0 <= c < Lf and 0 <= u < Nf and 0 <= v < Nf):
                    raise ValueError(f"link fault spec {spec!r} out of range")
                return c, u, v

            def ref_translate(spec):
                c, u, v = _check(spec)
                return (((0, c, u), (0, c + 1, v)), ((1, c, u), (1, c + 1, v)))

            def fast_translate(spec):
                c, u, v = _check(spec)
                return (
                    (c * Nf + u, (c + 1) * Nf + v),
                    ((Lf + c) * Nf + u, (Lf + c + 1) * Nf + v),
                )

            self._ref_fault_view = link_faults.view(ref_translate)
            self._fast_fault_view = link_faults.view(fast_translate)
        #: after a fast-path run: its per-packet arrays, aligned with
        #: the routed packet list — the compiled ``(n, 2L + 1)`` node-id
        #: itineraries, the hop each packet stopped at, the absorptions
        #: (None after a reference run).  The emulation layer builds the
        #: reply phase from these without re-encoding traces.
        self.last_fast_run: RunArrays | None = None
        L = net.num_levels
        self.engine = SynchronousEngine(
            queue_factory=fifo_factory,
            combine=combine,
            node_capacity=node_capacity,
            flow_control=flow_control,
            # Capacity bookkeeping needs the two key spaces reconciled:
            # a packet exits at the (pass, column, row) key (1, L, dest)
            # while packet.dest is the bare row, and the wrap identifies
            # (0, L, r) with (1, 0, r) as one physical node — exactly
            # how the compiled ids see it (id L*N + r).
            exit_dest=lambda p: (1, L, p.dest),
            capacity_key=lambda k: (1, 0, k[2]) if k[0] == 0 and k[1] == L else k,
            track_paths=track_paths,
            observer=observer,
        )

    # ------------------------------------------------------------------
    def _next_hop(self, p: Packet):
        pass_idx, col, row = p.node
        L = self.net.num_levels
        if col == L:
            if pass_idx == 1:
                return None if row == p.dest else self._fail(p)
            # wrap into the second pass (columns identified)
            pass_idx, col = 1, 0
            p.node = (1, 0, row)
        if pass_idx == 0:
            if self.intermediate == "coin":
                options = self.net.out_neighbors(col, row)
                if p.state is not None:
                    nxt = options[p.state[col]]  # pre-drawn coin
                else:
                    nxt = options[int(self.rng.integers(len(options)))]
            else:
                nxt = self.net.unique_next(col, row, p.state)
        else:
            nxt = self.net.unique_next(col, row, p.dest)
        return (pass_idx, col + 1, nxt)

    @staticmethod
    def _fail(p: Packet):
        raise RuntimeError(
            f"packet {p.pid} finished pass 2 at row {p.node[2]} != dest {p.dest}"
        )

    # ------------------------------------------------------------------
    def route_packets(
        self, packets: list[Packet], *, max_steps: int | None = None
    ) -> RoutingStats:
        """Route prebuilt packets (node keys ``(0, 0, row)``; int dests).

        Used directly by the emulation layer, which needs to attach
        addresses/payloads/kinds to the packets it routes.
        """
        L = self.net.num_levels
        if max_steps is None:
            max_steps = 40 * L + 100
        coins = None
        if self.intermediate == "node":
            inters = self.rng.integers(self.net.column_size, size=len(packets))
            for p, r in zip(packets, inters):
                p.state = int(r)
        elif self.net.uniform_out_degree and packets:
            # One batched draw replaces a scalar rng.integers per packet
            # per level; elementwise the stream is identical, and both
            # engines read the same matrix.
            coins = self.rng.integers(self.net.degree, size=(len(packets), L))
            for p, row in zip(packets, coins.tolist()):
                p.state = row
        mode = resolve_engine_mode(self.engine_mode)
        self.last_fast_run = None
        if mode == "fast" and (self.intermediate == "node" or coins is not None):
            return self._run_fast(packets, coins, max_steps)
        return self.engine.run(
            packets,
            self._next_hop,
            max_steps=max_steps,
            link_faults=self._ref_fault_view,
            fault_base=self.fault_base,
        )

    def _run_fast(
        self, packets: list[Packet], coins, max_steps: int
    ) -> RoutingStats:
        """Compile trajectories and replay them on the fast engine."""
        compiled = compile_leveled(self.net)
        sources = []
        for p in packets:
            pass_idx, col, row = p.node
            if pass_idx != 0 or col != 0:
                raise ValueError(
                    f"packet {p.pid} must start in column 0, not {p.node}"
                )
            sources.append(row)
        dests = [p.dest for p in packets]
        if self.intermediate == "node":
            paths = compiled.build_paths(
                sources, dests, inters=[p.state for p in packets]
            )
        else:
            paths = compiled.build_paths(sources, dests, coins=coins)
        fast = FastPathEngine(
            combine=self.combine,
            track_paths=self.track_paths,
            node_capacity=self.node_capacity,
            flow_control=self.flow_control,
            observer=self.observer,
        )
        # Arithmetic link ids skip the engine's np.unique interning pass
        # (and carry link_dst for the constrained batch mode's credit
        # accounting); they need the out-neighbor tables, so non-uniform
        # out-degree networks fall back to interning.
        links = None
        if self.net.uniform_out_degree:
            link_src, link_dst = compiled.link_arrays()
            links = (compiled.link_matrix(paths), link_src, link_dst)
        stats = fast.run(
            packets,
            paths,
            num_nodes=compiled.num_node_ids,
            max_steps=max_steps,
            links=links,
            node_key=compiled.node_key,
            trace_key=compiled.trace_key,
            link_faults=self._fast_fault_view,
            fault_base=self.fault_base,
        )
        self.last_fast_run = fast.last_arrays
        return stats

    def route(
        self,
        sources: Sequence[int],
        dests: Sequence[int],
        *,
        max_steps: int | None = None,
        addresses: Sequence[int] | None = None,
    ) -> RoutingStats:
        """Route packets from column-0 *sources* to last-column *dests*.

        ``max_steps`` defaults to a generous multiple of the 2L lower
        bound; Theorem 2.1 says Õ(L) suffices w.h.p.
        """
        packets = make_packets(
            [(0, 0, int(s)) for s in sources],
            [int(d) for d in dests],
            addresses=None if addresses is None else list(addresses),
        )
        return self.route_packets(packets, max_steps=max_steps)

    def route_permutation(
        self, perm: Sequence[int] | np.ndarray, *, max_steps: int | None = None
    ) -> RoutingStats:
        """Permutation routing: packet i goes from row i to row perm[i]."""
        perm = np.asarray(perm)
        n = self.net.column_size
        if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
            raise ValueError("perm must be a permutation of the column rows")
        return self.route(np.arange(n), perm, max_steps=max_steps)

    def route_random_permutation(self, *, max_steps: int | None = None) -> RoutingStats:
        return self.route_permutation(
            self.rng.permutation(self.net.column_size), max_steps=max_steps
        )

    def route_h_relation(
        self,
        sources: Sequence[int],
        dests: Sequence[int],
        *,
        max_steps: int | None = None,
    ) -> RoutingStats:
        """Partial h-relation routing (Theorem 2.4): sources may repeat up
        to h times and so may destinations."""
        return self.route(sources, dests, max_steps=max_steps)

    # ------------------------------------------------------------------
    def route_with_restarts(
        self,
        sources: Sequence[int],
        dests: Sequence[int],
        *,
        allotment: int | None = None,
        max_rounds: int = 10,
    ) -> tuple[RoutingStats, int]:
        """Lemma 2.1's amplification: repeat the algorithm on stragglers.

        Each round runs Algorithm 2.1 for *allotment* steps; packets that
        miss the deadline "trace back their paths and reach their sources
        in c₁f(N) steps or less and ... repeat algorithm X".  Repeating a
        constant number of times drives the failure probability from
        N^{-α} to N^{-cα}.

        Returns ``(aggregate_stats, rounds_used)``; the aggregate's
        ``steps`` charges, per round, the allotment plus the trace-back
        time (the maximum progress any straggler must unwind), and the
        final round's actual completion time.
        """
        L = self.net.num_levels
        if allotment is None:
            allotment = 3 * 2 * L  # deliberately tight: restarts do occur
        if allotment < 1 or max_rounds < 1:
            raise ValueError("allotment and max_rounds must be positive")

        pending = list(zip(map(int, sources), map(int, dests)))
        total_time = 0
        max_queue = 0
        delays: list[int] = []
        hops: list[int] = []
        delivered = 0
        for round_idx in range(1, max_rounds + 1):
            packets = make_packets([(0, 0, s) for s, _ in pending], [d for _, d in pending])
            stats = self.route_packets(packets, max_steps=allotment)
            max_queue = max(max_queue, stats.max_queue)
            done = [p for p in packets if p.delivered]
            failed = [p for p in packets if not p.delivered]
            delivered += len(done)
            delays.extend(p.delay for p in done)
            hops.extend(p.hops for p in done)
            if not failed:
                total_time += stats.steps
                return (
                    RoutingStats(
                        steps=total_time,
                        delivered=delivered,
                        total_packets=delivered,
                        max_queue=max_queue,
                        completed=True,
                        delays=delays,
                        hops=hops,
                        # The aggregate spans rounds that all ran the
                        # same engine; stamp the final round's mode.
                        run_mode=stats.run_mode,
                    ),
                    round_idx,
                )
            # stragglers unwind their partial paths back to their sources
            traceback = max(p.hops for p in failed)
            total_time += allotment + traceback
            pending = [(p.source[2], p.dest) for p in failed]
        raise RuntimeError(
            f"{len(pending)} packets undelivered after {max_rounds} rounds; "
            "increase the allotment (Lemma 2.1 needs c1 f(N) per trial)"
        )
