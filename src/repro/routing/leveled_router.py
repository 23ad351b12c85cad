"""Algorithm 2.1 — the universal randomized routing algorithm (§2.3.2).

Phase 1 sends every packet to a random node of the last column; phase 2
follows the unique path from there to the true destination.  The two
standard variants are both implemented:

* ``intermediate="coin"`` — the literal Algorithm 2.1: at every level the
  packet "selects a random link as a bridge to go to the next level by
  flipping a d-sided coin".
* ``intermediate="node"`` — Algorithms 2.2/2.3: pick a uniformly random
  intermediate *node* up front and follow the unique path to it.

Networks whose last column is identified with the first (shuffle,
wrapped butterfly, the star's logical network — all our families) let the
packet re-enter column 0 for the second pass, so every packet traverses
exactly ``2 * num_levels`` links.

Node keys are the ids :func:`~repro.topology.compiled.compile_leveled`
defines, on both engines: position k of the 2L-hop journey is unrolled
column k, ``id = k * N + row``.  The identified columns are position L
— one id — so a source row is its own key (position 0) and a packet to
destination row r exits at ``2L * N + r``.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from repro.routing.engine import RoutingTimeout
from repro.routing.metrics import RoutingStats, stats_from_arrays
from repro.routing.packet import Packet, PacketColumns
from repro.routing.router import CompiledRun, Router
from repro.topology.base import RouteStalledError
from repro.topology.compiled import compile_leveled
from repro.topology.leveled import LeveledNetwork


class LeveledRouter(Router):
    """Two-phase randomized router for a :class:`LeveledNetwork`.

    ``node_capacity`` bounds each node's resident packets (leveled paths
    move strictly forward in position, so plain backpressure cannot
    cycle here), and ``flow_control="credit"`` adds the escape channel
    of :mod:`repro.routing.flow_control` for O(1)-queue runs (escape
    buffers are keyed by the fast run's interned link ids, 1:1 with the
    reference engine's ``(u, w)`` keys).  ``link_faults`` specs are
    ``(col, u_row, v_row)`` physical wires, blocked on both passes.
    Everything else — ``engine``, option forwarding, the permutation
    entry points — is :class:`~repro.routing.router.Router`'s.
    """

    def __init__(
        self,
        net: LeveledNetwork,
        *,
        intermediate: Literal["coin", "node"] = "coin",
        seed=None,
        node_capacity: int | None = None,
        flow_control: str = "none",
        engine: str = "auto",
        link_faults=None,
        fault_base: int = 0,
        observer=None,
    ) -> None:
        if intermediate not in ("coin", "node"):
            raise ValueError(f"unknown intermediate mode {intermediate!r}")
        super().__init__(
            net,
            # a generous multiple of the 2L lower bound; Theorem 2.1
            # says Õ(L) suffices w.h.p.
            default_max_steps=40 * net.num_levels + 100,
            num_endpoints=net.column_size,
            seed=seed,
            node_capacity=node_capacity,
            flow_control=flow_control,
            engine=engine,
            link_faults=link_faults,
            fault_base=fault_base,
            observer=observer,
        )
        self.net = net
        self.intermediate = intermediate
        # destinations are the last column of the second pass
        self._exit_base = 2 * net.num_levels * net.column_size

    # ---- the itinerary -------------------------------------------------
    def _draw(self, sources, dests):
        """Intermediates as one vector draw, coins as one batched
        ``(n_packets, L)`` draw — elementwise identical to a scalar
        ``rng.integers`` per packet per level, but orders of magnitude
        cheaper.  ``None`` when coins cannot be pre-drawn (non-uniform
        out-degree): the reference engine then flips them hop by hop."""
        if self.intermediate == "node":
            return self.rng.integers(self.net.column_size, size=len(sources))
        if not (self.net.uniform_out_degree and len(sources)):
            return None
        return self.rng.integers(
            self.net.degree, size=(len(sources), self.net.num_levels)
        )

    def _next_hop(self, p: Packet):
        L, N = self.net.num_levels, self.net.column_size
        pos, row = divmod(p.node, N)
        if pos == 2 * L:
            if p.node != p.dest:
                raise RouteStalledError(row, p.dest - self._exit_base, packet=p.pid)
            return None
        if pos >= L:
            # second pass (position L is both its first column and the
            # first pass's last)
            nxt = self.net.unique_next(pos - L, row, p.dest - self._exit_base)
        elif self.intermediate == "coin":
            options = self.net.out_neighbors(pos, row)
            if p.state is not None:
                nxt = options[p.state[pos]]  # pre-drawn coin
            else:
                nxt = options[int(self.rng.integers(len(options)))]
        else:
            nxt = self.net.unique_next(pos, row, p.state)
        return (pos + 1) * N + nxt

    def _compile(self, sources, dests, draw) -> CompiledRun | None:
        if draw is None:
            return None
        compiled = compile_leveled(self.net)
        if self.intermediate == "node":
            paths = compiled.build_paths(sources, dests, inters=draw)
        else:
            paths = compiled.build_paths(sources, dests, coins=draw)
        # no ``links``: the engine interns the links this batch crosses,
        # so its tables are batch-sized, not 2L * N * d
        return CompiledRun(paths, compiled.num_node_ids)

    def _fault_keys(self, spec):
        """A ``(col, u_row, v_row)`` wire is blocked on both passes."""
        c, u, v = spec
        L, N = self.net.num_levels, self.net.column_size
        if not (0 <= c < L and 0 <= u < N and 0 <= v < N):
            raise ValueError(f"link fault spec {spec!r} out of range")
        return (
            (c * N + u, (c + 1) * N + v),
            ((L + c) * N + u, (L + c + 1) * N + v),
        )

    # ---- entry points --------------------------------------------------
    def route_packets(
        self, cols: PacketColumns, *, max_steps: int | None = None
    ) -> RoutingStats:
        """Route a population of column-0 source rows and last-column
        dest rows.

        Defined on this class because the end-to-end benchmark's tracer
        wraps it here by name.
        """
        return super().route_packets(cols, max_steps=max_steps)

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
        allotment: int,
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
        final round's actual completion time; its counters are the sums
        over the rounds, ``max_queue`` and ``max_node_load`` the largest
        any round saw.  Stragglers left after
        *max_rounds* raise :class:`~repro.routing.engine.RoutingTimeout`
        with the last round's stats.
        """
        if allotment < 1 or max_rounds < 1:
            raise ValueError("allotment and max_rounds must be positive")

        sources = np.asarray(sources, dtype=np.int64)
        dests = np.asarray(dests, dtype=np.int64)
        total_time = 0
        rounds: list[RoutingStats] = []
        hops: list[np.ndarray] = []
        arrivals: list[np.ndarray] = []
        for round_idx in range(1, max_rounds + 1):
            stats = self.route(sources, dests, max_steps=allotment)
            rounds.append(stats)
            made, arrived = self.row_outcomes()
            done = arrived >= 0
            hops.append(made[done])
            arrivals.append(arrived[done])
            if done.all():
                total_time += stats.steps
                aggregate = stats_from_arrays(
                    np.concatenate(hops),
                    None,  # every packet enters at step 0 of its round
                    np.concatenate(arrivals),
                    steps=total_time,
                    max_queue=max(s.max_queue for s in rounds),
                    completed=True,
                    combines=sum(s.combines for s in rounds),
                    max_node_load=max(s.max_node_load for s in rounds),
                    credits_stalled=sum(s.credits_stalled for s in rounds),
                    escape_hops=sum(s.escape_hops for s in rounds),
                    fault_stalls=sum(s.fault_stalls for s in rounds),
                    # The aggregate spans rounds that all ran the same
                    # engine; stamp the final round's mode.
                    run_mode=stats.run_mode,
                )
                return aggregate, round_idx
            # stragglers unwind their partial paths back to their sources
            failed = ~done
            total_time += allotment + int(made[failed].max())
            sources, dests = sources[failed], dests[failed]
        # stragglers outlived every round: the allotment is below the
        # c1 f(N) per trial that Lemma 2.1 needs
        raise RoutingTimeout(stats)
