"""The router skeleton: everything about a routing run that is not an itinerary.

The paper has *one* routing scheme.  Algorithm 2.1 is "universal", and
Algorithms 2.2/2.3 and the §3.4 mesh router are the same plan on a
specific network: pre-draw the randomness, walk to an intermediate, walk
to the destination.  :class:`Router` owns what every instance of that
plan shares — engine selection (the only place an engine mode is
resolved), the one place a router meets an engine,
option forwarding, the link-fault views, the permutation / relation
entry points and the one place ``Packet`` objects are made — and a
concrete router keeps only its itinerary, as a few hooks called once
per routing run (never per packet) on the population's integer columns
(:class:`~repro.routing.packet.PacketColumns`: row i is packet i):

``_draw(sources, dests)``
    pre-draw the run's randomness (intermediates, coins, stage-0 rows)
    as arrays and return it for the compile step
``_compile(sources, dests, draw)``
    the itineraries as a :class:`CompiledRun` for the fast engine, or
    ``None`` when they cannot be compiled (the run then takes the
    reference engine)
``_next_hop(packet)``
    the reference engine's per-hop policy, started from the
    ``packet.state`` that ``_states(draw)`` derives from the draw
``_reference_options()``
    what the reference engine needs beyond the shared options (queue
    discipline, service rate)
``_fault_keys(spec)``
    a physical link-fault spec as ``(u, w)`` node-key pairs

plus three numbers: the step budget of a run that names none, how many
endpoints a permutation has, and ``_exit_base``.  A network has one id
space — both engines, ``packet.node`` / ``trace`` and fault keys use the
same integer node keys — and an endpoint id *is* the key of the node a
packet from it starts at; a packet to endpoint ``d`` exits at key
``_exit_base + d`` (0 wherever endpoints are the nodes themselves; a
leveled network's destinations sit one full itinerary past its sources).

A population is integer columns whose packets all start at step 0,
and on the fast engine it stays anonymous.  It combines exactly when it
carries combine keys (:class:`~repro.routing.packet.PacketColumns`);
no router option switches combining on or off.  ``Packet`` objects exist at
the reference engine's boundary only: :meth:`Router.route_packets`
materialises the columns there.  Either way a run's per-row outcome is
read back through :meth:`Router.absorbed_rows` and
:meth:`Router.row_outcomes`.

All randomness is drawn *before* an engine is chosen — the permutation
first, then ``_draw`` — so both engines consume identical random bits
and a fixed seed gives field-for-field identical
:class:`~repro.routing.metrics.RoutingStats` on either (the
differential-test contract).
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.routing.engine import SynchronousEngine
from repro.routing.fast_engine import FastPathEngine, RunArrays, resolve_engine_mode
from repro.routing.flow_control import resolve_flow_control
from repro.routing.metrics import RoutingStats
from repro.routing.packet import Packet, PacketColumns, packet_outcomes
from repro.topology.compiled import FlatPaths
from repro.util.rng import as_generator, random_h_relation


class CompiledRun(NamedTuple):
    """A population's itineraries: the keywords of
    ``FastPathEngine.run`` that describe them (see there for each
    field); only ``paths`` and ``num_nodes`` are required.  Every
    router compiles a path per packet of exactly its length — a packet
    is delivered at the end of its row."""

    paths: FlatPaths | np.ndarray | list
    num_nodes: int
    priorities: np.ndarray | None = None
    links: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


class Router:
    """Base of every router: one routing run on either engine.

    A concrete router exposes the subset of these options its network
    supports and forwards them here unchanged.

    Parameters
    ----------
    seed:
        RNG seed/generator for every draw of a run (permutation, then
        intermediates / coins / rows); a fixed seed gives bit-identical
        results on both engines.
    node_capacity:
        Bound on packets resident at one node; upstream links stall
        when a node is full (backpressure, §3.4 / Corollary 3.3).
        ``None`` (default) disables the capacity model.
    flow_control:
        ``"none"`` (default) is plain backpressure — tight capacities
        can wedge crossing flows, surfaced as
        :class:`~repro.routing.flow_control.DeadlockError`;
        ``"credit"`` (requires ``node_capacity``) adds the deadlock-free
        credit/escape protocol of :mod:`repro.routing.flow_control`.
    engine:
        ``"reference"`` is the readable per-hop engine, ``"fast"`` the
        compiled integer path
        (:class:`~repro.routing.fast_engine.FastPathEngine`: vectorized
        batch, constrained batch under ``node_capacity`` — see
        ``docs/architecture.md``); ``"auto"`` (default) resolves via the
        ``REPRO_ENGINE`` environment variable and falls back to the fast
        path, once per run in :meth:`route_packets`.
        ``RoutingStats.run_mode`` says which ran: a router whose
        itineraries cannot be compiled runs ``"reference"`` regardless.
        A reference run records every packet's ``trace`` (the fast path
        exposes compiled itineraries via ``last_fast_run``).
    link_faults, fault_base:
        A :class:`~repro.faults.runtime.LinkFaultTimeline` of
        physical-wire specs; the engine that runs gets a view keyed by
        ``_fault_keys``, sampled at the global virtual step
        ``fault_base + t``.
    observer:
        Optional :class:`repro.obs.Observer`, handed to whichever
        engine runs (profiling / flight data).
    """

    def __init__(
        self,
        topology,
        *,
        default_max_steps: int,
        num_endpoints: int | None = None,
        seed=None,
        node_capacity: int | None = None,
        flow_control: str = "none",
        engine: str = "auto",
        link_faults=None,
        fault_base: int = 0,
        observer=None,
    ) -> None:
        # validate eagerly: the engines are only built when a run needs one
        resolve_engine_mode(engine)
        resolve_flow_control(flow_control, node_capacity=node_capacity)
        self.topology = topology
        #: step budget of a run that names none
        self.default_max_steps = default_max_steps
        #: sources of a permutation (every node unless the router says)
        self.num_endpoints = (
            topology.num_nodes if num_endpoints is None else num_endpoints
        )
        self.rng = as_generator(seed)
        self.node_capacity = node_capacity
        self.flow_control = flow_control
        self.engine_mode = engine
        self.observer = observer
        self.fault_base = int(fault_base)
        self._link_faults = link_faults
        #: built by the first run that takes the reference engine
        self._reference: SynchronousEngine | None = None
        #: after a fast-path run (one that wedged included): its
        #: per-packet arrays, aligned with the routed population — the compiled node-id itineraries
        #: (flat, one exact-length row per packet), the hop each packet
        #: stopped at, the absorptions (None after a reference run).  The
        #: emulation layer reads its hosts and builds the reply phase
        #: from these.
        self.last_fast_run: RunArrays | None = None
        #: after a reference run: the packets materialised from its
        #: columns, row by row (None after a fast run)
        self.last_packets: list[Packet] | None = None

    # ---- the hooks a concrete router supplies --------------------------
    def _draw(self, sources: np.ndarray, dests: np.ndarray):
        raise NotImplementedError

    def _compile(
        self, sources: np.ndarray, dests: np.ndarray, draw
    ) -> CompiledRun | None:
        raise NotImplementedError

    def _next_hop(self, p: Packet):
        raise NotImplementedError

    def _states(self, draw) -> Iterable:
        """Each packet's initial ``state`` for ``_next_hop``, in row
        order: its row of the draw as plain Python values, ``None``
        without one."""
        return repeat(None) if draw is None else draw.tolist()

    #: a packet to endpoint d exits at node key ``_exit_base + d``
    _exit_base = 0

    def _reference_options(self) -> dict:
        return {}

    def _fault_keys(self, spec) -> tuple:
        raise NotImplementedError

    # ---- the one place a router meets an engine ------------------------
    def route_packets(
        self, cols: PacketColumns, *, max_steps: int | None = None
    ) -> RoutingStats:
        """Route a population of :class:`PacketColumns`, every packet
        injected at its source at step 0.

        This is the only fast-vs-reference branch of a request run, and
        the only place a run changes form: on its reference side the
        columns become ``Packet`` objects (kept on :attr:`last_packets`).
        """
        if max_steps is None:
            max_steps = self.default_max_steps
        n_end = self.num_endpoints
        for name, col in (("sources", cols.sources), ("dests", cols.dests)):
            # viewed unsigned, a negative id is larger than any bound
            top = col.view(np.uint64)
            if col.size and int(top[top.argmax()]) >= n_end:
                i = int(np.flatnonzero((col < 0) | (col >= n_end))[0])
                raise ValueError(
                    f"{name}[{i}]={int(col[i])} is not one of the {n_end} endpoints"
                )
        draw = self._draw(cols.sources, cols.dests)
        self.last_fast_run = self.last_packets = None
        fast = resolve_engine_mode(self.engine_mode) == "fast"
        run = self._compile(cols.sources, cols.dests, draw) if fast else None
        faults = None
        if self._link_faults is not None:
            faults = self._link_faults.view(self._fault_keys)
        # forwarded unchanged to whichever engine runs
        options = dict(
            node_capacity=self.node_capacity,
            flow_control=self.flow_control,
            observer=self.observer,
        )
        if run is None:
            packets = self._materialise(cols)
            for p, state in zip(packets, self._states(draw)):
                p.state = state
            self.last_packets = packets
            if self._reference is None:
                self._reference = SynchronousEngine(
                    **options, **self._reference_options()
                )
            return self._reference.run(
                packets,
                self._next_hop,
                max_steps=max_steps,
                link_faults=faults,
                fault_base=self.fault_base,
            )
        engine = FastPathEngine(**options)
        try:
            return engine.run(
                max_steps=max_steps,
                combine_groups=cols.combine_keys,
                link_faults=faults,
                fault_base=self.fault_base,
                **run._asdict(),
            )
        finally:
            # like the reference engine's packets, a run that wedges
            # (DeadlockError) still leaves its progress readable
            self.last_fast_run = engine.last_arrays

    def _materialise(self, cols: PacketColumns) -> list[Packet]:
        """The reference engine's packets for *cols*: pid = row, source
        the endpoint id, dest the node key it exits at, and a row's
        combine key travels as the packet's ``address`` (all the engine
        asks of an address is equality)."""
        keys = (
            repeat(None) if cols.combine_keys is None else cols.combine_keys.tolist()
        )
        return [
            Packet(i, s, d, address=k)
            for i, (s, d, k) in enumerate(
                zip(
                    cols.sources.tolist(),
                    (cols.dests + self._exit_base).tolist(),
                    keys,
                )
            )
        ]

    def absorbed_rows(self) -> np.ndarray:
        """Rows of the last routed population that were combined into
        another packet on the way; every other row of a completed run
        was delivered as a host."""
        if self.last_fast_run is not None:
            return self.last_fast_run.absorbed
        return np.flatnonzero([p.combined for p in self.last_packets])

    def row_outcomes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(hops, arrived)`` of every row of the last routed
        population: the hops it made and the step it arrived (-1: not
        delivered)."""
        if self.last_fast_run is not None:
            return self.last_fast_run.hops, self.last_fast_run.arrived
        hops, _, arrived = packet_outcomes(self.last_packets)
        return hops, arrived

    # ---- entry points --------------------------------------------------
    def route(
        self,
        sources: Sequence[int],
        dests: Sequence[int],
        *,
        max_steps: int | None = None,
        combine_keys: Sequence[int] | None = None,
    ) -> RoutingStats:
        """Route one packet from each of *sources* to the matching entry
        of *dests*; ``max_steps`` defaults to the router's own budget.
        Rows sharing a ``combine_keys`` entry may combine (see
        :class:`~repro.routing.packet.PacketColumns`)."""
        cols = PacketColumns(
            np.asarray(sources, dtype=np.int64),
            np.asarray(dests, dtype=np.int64),
            None if combine_keys is None else np.asarray(combine_keys, dtype=np.int64),
        )
        if cols.sources.shape != cols.dests.shape or cols.sources.ndim != 1:
            raise ValueError("sources and dests must have equal length")
        if cols.combine_keys is not None and cols.combine_keys.shape != cols.dests.shape:
            raise ValueError("one combine key per packet required")
        return self.route_packets(cols, max_steps=max_steps)

    def route_permutation(
        self, perm: Sequence[int] | np.ndarray, *, max_steps: int | None = None
    ) -> RoutingStats:
        """Permutation routing: packet i goes from endpoint i to perm[i]."""
        perm = np.asarray(perm)
        n = self.num_endpoints
        if (
            perm.shape != (n,)
            or perm.dtype.kind not in "iu"
            or ((perm < 0) | (perm >= n)).any()
            or (np.bincount(perm, minlength=n) != 1).any()
        ):
            raise ValueError(f"perm must be a permutation of the {n} endpoints")
        return self.route(np.arange(n), perm, max_steps=max_steps)

    def route_random_permutation(self, *, max_steps: int | None = None) -> RoutingStats:
        return self.route_permutation(
            self.rng.permutation(self.num_endpoints), max_steps=max_steps
        )

    def route_n_relation(
        self, *, h: int | None = None, max_steps: int | None = None
    ) -> RoutingStats:
        """Random partial h-relation routing (Corollaries 2.1 / 2.2);
        ``h`` defaults to the network's own ``n`` — the n of the n-star,
        the n-cube, the n-digit shuffle."""
        h = self.topology.n if h is None else h
        s, d = random_h_relation(self.rng, self.num_endpoints, h)
        return self.route(s, d, max_steps=max_steps)
