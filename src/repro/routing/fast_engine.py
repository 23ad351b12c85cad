"""Compiled fast path of the synchronous routing engine.

:class:`FastPathEngine` replays the exact queue dynamics of
:class:`repro.routing.engine.SynchronousEngine` — same one-packet-per-link
steps, link queues, enqueue-time combining, timeouts, node-capacity
backpressure, and insertion-ordered transmission — but
over **precompiled integer trajectories** instead of hashable node keys
and a per-hop ``next_hop`` callback, with whole transmission and arrival
phases as numpy array operations.  Each packet i carries ``paths[i]``:
the full list of integer node ids it will visit (produced by, e.g.,
:meth:`repro.topology.compiled.CompiledLeveledTopology.build_paths` or
:meth:`repro.topology.compiled.CompiledMesh2D.itineraries`).  The
paper's routing is oblivious, so every itinerary is known before the
first step.  Itineraries are exact-length rows laid end to end — a
:class:`~repro.topology.compiled.FlatPaths`, flat node ids plus
per-packet offsets — and every per-position table of a run follows that
layout, so a run costs the hops its packets make, not its longest path
times its size; an equal-length matrix (every leveled run) is the
special case of a raveled matrix, and a ragged list of per-packet lists
is concatenated on entry (:func:`_normalise_paths`).

This module is the engine's interface — validation and the step loop,
on columns only: a population is the rows of its paths, every one
injected at its first node at step 0; the only packets that enter
later are a :class:`~repro.routing.fast_phases.Replies` population's
spawns.  The run state the loop advances (dense
link ids, intrusive queues kept in service order, combining residency,
credit accounting) and the phase functions it calls live in
:mod:`repro.routing.fast_phases`.  A run has two lanes, chosen from its
population size and configuration only
(:func:`repro.routing.fast_scalar.takes`): a small one without
``node_capacity`` or link faults is stepped on Python lists by
:mod:`repro.routing.fast_scalar`, every other run on that numpy state;
both share the path validation and return the same :class:`RunArrays`.

The mode of a run (recorded in ``last_run_mode`` and
``RoutingStats.run_mode``) follows from the configuration: ``"batch"``,
or ``"batch-constrained"`` for ``node_capacity`` runs
(``flow_control="none"`` or ``"credit"``), whose transmission phase does
batch credit accounting.  What the compiled replay does not model — the
dynamic ``on_arrival`` injection hook and ``node_service_rate`` — runs
on the reference engine only (``run_mode == "reference"``).

Because routers pre-draw all randomness (coin matrices, intermediate
nodes/rows) *before* choosing an engine, the fast and reference engines
consume identical random bits and produce identical
:class:`~repro.routing.metrics.RoutingStats` under a fixed seed; the
differential tests in ``tests/test_fast_engine.py`` assert this
field-for-field on star, shuffle, butterfly, mesh, linear-array, and
hypercube networks.

Engine selection: routers take ``engine="auto" | "fast" | "reference"``;
``"auto"`` resolves through :func:`resolve_engine_mode`, which honours
the ``REPRO_ENGINE`` environment variable and otherwise picks the fast
path.
"""

from __future__ import annotations

import os
from itertools import chain

import numpy as np

from repro.obs.clock import wall_time
from repro.routing import fast_scalar
from repro.routing.engine import NetworkDrainedError
from repro.routing.fast_phases import (
    Replies,
    RunArrays,
    RunState,
    admit,
    finish,
    free_flow,
    land_escapes,
    peak_node_load,
    refresh_fault_flags,
    reply_layout,
    transmit_constrained,
    transmit_unconstrained,
)
from repro.routing.flow_control import DeadlockError, resolve_flow_control
from repro.routing.metrics import Deferred, RoutingStats, stats_from_arrays
from repro.topology.compiled import FlatPaths

ENGINE_MODES = ("auto", "fast", "reference")

#: environment override consulted by ``engine="auto"`` routers
ENGINE_ENV_VAR = "REPRO_ENGINE"


def resolve_engine_mode(mode: str) -> str:
    """Collapse an engine request to ``"fast"`` or ``"reference"``.

    Explicit ``"fast"`` / ``"reference"`` win; ``"auto"`` defers to the
    ``REPRO_ENGINE`` environment variable and finally defaults to the
    fast path.  A set-but-unrecognized ``REPRO_ENGINE`` raises rather
    than silently running an engine the user didn't ask for.
    """
    if mode not in ENGINE_MODES:
        raise ValueError(f"unknown engine mode {mode!r}; pick one of {ENGINE_MODES}")
    if mode != "auto":
        return mode
    env = os.environ.get(ENGINE_ENV_VAR, "").strip().lower()
    if not env:
        return "fast"
    if env in ("fast", "reference"):
        return env
    raise ValueError(
        f"unrecognized {ENGINE_ENV_VAR}={env!r}; use 'fast' or 'reference'"
    )


def _normalise_paths(paths) -> tuple[FlatPaths, np.ndarray]:
    """Validate *paths*; return ``(paths, last)``.

    Every accepted form becomes one :class:`FlatPaths`: a 2-D matrix is
    raveled (no copy) into a :class:`~repro.topology.compiled.RowMatrix`,
    whose rows' width is its shape, a list of per-packet lists — ragged
    or not — is concatenated.  ``last[i]`` is the int64 position at which
    packet i is delivered: its row's last entry.
    """
    if isinstance(paths, np.ndarray):
        if paths.ndim != 2:
            raise ValueError("ndarray paths must be 2-D (packets x positions)")
        n, width = paths.shape
        if n and not width:
            raise ValueError("paths[0] is empty: a path starts at its source")
        last = np.empty(n, dtype=np.int64)
        last.fill(width - 1)
        return FlatPaths.from_matrix(paths), last
    if isinstance(paths, FlatPaths):
        nodes = np.asarray(paths.nodes, dtype=np.int64)
        offsets = np.asarray(paths.offsets, dtype=np.int64)
        if offsets.ndim != 1 or not offsets.size or offsets[0] != 0 or (
            offsets[-1] != nodes.size
        ):
            raise ValueError("offsets must run from 0 to the number of nodes")
        flat = FlatPaths(nodes, offsets)
    else:
        rows = list(paths)
        n = len(rows)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.fromiter(map(len, rows), dtype=np.int64, count=n).cumsum(out=offsets[1:])
        nodes = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=int(offsets[-1])
        )
        flat = FlatPaths(nodes, offsets)
    last = flat.offsets[1:] - flat.offsets[:-1]
    last -= 1
    if last.size and last[last.argmin()] < 0:
        raise ValueError(
            f"paths[{int(last.argmin())}] is empty: a path starts at its source"
        )
    return flat, last


def _stats_of(arrays: RunArrays, mode: str) -> RoutingStats:
    """The :class:`RoutingStats` of a finished run of either lane; a run
    without ``node_capacity`` defers ``max_node_load`` to its first read
    (:func:`~repro.routing.fast_phases.peak_node_load`)."""
    hops, injected_at, arrived = arrays.hops, arrays.injected_at, arrays.arrived
    rows = arrays.order
    if rows is not None:
        hops, arrived = hops[rows], arrived[rows]
        if injected_at is not None:
            injected_at = injected_at[rows]
    max_node_load = arrays.max_node_load
    if max_node_load is None:
        max_node_load = Deferred(peak_node_load, arrays)
    return stats_from_arrays(
        hops,
        injected_at,
        arrived,
        steps=arrays.steps,
        max_queue=arrays.max_queue,
        completed=arrays.completed,
        combines=arrays.combines,
        max_node_load=max_node_load,
        credits_stalled=arrays.credits_stalled,
        escape_hops=arrays.escape_hops,
        fault_stalls=arrays.fault_stalls,
        run_mode=mode,
    )


class FastPathEngine:
    """Synchronous router over precompiled integer paths.

    Parameters mirror the reference engine: ``node_capacity`` enables the
    backpressure model (arrival slots reserved during the transmission
    phase, delivered-at-target heads exempt) — bit-for-bit the semantics
    of :class:`~repro.routing.engine.SynchronousEngine`.  A run
    combines exactly when :meth:`run` is handed ``combine_groups``.
    ``flow_control="credit"`` adds the deadlock-free credit/escape
    protocol of :mod:`repro.routing.flow_control` (escape buffers are
    keyed by interned link index — 1:1 with the reference engine's
    ``(u, w)`` link keys), and a no-progress step with queued packets
    raises :class:`~repro.routing.flow_control.DeadlockError` in both
    engines.

    The capacity exemption compares a head's *final node id* against the
    link's target, which equals the reference engine's ``head.dest ==
    link target`` check on every flat integer topology (mesh, linear
    array, hypercube, shuffle, star) and on leveled routes alike: both
    engines walk the position-encoded ids of
    :mod:`repro.topology.compiled`, in which the last column of the
    first pass and the first column of the second are one node, so
    capacity is accounted per physical node.

    Attributes
    ----------
    last_run_mode:
        After each :meth:`run`: ``"batch"`` (unconstrained) or
        ``"batch-constrained"`` (``node_capacity`` / credits).  Tests
        use this to assert that a configuration takes the intended path.
    """

    def __init__(
        self,
        *,
        node_capacity: int | None = None,
        flow_control: str = "none",
        observer=None,
    ) -> None:
        self.node_capacity = node_capacity
        self.flow_control = resolve_flow_control(
            flow_control, node_capacity=node_capacity
        )
        #: optional repro.obs.Observer — profile buckets per dispatch
        #: mode / phase, flight-recorder step events, DeadlockError
        #: tails.  Wall-clock values are recorded, never branched on,
        #: so results stay bit-identical with and without an observer.
        self.observer = observer
        #: execution mode of the most recent run() — see class docstring
        self.last_run_mode: str | None = None
        #: per-packet arrays of the most recent run() (None before one)
        self.last_arrays: RunArrays | None = None

    def run(
        self,
        paths,
        *,
        num_nodes: int,
        max_steps: int,
        priorities=None,
        links: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        combine_groups: np.ndarray | None = None,
        link_faults=None,
        fault_base: int = 0,
    ) -> RoutingStats:
        """Route one packet along each row of *paths* until delivery or
        *max_steps*.

        ``paths[i]`` is packet i's node-id itinerary including its start,
        where it is injected at step 0; the packet is delivered on
        reaching its last entry.  *paths* is a
        :class:`~repro.topology.compiled.FlatPaths` (rows laid end to
        end), a 2-D ``np.ndarray`` of equal-length rows (raveled, no
        copy) or a list of per-packet lists, which may be ragged (they
        are concatenated); a row never holds anything past its
        packet's path.  Or it is a
        :class:`~repro.routing.fast_phases.Replies` — the replies of a
        finished CRCW read run, the reply fan-out of Theorem 2.6 — which
        brings its own itineraries, link keys and spawn triggers (so
        ``priorities``, ``links`` and ``combine_groups`` stay unset, and
        ``node_capacity`` is not supported), and is laid
        out by the lane its size chooses: a small one straight into the
        scalar lane's lists from the request run's tables, any other in
        arrays.  A reply whose trigger never fires within *max_steps* is
        excluded from the run's stats, exactly as if it were never
        spawned.
        ``num_nodes`` bounds the id space (used to intern links and size
        load tables).
        ``priorities`` — when given — is flat: one integer queue
        priority per link position of *paths*, in their layout, packet
        i's at its k-th link crossing at index ``offsets[i] - i + k``
        (largest first, FIFO ties): the furthest-destination-first
        discipline with priorities evaluated at push time, exactly like
        the reference ``FurthestFirstQueue``.
        ``links`` — a ready ``(link_ids, link_src, link_dst)`` triple,
        ``link_ids`` one per link position of *paths*, flat — skips the
        vector lane's np.unique interning pass, which otherwise gives the
        run a dense id per link this population crosses (the scalar lane
        interns nothing: it keys a hop by its ``(src, dst)`` code, or by
        the handed id).  Two callers have one: the
        mesh (the arithmetic ids
        :meth:`repro.topology.compiled.CompiledMesh2D.itineraries`
        emits, with its ``link_arrays()``) and the reply phase, which inherits its
        request run's triple (:attr:`RunArrays.links`) when that run left
        one.  Leveled runs pass none.

        The population is anonymous — requests routed from
        :class:`~repro.routing.packet.PacketColumns`, replies that exist
        only as reversed request rows — and the run's outcome
        is the returned stats plus the per-packet arrays left on
        :attr:`last_arrays`.  ``combine_groups`` is the population's key
        column: one non-negative int per row, two packets may merge iff
        they share it (and then share a destination — the caller's
        guarantee); omitted, nothing combines.

        ``link_faults`` is an optional
        :class:`~repro.faults.runtime.LinkFaultView` whose keys are
        ``(u, w)`` integer node-id pairs: a blocked link holds its
        queue (and any escape occupant crossing it) this step, counted
        in ``fault_stalls``; states are sampled at the global step
        ``fault_base + t`` — semantics identical to the reference
        engine's, so differential tests stay bit-exact.

        A run that ends at *max_steps* returns its stats with
        ``completed`` false; the caller decides what that means.
        """
        _obs = self.observer
        _prof = _obs.profile if _obs is not None else None
        _t_run0 = wall_time() if _prof is not None else 0.0
        # a pure function of the configuration, so a run that fails
        # before its first step is still billed to the right mode
        mode = self.last_run_mode = (
            "batch" if self.node_capacity is None else "batch-constrained"
        )
        try:
            state = self._start(
                paths,
                combine_groups,
                link_faults,
                priorities=priorities,
                num_nodes=num_nodes,
                links=links,
                profile=_prof,
            )
            if _prof is not None:
                _prof.add_phase("setup", wall_time() - _t_run0)
            if isinstance(state, fast_scalar.ScalarRun):
                arrays = fast_scalar.run_steps(state, max_steps=max_steps, observer=_obs)
            else:
                arrays = self._run_batch(state, max_steps=max_steps, fault_base=fault_base)
            self.last_arrays = arrays
            _t_fin0 = wall_time() if _prof is not None else 0.0
            stats = _stats_of(arrays, mode)
            if _prof is not None:
                _prof.add_phase("finish", wall_time() - _t_fin0)
        finally:
            if _prof is not None:
                _prof.add_mode(mode, wall_time() - _t_run0)
        if arrays.deadlock is not None:
            err = DeadlockError(stats, detail=arrays.deadlock)
            if _obs is not None:
                err.flight_tail = _obs.flight_tail()
            raise err
        return stats

    def _start(self, paths, combine_groups, link_faults, **shared):
        """Validate a run's input and build its state on the lane its
        population size and configuration choose
        (:func:`~repro.routing.fast_scalar.takes`): a
        :class:`~repro.routing.fast_scalar.ScalarRun` or a
        :class:`RunState`.

        A :class:`~repro.routing.fast_phases.Replies` population is laid
        out by the lane that routes it: straight into lists from its
        request run's tables (:func:`~repro.routing.fast_scalar.reply_run`)
        when it is small enough, else in arrays
        (:func:`~repro.routing.fast_phases.reply_layout`), whose paths and
        links then go through the same checks as any caller's and whose
        spawn triggers :class:`RunState` takes as built.
        """
        spawn = None
        if isinstance(paths, Replies):
            if not (
                shared["priorities"] is shared["links"] is combine_groups is None
            ):
                raise ValueError(
                    "a Replies population brings its own itineraries, links "
                    "and combining: pass none of them"
                )
            if self.node_capacity is not None:
                raise ValueError(
                    "a Replies population is not supported with node_capacity"
                )
            paths = Replies(paths.requests, np.asarray(paths.hosts, dtype=np.int64))
            forest = None
            if fast_scalar.takes(0, self.node_capacity, link_faults):
                # the configuration allows lists: the forest's size decides
                forest = fast_scalar.forest_rows(paths, fast_scalar.SCALAR_RUN_MAX)
            if forest is not None:
                return fast_scalar.reply_run(
                    paths, forest, num_nodes=shared["num_nodes"], profile=shared["profile"]
                )
            # the lists refused it (too large, or the configuration), so
            # takes() below refuses it too: the vector lane routes it
            paths, shared["links"], spawn = reply_layout(paths)
        flat, last = _normalise_paths(paths)
        tables = (flat, last, combine_groups)
        if fast_scalar.takes(len(last), self.node_capacity, link_faults):
            return fast_scalar.ScalarRun(*tables, **shared)
        return RunState(
            *tables,
            **shared,
            spawn=spawn,
            capacity=self.node_capacity,
            credit=self.flow_control == "credit",
            link_faults=link_faults,
        )

    def _run_batch(
        self, s: RunState, *, max_steps: int, fault_base: int = 0
    ) -> RunArrays:
        """The step loop: admit the roots at step 0, then repeat the
        paper's two-phase step on run state *s* — every link transmits
        one packet, every arrival is delivered, combined or enqueued —
        until nothing remains or *max_steps* is reached.  On a run
        without ``node_capacity`` or link faults, an arrival phase that
        leaves no link with a waiter hands the run to
        :func:`~repro.routing.fast_phases.free_flow`, which advances it
        through the steps that stay that way in one pass.

        The phases, the state's layout and why each matches the
        reference engine are documented in
        :mod:`repro.routing.fast_phases`.
        """
        obs = self.observer
        prof = s.prof
        rec = obs.recorder if obs is not None else None
        constrained = s.capacity is not None
        transmit = transmit_constrained if constrained else transmit_unconstrained
        # a run whose every packet moves each step while no link holds a
        # waiter: neither credits nor faults hold a link back
        free = not constrained and s.link_faults is None
        fc = s.fc
        admit(s, s.roots, 0)
        t = 0
        deadlocked = False
        while s.remaining > 0 and t < max_steps:
            if not s.active.size and (fc is None or not fc.escape_at):
                raise NetworkDrainedError(s.remaining, t, obs)
            if s.link_faults is not None:
                refresh_fault_flags(s, fault_base + t)

            # Phase 1: every link transmits one packet.  The escape
            # subphase books its own bucket; subtracting it keeps the
            # profile's phases disjoint.
            tx0 = wall_time() if prof is not None else 0.0
            esc0 = prof.phase_total("escape") if prof is not None else 0.0
            stalls0 = s.fault_stalls
            arrivals = transmit(s)
            if prof is not None:
                esc_dt = prof.phase_total("escape") - esc0
                prof.add_phase("transmission", wall_time() - tx0 - esc_dt)
            # No transmission, and nothing held back by a (possibly
            # transient) fault: the state is provably static forever.
            # Report instead of spinning (the reference engine's
            # detector).
            deadlocked = (
                constrained and not arrivals.size and s.fault_stalls == stalls0
            )
            if rec is not None:
                rec.record(
                    "engine_step",
                    virtual_clock=t,
                    arrivals=int(arrivals.size),
                    active_links=int(s.active.size),
                    remaining=s.remaining,
                    fault_stalls=s.fault_stalls,
                )
            if deadlocked:
                break
            t += 1

            # Phase 2: every arrival is delivered, combined or enqueued
            # (or, holding an escape claim, lands in its buffer).
            if s.pending_escape:
                arrivals = land_escapes(s, arrivals)
            if arrivals.size:
                admit(s, arrivals, t)
                # no waiter anywhere: jump the steps that stay that way
                if free and 0 < s.queued == s.active.size:
                    t = free_flow(s, t, max_steps, rec)
        return finish(s, t, deadlocked)
