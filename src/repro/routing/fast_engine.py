"""Compiled fast path of the synchronous routing engine.

:class:`FastPathEngine` replays the exact queue dynamics of
:class:`repro.routing.engine.SynchronousEngine` — same one-packet-per-link
steps, link queues, enqueue-time combining, injection times, timeouts,
node-capacity backpressure, and insertion-ordered transmission — but
over **precompiled integer trajectories** instead of hashable node keys
and a per-hop ``next_hop`` callback, with whole transmission and arrival
phases as numpy array operations:

* each packet i carries ``paths[i]``: the full list of integer node ids
  it will visit (produced by, e.g.,
  :meth:`repro.topology.compiled.CompiledLeveledTopology.build_paths` or
  :meth:`repro.topology.compiled.CompiledMesh2D.three_stage`).  The
  paper's routing is oblivious, so every itinerary is known before the
  first step; variable-length trajectories arrive as one padded
  rectangular matrix plus ``path_lengths`` (the pad repeats the
  destination), and a ragged list of per-packet lists is padded into
  that form on entry (:func:`_normalise_paths`);
* every directed link a packet will ever cross is interned up front to a
  dense link index (one vectorized ``np.unique``, or a precompiled
  arithmetic encoding handed in as ``links``), and each packet reads its
  itinerary through one flat cursor into the raveled tables;
* link FIFO queues are intrusive: head/tail/next arrays of packet
  *indices* (a packet waits in at most one queue); CRCW combining is a
  flat resident-host table over interned (link, combine key) codes;
* furthest-destination-first arbitration (the §3.4 mesh discipline) is
  array-based: when per-hop ``priorities`` are supplied, each link keeps
  one FIFO chain per priority class and pops the head of its highest
  nonempty class — the exact order of the reference
  ``FurthestFirstQueue`` (largest priority first, FIFO among ties);
* per-node load and per-link activity live in flat arrays, and the
  capacity arbitration reserves arrival slots during the transmission
  phase exactly like the reference engine.

The engine picks one of two execution modes per run (recorded in
``last_run_mode`` and ``RoutingStats.run_mode``):

* ``"batch"`` — the unconstrained mode;
* ``"batch-constrained"`` — the *constrained* mode for
  ``node_capacity`` runs (``flow_control="none"`` or ``"credit"``):
  per-node credit counters are updated with segment reductions
  (``np.add.at``), escape-buffer occupancy lives in a parallel table
  keyed by compiled link id, and each step's transmission phase splits
  the active links into a provably-unconstrained majority (resolved
  vectorized) and a small contended residue replayed in exact
  reference order — see :meth:`FastPathEngine._run_batch`.

What the compiled replay does not model — the dynamic ``on_arrival``
injection hook and ``node_service_rate`` — runs on the reference engine
only (``run_mode == "reference"``).

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
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from repro.obs.clock import wall_time
from repro.routing.engine import NetworkDrainedError, RoutingTimeout
from repro.routing.flow_control import (
    CreditState,
    DeadlockError,
    no_progress_detail,
    resolve_flow_control,
)
from repro.routing.metrics import RoutingStats, stats_from_arrays
from repro.routing.packet import Packet

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


def _normalise_paths(
    paths, path_lengths: Sequence[int] | None, n_packets: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate *paths* / *path_lengths*; return ``(path matrix, last)``.

    The matrix is rectangular (a ragged list of per-packet lists is
    padded by repeating each packet's destination, the convention of
    :class:`~repro.topology.compiled.TrajectoryPlan`) and ``last[i]`` is
    the int64 position at which packet i is delivered.  An empty run
    comes back as a ``(0, 1)`` matrix, so :meth:`FastPathEngine._run_batch`
    sees at least one path position in every case.
    """
    flat = None
    if isinstance(paths, np.ndarray):
        if paths.ndim != 2:
            raise ValueError("ndarray paths must be 2-D (packets x positions)")
        n, width = paths.shape
        path_arr = paths if n else np.empty((0, 1), dtype=np.int64)
        widths = np.full(n, width, dtype=np.int64)
    else:
        rows = list(paths)
        n = len(rows)
        widths = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        width = int(widths.max()) if n else 1
        if (widths == width).all():
            path_arr = np.asarray(rows, dtype=np.int64).reshape(n, width)
        else:
            flat = np.fromiter(
                chain.from_iterable(rows), dtype=np.int64, count=int(widths.sum())
            )
    if n_packets != n:
        raise ValueError("one path per packet required")
    if not widths.all():
        raise ValueError(
            f"paths[{int(np.argmin(widths))}] is empty: a path starts at its source"
        )
    if path_lengths is None:
        last = widths - 1
    else:
        last = np.asarray(path_lengths, dtype=np.int64)
        if last.shape != (n,):
            raise ValueError("one path length per packet required")
        bad = np.nonzero((last < 0) | (last >= widths))[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"path_lengths[{i}]={int(last[i])} outside its {int(widths[i])}"
                "-node path"
            )
    if flat is not None:
        # Ragged rows: scatter the entries row-major into the matrix and
        # fill each row's tail with its destination.
        starts = np.cumsum(widths) - widths
        filled = np.arange(width, dtype=np.int64)[None, :] < widths[:, None]
        path_arr = np.repeat(flat[starts + last], width).reshape(n, width)
        path_arr[filled] = flat
    return path_arr, last


def _injection_batches(
    roots: np.ndarray, times: np.ndarray
) -> list[tuple[int, np.ndarray]]:
    """``(step, packets)`` injection batches of *roots*, latest first
    (the run pops them off the end); packets sharing an injection step
    enter in input order."""
    if not roots.size:
        return []
    if (times == times[0]).all():
        return [(int(times[0]), roots)]
    by_time = np.argsort(times, kind="stable")
    times = times[by_time]
    cuts = np.nonzero(times[1:] != times[:-1])[0] + 1
    steps = times[np.append(0, cuts)].tolist()
    return list(zip(steps, np.split(roots[by_time], cuts)))[::-1]


def _combine_groups(packets: Sequence[Packet]) -> np.ndarray:
    """Dense combine-group id per packet: two packets share an id iff
    they share a combine key; keyless packets get singleton ids."""
    gid = np.empty(len(packets), dtype=np.int64)
    key_ids: dict = {}
    next_gid = 0
    for i, p in enumerate(packets):
        key = p.combine_key
        if key is None:
            gid[i] = next_gid
            next_gid += 1
        else:
            g = key_ids.get(key)
            if g is None:
                g = key_ids[key] = next_gid
                next_gid += 1
            gid[i] = g
    return gid


def _spawn_tables(spawn_plan, n: int, width: int):
    """Validate an array spawn plan and index it by trigger.

    *spawn_plan* is ``(parent, position, child)``: aligned int arrays,
    one row per dormant packet, in the order the children of one trigger
    activate.  A *trigger* is a distinct ``(parent, position)``; one
    stable sort groups the rows by trigger — a parent's triggers end up
    adjacent and ascending in position — and the result is a CSR over
    them: trigger k belongs to ``trig_parent[k]``, fires at flat cursor
    ``trig_cursor[k]`` (``parent * (width - 1) + position``) and
    activates ``kids[bounds[k]:bounds[k + 1]]``.  ``next_trig[i]`` is
    packet i's first trigger (-1: none) and ``nsp[i]`` that trigger's
    cursor (-9: none).  Returns ``(dormant, nsp, next_trig, kids,
    bounds, trig_parent, trig_cursor)`` — the first two as arrays for
    the vector compares, the rest as lists for the per-trigger reads.
    """
    sp_parent, sp_pos, sp_child = (np.asarray(a, dtype=np.int64) for a in spawn_plan)
    if not (sp_parent.ndim == 1 and sp_parent.shape == sp_pos.shape == sp_child.shape):
        raise ValueError(
            "spawn_plan must be three aligned (parent, position, child) int arrays"
        )
    ids = np.concatenate([sp_parent, sp_child])
    bad = (ids < 0) | (ids >= n)
    if bad.any():
        raise ValueError(
            f"spawn_plan names packet {int(ids[bad][0])}, outside the "
            f"{n}-packet population"
        )
    bad = (sp_pos < 0) | (sp_pos >= width)
    if bad.any():
        raise ValueError(
            f"spawn_plan position {int(sp_pos[bad][0])} is outside the "
            f"{width}-node paths"
        )
    dormant = np.zeros(n, dtype=bool)
    dormant[sp_child] = True
    if int(dormant.sum()) != sp_child.size:
        twice = sp_child[np.bincount(sp_child, minlength=n)[sp_child] > 1]
        raise ValueError(
            f"spawn_plan lists child {int(twice[0])} twice: a dormant packet "
            "has one trigger"
        )
    order = np.argsort(sp_parent * width + sp_pos, kind="stable")
    by_parent = sp_parent[order]
    by_pos = sp_pos[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (by_parent[1:] != by_parent[:-1]) | (by_pos[1:] != by_pos[:-1])
    starts = np.nonzero(first)[0]
    trig_parent = by_parent[starts]
    trig_cursor = trig_parent * (width - 1) + by_pos[starts]
    # a repeated index keeps its last write: scattered back to front,
    # each parent keeps its first (lowest-position) trigger
    back = trig_parent[::-1]
    next_trig = np.full(n, -1, dtype=np.int64)
    next_trig[back] = np.arange(starts.size - 1, -1, -1)
    nsp = np.full(n, -9, dtype=np.int64)
    nsp[back] = trig_cursor[::-1]
    return (
        dormant,
        nsp,
        next_trig.tolist(),
        sp_child[order].tolist(),
        np.append(starts, order.size).tolist(),
        trig_parent.tolist() + [-1],  # sentinel: the last trigger has no successor
        trig_cursor.tolist(),
    )


@dataclass(frozen=True)
class RunArrays:
    """What a finished fast run knows, as arrays (row i = packet i).

    :meth:`FastPathEngine.run` turns these into ``Packet`` fields and a
    :class:`RoutingStats`; the reply phase reads them directly
    (:func:`repro.emulation.combining.route_replies_fast`), so a
    request's path, the hop it stopped at and who absorbed whom never
    go through ``Packet`` objects on the way back.
    """

    #: the padded ``(n, width)`` node-id itineraries the run followed
    paths: np.ndarray
    #: position each packet stopped at: delivery, absorption, or the
    #: queue it sat in when the run ended
    hops: np.ndarray
    #: arrival step (an absorbed packet's is its absorption root's);
    #: -1 = not delivered
    arrived: np.ndarray
    #: injection step; a spawned packet's is the step its trigger fired
    injected_at: np.ndarray
    #: CRCW absorptions in the order they happened: ``absorbed[j]`` was
    #: merged into ``absorbed_by[j]`` (both empty without combining)
    absorbed_by: np.ndarray
    absorbed: np.ndarray
    #: packets that took part, in stats order — roots in input order,
    #: then spawned packets in spawn order; ``None`` = all, input order
    order: np.ndarray | None
    steps: int
    completed: bool
    max_queue: int
    max_node_load: int
    combines: int
    credits_stalled: int
    escape_hops: int
    fault_stalls: int
    #: the no-progress report of a wedged constrained run, else ``None``
    deadlock: str | None


class FastPathEngine:
    """Synchronous router over precompiled integer paths.

    Parameters mirror the reference engine: ``node_capacity`` enables the
    backpressure model (arrival slots reserved during the transmission
    phase, delivered-at-target heads exempt) — bit-for-bit the semantics
    of :class:`~repro.routing.engine.SynchronousEngine`.
    ``flow_control="credit"`` adds the deadlock-free credit/escape
    protocol of :mod:`repro.routing.flow_control` (escape buffers are
    keyed by interned link index — 1:1 with the reference engine's
    ``(u, w)`` link keys), and a no-progress step with queued packets
    raises :class:`~repro.routing.flow_control.DeadlockError` in both
    engines.

    The capacity exemption compares a head's *final node id* against the
    link's target, which equals the reference engine's ``head.dest ==
    link target`` check on every flat integer topology (mesh, linear
    array, hypercube, shuffle, star).  Leveled routes compare
    position-encoded ids, which bakes in the reference engine's
    ``exit_dest`` / ``capacity_key`` reconciliation: the wrap aliases
    ``(0, L, r)`` and ``(1, 0, r)`` share one id, so capacity is
    accounted per physical node exactly as the tuple-keyed engine does.

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
        combine: bool = False,
        track_paths: bool = False,
        node_capacity: int | None = None,
        flow_control: str = "none",
        observer=None,
    ) -> None:
        self.combine = combine
        self.track_paths = track_paths
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
        packets: Sequence[Packet] | None,
        paths,
        *,
        num_nodes: int,
        max_steps: int,
        path_lengths: Sequence[int] | None = None,
        priorities=None,
        links: tuple[np.ndarray, np.ndarray] | None = None,
        spawn_plan: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        raise_on_timeout: bool = False,
        node_key: Callable[[int, int], object] | None = None,
        trace_key: Callable[[int, int], object] | None = None,
        link_faults=None,
        fault_base: int = 0,
    ) -> RoutingStats:
        """Route *packets* along *paths* until delivery or *max_steps*.

        ``paths[i]`` is packet i's node-id itinerary including its start;
        the packet is delivered on reaching entry ``path_lengths[i]``
        (default: the last entry).  *paths* is either a 2-D
        ``np.ndarray`` padded past each packet's end (repeating the
        destination) or a list of per-packet lists, which may be ragged:
        those are padded here with the same destination-repeat
        convention — the pad is never traversed.  ``num_nodes`` bounds
        the id space (used to intern links and size load tables).
        ``priorities[i][k]`` — when given — is packet i's integer queue
        priority at its k-th link crossing (largest first, FIFO ties):
        the furthest-destination-first discipline with priorities
        evaluated at push time, exactly like the reference
        ``FurthestFirstQueue``.  ``node_key`` / ``trace_key`` decode
        ``(position, node_id)`` into the hashable keys written back to
        ``packet.node`` / ``packet.trace`` (identity when omitted).
        ``links`` — a precompiled ``(link_id_matrix, link_src)`` pair or
        ``(link_id_matrix, link_src, link_dst)`` triple aligned with a
        rectangular *paths* matrix (e.g. the arithmetic mesh encoding of
        :meth:`repro.topology.compiled.CompiledMesh2D.link_matrix` or
        the leveled encoding of
        :meth:`repro.topology.compiled.CompiledLeveledTopology.link_matrix`)
        — skips the np.unique interning pass (the constrained mode
        derives ``link_dst`` from the path matrix when only the pair is
        given).

        ``packets=None`` routes an *anonymous* population: one packet
        per row of *paths*, all injected at step 0, none with a combine
        key, nothing to write back — the reply phase, whose packets
        exist only as rows of the reverse-path matrix.  The returned
        stats are the same either way; the run's per-packet arrays stay
        on :attr:`last_arrays`.

        ``link_faults`` is an optional
        :class:`~repro.faults.runtime.LinkFaultView` whose keys are
        ``(u, w)`` integer node-id pairs: a blocked link holds its
        queue (and any escape occupant crossing it) this step, counted
        in ``fault_stalls``; states are sampled at the global step
        ``fault_base + t`` — semantics identical to the reference
        engine's, so differential tests stay bit-exact.

        ``spawn_plan`` is the static form of the reference engine's
        ``on_arrival`` hook for reply fan-out: three aligned int arrays
        ``(parent, position, child)``, one row per dormant packet,
        meaning that when packet *parent* reaches path position
        *position*, packet *child* activates there.  Rows sharing a
        ``(parent, position)`` are one trigger and activate in row
        order, before the parent is placed (a child's own position-0
        trigger fires as it activates, recursively) — the order of
        :class:`~repro.emulation.combining.ReplySpawner`.  Dormant
        packets are passed in *paths* up front; one never triggered is
        excluded from the run's stats, exactly as if it were never
        created.  Not supported with ``node_capacity``.
        """
        _obs = self.observer
        _prof = _obs.profile if _obs is not None else None
        _t_run0 = wall_time() if _prof is not None else 0.0
        if spawn_plan is not None and self.node_capacity is not None:
            raise ValueError("spawn_plan is not supported with node_capacity")
        try:
            all_packets = None if packets is None else list(packets)
            n = len(paths) if all_packets is None else len(all_packets)
            path_arr, last = _normalise_paths(paths, path_lengths, n)
            if all_packets is None:
                injected_at = np.zeros(n, dtype=np.int64)
                gid = None
            else:
                injected_at = np.fromiter(
                    (p.injected_at for p in all_packets), dtype=np.int64, count=n
                )
                gid = _combine_groups(all_packets) if self.combine else None
            if _prof is not None:
                _prof.add_phase("setup", wall_time() - _t_run0)
            arrays = self._run_batch(
                path_arr,
                last,
                injected_at,
                gid,
                priorities,
                links=links,
                spawn_plan=spawn_plan,
                num_nodes=num_nodes,
                max_steps=max_steps,
                link_faults=link_faults,
                fault_base=fault_base,
            )
            self.last_arrays = arrays
            _t_fin0 = wall_time() if _prof is not None else 0.0
            if all_packets is not None:
                self._write_back(all_packets, arrays, node_key, trace_key)
            rows = slice(None) if arrays.order is None else arrays.order
            stats = stats_from_arrays(
                arrays.hops[rows],
                arrays.injected_at[rows],
                arrays.arrived[rows],
                steps=arrays.steps,
                max_queue=arrays.max_queue,
                completed=arrays.completed,
                combines=arrays.combines,
                max_node_load=arrays.max_node_load,
                credits_stalled=arrays.credits_stalled,
                escape_hops=arrays.escape_hops,
                fault_stalls=arrays.fault_stalls,
                run_mode=self.last_run_mode,
            )
            if _prof is not None:
                _prof.add_phase("finish", wall_time() - _t_fin0)
        finally:
            if _prof is not None:
                _prof.add_mode(self.last_run_mode or "batch", wall_time() - _t_run0)
        if arrays.deadlock is not None:
            err = DeadlockError(stats, detail=arrays.deadlock)
            if _obs is not None:
                err.flight_tail = _obs.flight_tail()
            raise err
        if not arrays.completed and raise_on_timeout:
            raise RoutingTimeout(stats)
        return stats

    def _write_back(
        self, all_packets: list[Packet], arrays: RunArrays, node_key, trace_key
    ) -> None:
        """Copy a run's outcome onto its ``Packet`` objects.

        Without combining, ``combined`` / ``children`` keep their
        constructor defaults — matching the reference engine, which also
        only touches them through combining.
        """
        combine = self.combine
        track = self.track_paths
        tkey = trace_key if trace_key is not None else node_key
        n = len(all_packets)
        hops = arrays.hops
        hops_l = hops.tolist()
        arrived_l = arrays.arrived.tolist()
        node_vals = arrays.paths[np.arange(n), hops].tolist()
        path_rows = arrays.paths.tolist() if track else None
        if combine:
            combined = np.zeros(n, dtype=bool)
            combined[arrays.absorbed] = True
            combined_l = combined.tolist()
            # hosts get their children in absorption order
            children_map: dict[int, list[Packet]] = {}
            for h, c in zip(arrays.absorbed_by.tolist(), arrays.absorbed.tolist()):
                children_map.setdefault(h, []).append(all_packets[c])
        if arrays.order is None:
            sel = range(n)
            inj_l = None
        else:
            # spawned packets were injected when their trigger fired;
            # never-triggered ones were never part of the run
            sel = arrays.order.tolist()
            inj_l = arrays.injected_at.tolist()
        for i in sel:
            p = all_packets[i]
            k = hops_l[i]
            a = arrived_l[i]
            nv = node_vals[i]
            p.hops = k
            p.arrived_at = None if a < 0 else a
            p.node = node_key(k, nv) if node_key is not None else nv
            if inj_l is not None:
                p.injected_at = inj_l[i]
            if combine:
                p.combined = combined_l[i]
                p.children = children_map.get(i)
            if track:
                path = path_rows[i]
                if tkey is not None:
                    p.trace = [tkey(j, path[j]) for j in range(k + 1)]
                else:
                    p.trace = path[: k + 1]

    def _run_batch(
        self,
        path_arr: np.ndarray,
        last: np.ndarray,
        injected_at: np.ndarray,
        gid: np.ndarray | None,
        priorities,
        *,
        links: tuple[np.ndarray, np.ndarray] | None,
        spawn_plan: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
        num_nodes: int,
        max_steps: int,
        link_faults=None,
        fault_base: int = 0,
    ) -> RunArrays:
        """Vectorized replay: whole phases as array operations.

        Takes and returns arrays only — *injected_at* (owned by the
        run: a spawn plan's trigger steps are written into it) and the
        dense combine-group ids *gid* (``None``: nothing combines) in,
        :class:`RunArrays` out; :meth:`run` does the ``Packet``
        extraction and write-back around it.

        Queue state lives in flat arrays over *virtual links* — a
        (link, priority-class) pair — each holding an intrusive FIFO
        chain of packet indices.  A link's pop takes the head of its
        highest nonempty class (largest priority first, FIFO among ties:
        exactly the reference FurthestFirstQueue order, since two equal
        priorities pop in push order).  The per-link maximum class is
        maintained lazily: pushes raise it with ``np.maximum.at``, pops
        let it go stale and the transmission phase walks it down until
        it hits a nonempty class — amortized O(1) per event, all masked
        vector ops.  FIFO discipline is the one-class special case.

        Reference-order equivalence: links transmit in activation order
        (first arrival first) and packets that arrive at one link in one
        step enqueue in transmission order of their source links.  An
        arrival batch is already in that order, and ``admit`` keeps it
        through two lanes.  The **solo lane** takes every packet that is
        alone on a previously idle link (``q_len`` reads 1 after the
        batch's scatter-add — nearly all served traffic, since the
        paper's emulations keep link queues O(1)): it is its queue's
        head and tail, an idle link's class counts are all zero so its
        class *is* the link's maximum (``cls_max`` is set, not maxed),
        and solo links join ``active`` in batch order.  The **contended
        residue** (a link shared within the batch, or already busy) is
        grouped by one stable sort on (virtual link, batch position) and
        each group's chain is spliced onto its queue's tail.  With a
        residue present, newly activated links are ordered by a reverse
        first-writer scatter: a repeated index keeps its last write, so
        scattering batch positions back to front leaves each idle link
        the position of its *first* arrival — O(batch), no scan over all
        links.  ``tests/test_batch_arrival.py`` pins both lanes by
        construction.

        Every per-position table (link id, class, virtual link, combine
        code) is raveled once per run and read through one flat cursor
        per packet: packet i at position k reads slot
        ``i * (width - 1) + k``, and delivery is ``cursor == last slot``.

        CRCW combining vectorizes through interned (link, combine-group)
        codes: a link holds at most one resident packet per combine key
        (an arrival matching a resident is absorbed instead of queued),
        so the combine index is a flat ``host_at`` array over the
        interned codes.  Arrival is sort-free: gather the residents,
        scatter the batch in reverse (the first arrival per code wins),
        restore the codes that had a resident, re-gather — whoever holds
        a packet's code is its host, and a packet that is not its own
        host is absorbed, exactly the reference engine's
        arrival-by-arrival outcome with hosts and children in batch
        order.  Every queued packet is its code's resident, so a pop
        releases the code unconditionally.  Absorption trees are kept as
        parent pointers plus subtree sizes (resolved to the reference
        engine's delivery cascade after the run).

        Spawn plans (reply fan-out) stay off the per-packet path: a
        packet's next pending trigger lives in ``nsp`` as a flat cursor,
        so ``admit`` finds the triggers an arrival batch fires with one
        vector compare and expands only those positions — Python work is
        O(triggers fired), whatever the batch size.

        Constrained mode (``node_capacity``, flow_control "none" or
        "credit") keeps the same queue/arrival machinery and replaces
        only the transmission phase with *batch credit accounting*: the
        active links are classified vectorized into a **sure** majority
        — exempt heads (delivered at the link's target) and links whose
        target provably has credits for every comer this step
        (``load + reserved + incoming_nonexempt <= capacity`` means no
        processing order can starve them) — and a **contended** residue
        replayed scalar in exact reference activation order.  The only
        cross-class coupling is departures out of a contended link's
        target by sure links earlier in the order; those are resolved
        with one vectorized rank query (sorted (src, position) keys +
        ``np.searchsorted``) before the scalar walk, so the walk touches
        contended links only.  Escape-buffer occupancy lives in a
        :class:`CreditState` keyed by dense link id (each directed
        link's id *is* its escape slot), and a no-progress step raises
        :class:`DeadlockError`.
        """
        n, width = path_arr.shape
        capacity = self.node_capacity
        _obs = self.observer
        _prof = _obs.profile if _obs is not None else None
        _rec = _obs.recorder if _obs is not None else None
        _t_setup0 = wall_time() if _prof is not None else 0.0
        fc = CreditState() if self.flow_control == "credit" else None
        self.last_run_mode = "batch" if capacity is None else "batch-constrained"
        link_dst: np.ndarray | None = None
        if links is not None:
            if len(links) == 3:
                link_mat, link_src, link_dst = links
                link_dst = np.asarray(link_dst, dtype=np.int64)
            else:
                link_mat, link_src = links
            link_mat = np.asarray(link_mat, dtype=np.int64)
            link_src = np.asarray(link_src, dtype=np.int64)
            if link_mat.shape != (n, max(width - 1, 0)):
                raise ValueError("links matrix must align with the path matrix")
            if (
                (capacity is not None or link_faults is not None)
                and link_dst is None
                and width > 1
            ):
                # Derive each link's target by scattering the path
                # matrix over the traversed positions (all writers of a
                # link agree by construction).  Padded positions are
                # excluded: a pad column repeats the destination, and
                # arithmetic id schemes may map that self-loop onto a
                # *real* link's id, which the scatter must not clobber.
                link_dst = np.zeros(link_src.size, dtype=np.int64)
                traversed = (
                    np.arange(width - 1, dtype=np.int64)[None, :]
                    < last[:, None]
                )
                link_dst[link_mat[traversed]] = path_arr[:, 1:][traversed]
        elif width > 1:
            codes = path_arr[:, :-1] * num_nodes + path_arr[:, 1:]
            uniq, inverse = np.unique(codes, return_inverse=True)
            link_src = (uniq // num_nodes).astype(np.int64)
            link_dst = (uniq % num_nodes).astype(np.int64)
            link_mat = inverse.reshape(codes.shape).astype(np.int64)
        else:
            link_src = np.empty(0, dtype=np.int64)
            link_dst = np.empty(0, dtype=np.int64)
            link_mat = np.empty((n, 0), dtype=np.int64)
        n_links = int(link_src.size)
        if capacity is not None and link_dst is None:
            link_dst = np.empty(0, dtype=np.int64)

        n_slots = width - 1  # link positions per packet row
        if priorities is None:
            n_classes = 1
        else:
            prio_arr = (
                priorities
                if isinstance(priorities, np.ndarray)
                else np.asarray(priorities, dtype=np.int64)
            )
            if prio_arr.shape[0] != n:
                raise ValueError("one priority row per packet required")
            pmin = int(prio_arr.min()) if prio_arr.size else 0
            pmax = int(prio_arr.max()) if prio_arr.size else 0
            n_classes = pmax - pmin + 1
            if prio_arr.shape[1] < n_slots:
                raise ValueError("one priority per link position required")

        combine = gid is not None
        combines = 0
        spawn_mode = spawn_plan is not None
        if spawn_mode:
            if combine:
                raise ValueError("spawn_plan and combining are mutually exclusive")
            # A packet's next pending trigger lives in ``nsp`` (as a flat
            # cursor, see ``fl`` below) so the hot loop detects hits with
            # one vector compare; the trigger tables are plain lists,
            # read only for the triggers that fire.
            dormant, nsp, next_trig, kids, bounds, trig_parent, trig_cursor = (
                _spawn_tables(spawn_plan, n, width)
            )
            spawned: list[np.ndarray] = []

            def fire(i: int, out: list[int], seq: list[int]) -> None:
                """Packet i's pending trigger fires: append its children
                to *seq* in spawn order (parents first) and to *out* in
                placement order — a child that has a trigger at its own
                position 0 fires it on activation, so its children are
                placed before it."""
                k = next_trig[i]
                group = kids[bounds[k] : bounds[k + 1]]
                k += 1
                if trig_parent[k] == i:
                    next_trig[i] = k
                    nsp[i] = trig_cursor[k]
                else:
                    next_trig[i] = -1
                    nsp[i] = -9
                for c in group:
                    seq.append(c)
                    kc = next_trig[c]
                    if kc >= 0 and trig_cursor[kc] == c * n_slots:
                        fire(c, out, seq)
                    out.append(c)

        if combine:
            vc_codes = link_mat * (np.int64(gid.max()) + 1 if n else 1) + gid[:, None]
            vc_uniq, vc_inv = np.unique(vc_codes, return_inverse=True)
            vc_flat = vc_inv.ravel()
            #: resident host per interned (link, gid) code, -1 if none
            host_at = np.full(vc_uniq.size, -1, dtype=np.int64)
            parent = np.full(n, -1, dtype=np.int64)
            subtree = np.ones(n, dtype=np.int64)
            child_pairs: list[tuple[np.ndarray, np.ndarray]] = []

        # All-int64 state: values double as fancy indices, and mixed
        # dtypes make numpy recast index arrays (and buffer ufunc.at
        # operands) on every call.
        n_virtual = n_links * n_classes
        q_head = np.full(n_virtual, -1, dtype=np.int64)
        q_tail = np.full(n_virtual, -1, dtype=np.int64)
        q_next = np.full(n, -1, dtype=np.int64)
        # With one class a link's class-count IS its queue length.
        counts = np.zeros(n_virtual, dtype=np.int64) if n_classes > 1 else None
        cls_max = np.zeros(n_links, dtype=np.int64)
        q_len = np.zeros(n_links, dtype=np.int64)
        node_load = np.zeros(num_nodes, dtype=np.int64)
        # One flat cursor per packet into the raveled per-position
        # tables: packet i at position k reads slot ``i*n_slots + k``.
        fl_base = np.arange(n, dtype=np.int64) * n_slots
        fl = fl_base.copy()
        fl_last = fl_base + last
        li_flat = link_mat.ravel()
        if n_classes > 1:
            cls_flat = (prio_arr[:, :n_slots] - pmin).astype(np.int64).ravel()
            vli_flat = li_flat * n_classes + cls_flat
        # first-writer scratch: only entries just written are read
        first_at = np.empty(n_links, dtype=np.int64)
        arrived = np.full(n, -1, dtype=np.int64)

        #: links with queued packets, in activation order
        active = np.empty(0, dtype=np.int64)
        max_queue = 0
        max_node_load = 0
        fault_stalls = 0
        if link_faults is not None:
            # Fault pairs resolve to dense link ids through the interned
            # code table (built lazily on the first nonempty blocked
            # set); the boolean flag array is rebuilt only when the
            # blocked set actually changes (per timeline segment, plus
            # slow-link phase flips).  A code maps to a *list* of dense
            # ids: arithmetic link interning (mesh ``u*4+direction``,
            # leveled ``u*d+slot``) gives boundary nodes several slots
            # with the same (src, dst) endpoints, and a down wire must
            # block every slot that crosses it.
            f_code_li: dict[int, list[int]] | None = None
            f_flags = np.zeros(n_links, dtype=bool)
            f_cur = np.empty(0, dtype=np.int64)
            f_last_parts: tuple | None = None
        remaining = n - int(dormant.sum()) if spawn_mode else n
        deadlocked = False
        if capacity is not None:
            # Constrained-mode state: each packet's exit node (for the
            # delivered-at-target capacity exemption), per-step scratch
            # counters (zeroed lazily — only touched entries are reset),
            # and the escape-claim ledger (packet -> link crossed into
            # its escape buffer; resolved to an occupancy at admit time).
            dest_arr = (
                path_arr[np.arange(n), last]
                if n
                else np.empty(0, dtype=np.int64)
            )
            dest_l = dest_arr.tolist()
            link_dst_l = link_dst.tolist()
            inc_np = np.zeros(num_nodes, dtype=np.int64)
            res_np = np.zeros(num_nodes, dtype=np.int64)
            pending_escape: dict[int, int] = {}
            empty_i64 = np.empty(0, dtype=np.int64)
            # Membership scratch flags (reset after use): np.isin sorts
            # its operands, which dwarfs these O(1) scatter/gathers.
            used_flag = np.zeros(n_links, dtype=bool)
            pend_flag = np.zeros(n, dtype=bool)
            # Per-node counters for the scalar contended walk, as plain
            # Python lists (faster than dict.get chains and numpy
            # scalar indexing); only touched entries are reset.
            res_list = [0] * num_nodes
            dep_list = [0] * num_nodes

        roots = np.nonzero(~dormant)[0] if spawn_mode else np.arange(n, dtype=np.int64)
        pending = _injection_batches(roots, injected_at[roots])

        def admit(batch: np.ndarray, t: int):
            """Place a batch of packets (in order): deliver or enqueue."""
            nonlocal active, max_queue, max_node_load, remaining, combines
            f = fl[batch]
            if spawn_mode:
                hits = (f == nsp[batch]).nonzero()[0]
                if hits.size:
                    # Spawn triggers: only the hit positions are walked.
                    # Matching the reference hook order, a parent's
                    # spawned children (and their own position-0 spawns,
                    # recursively) are placed *before* the parent at the
                    # same node and step — spliced into the batch in
                    # front of it.
                    out: list[int] = []
                    seq: list[int] = []
                    sizes = []
                    for i in batch[hits].tolist():
                        before = len(out)
                        fire(i, out, seq)
                        sizes.append(len(out) - before)
                    new = np.asarray(out, dtype=np.int64)
                    injected_at[new] = t
                    remaining += len(out)
                    spawned.append(np.asarray(seq, dtype=np.int64))
                    batch = np.insert(batch, np.repeat(hits, sizes), new)
                    f = fl[batch]
            done = f == fl_last[batch]
            if done.any():
                done_idx = batch[done]
                arrived[done_idx] = t
                # A delivered host delivers its whole absorption subtree
                # (the reference engine's deliver cascade).
                remaining -= (
                    int(subtree[done_idx].sum()) if combine else int(done_idx.size)
                )
                keep = ~done
                batch = batch[keep]
                if not batch.size:
                    return
                f = f[keep]
            if combine:
                # Sort-free combining over the interned (link, key)
                # codes.  A code never holds two residents, so a batch
                # member is absorbed iff its code already had a resident
                # or an earlier member of the batch claimed it: the
                # batch is scattered in reverse (a repeated index keeps
                # its last write, i.e. the *first* arrival), codes that
                # had a resident are restored, and whoever the re-gather
                # finds is the host — exactly the reference engine's
                # arrival-by-arrival semantics, with hosts and children
                # left in batch order.
                _c0 = wall_time() if _prof is not None else 0.0
                vc = vc_flat[f]
                resident = host_at[vc]
                host_at[vc[::-1]] = batch[::-1]
                had = resident >= 0
                if had.any():
                    host_at[vc[had]] = resident[had]
                hosts = host_at[vc]
                absorbed = hosts != batch
                if absorbed.any():
                    ch = batch[absorbed]
                    hs = hosts[absorbed]
                    parent[ch] = hs
                    np.add.at(subtree, hs, subtree[ch])
                    combines += int(ch.size)
                    child_pairs.append((hs, ch))
                    keep = ~absorbed
                    batch = batch[keep]
                    f = f[keep]
                if _prof is not None:
                    _prof.add_phase("combining", wall_time() - _c0)
                if not batch.size:
                    return
            li = li_flat[f]
            pre_len = q_len[li]  # pre-batch lengths (gather before add)
            np.add.at(q_len, li, 1)
            post_len = q_len[li]
            srcs = link_src[li]
            np.add.at(node_load, srcs, 1)
            # Max stats only need the touched entries: within the phase
            # lengths/loads only grow, so the post-batch values are the
            # step's peaks (gathers see each link's final value at its
            # last duplicate).
            mq = int(post_len.max())
            if mq > max_queue:
                max_queue = mq
            mnl = int(node_load[srcs].max())
            if mnl > max_node_load:
                max_node_load = mnl
            if counts is not None:
                vli = vli_flat[f]
                cls = cls_flat[f]
            else:
                vli = li
            # Solo lane: ``post_len == 1`` marks a packet alone on a
            # previously idle link.  It is its queue's head and tail, and
            # every class count of an idle link is zero, so its class
            # *is* the link's maximum (set, not maxed — a stale-high
            # ``cls_max`` is overwritten).  Solo links activate in batch
            # order, which is their first-arrival order.
            solo = post_len == 1
            if solo.all():
                newly = li
            else:
                # Contended residue (shared or already-busy links):
                # stable grouping keeps, per virtual link, the batch's
                # own arrival order — the FIFO tie order of the reference
                # engine.  Sorting (vli, position) as one combined key
                # gives stable group order with the default introsort
                # (faster than a stable mergesort on int64).
                rest = ~solo
                r_v = vli[rest]
                order = np.argsort(
                    r_v * np.int64(r_v.size) + np.arange(r_v.size, dtype=np.int64)
                )
                s_v = r_v[order]
                s_i = batch[rest][order]
                # Each packet chains behind the previous member of its
                # group, a group's first behind the queue's old tail.
                prev = q_tail[s_v]
                cont = s_v[1:] == s_v[:-1]
                prev[1:][cont] = s_i[:-1][cont]
                chained = prev >= 0
                q_next[s_i] = -1
                q_next[prev[chained]] = s_i[chained]
                q_head[s_v[~chained]] = s_i[~chained]
                # a repeated index keeps its last write: the group's tail
                q_tail[s_v] = s_i
                if counts is not None:
                    np.add.at(counts, r_v, 1)
                    np.maximum.at(cls_max, li[rest], cls[rest])
                    cls = cls[solo]
                # Newly activated links in first-arrival order: scattered
                # back to front, each link keeps its first writer.
                idx = np.nonzero(pre_len == 0)[0]
                newly = li[idx]
                first_at[newly[::-1]] = idx[::-1]
                newly = newly[first_at[newly] == idx]
                batch = batch[solo]
                vli = vli[solo]
                li = li[solo]
            q_head[vli] = batch
            q_tail[vli] = batch
            q_next[batch] = -1
            if counts is not None:
                counts[vli] = 1
                cls_max[li] = cls
            active = np.concatenate([active, newly])

        if _prof is not None:
            # Arrival-phase timing wraps admit(); combining time booked
            # inside it is subtracted so the phase buckets stay disjoint.
            _admit_raw = admit

            def admit(batch: np.ndarray, t: int):
                _a0 = wall_time()
                _c_before = _prof.phase_total("combining")
                _admit_raw(batch, t)
                _prof.add_phase(
                    "arrival",
                    (wall_time() - _a0)
                    - (_prof.phase_total("combining") - _c_before),
                )

        if _prof is not None:
            _prof.add_phase("setup", wall_time() - _t_setup0)
        t = 0
        while remaining > 0:
            while pending and pending[-1][0] <= t:
                admit(pending.pop()[1], t)
            if remaining == 0:
                break
            if t >= max_steps:
                break
            if (
                not active.size
                and not pending
                and (fc is None or not fc.escape_at)
            ):
                raise NetworkDrainedError(remaining, t, _obs)

            fault_blocked_step = False
            f_any = False
            if link_faults is not None:
                parts = link_faults.parts_at(fault_base + t)
                if parts != f_last_parts:
                    fstatic, fextra = parts
                    f_flags[f_cur] = False
                    lis: list[int] = []
                    if fstatic or fextra:
                        if f_code_li is None:
                            f_code_li = {}
                            codes = (link_src * num_nodes + link_dst).tolist()
                            for li, code in enumerate(codes):
                                f_code_li.setdefault(code, []).append(li)
                        for u, w in sorted(fstatic):
                            lis.extend(f_code_li.get(u * num_nodes + w, ()))
                        for u, w in fextra:
                            lis.extend(f_code_li.get(u * num_nodes + w, ()))
                    f_cur = np.asarray(lis, dtype=np.int64)
                    f_flags[f_cur] = True
                    f_last_parts = parts
                f_any = f_cur.size > 0

            _tx0 = wall_time() if _prof is not None else 0.0
            _esc_dt = 0.0
            # Transmission: every active link pops the head of its
            # highest nonempty class (lazy walk-down of stale maxima;
            # the loop narrows to the still-stale subset, so total work
            # is amortized by pushes, not classes x active links).
            if n_classes > 1 and active.size:
                cls = cls_max[active]
                vli = active * n_classes + cls
                stale = np.nonzero(counts[vli] == 0)[0]
                if stale.size:
                    while stale.size:
                        cls[stale] -= 1
                        vli[stale] -= 1
                        stale = stale[counts[vli[stale]] == 0]
                    cls_max[active] = cls
            else:
                vli = active
            heads = q_head[vli]
            if capacity is None:
                if f_any and active.size:
                    keep = ~f_flags[active]
                    nblocked = int(active.size) - int(keep.sum())
                else:
                    nblocked = 0
                if nblocked:
                    # Fault-blocked links hold their queues this step;
                    # the unblocked subset transmits exactly as below.
                    fault_stalls += nblocked
                    fault_blocked_step = True
                    vli_s = vli[keep]
                    heads_s = heads[keep]
                    act_s = active[keep]
                    nxt = q_next[heads_s]
                    q_head[vli_s] = nxt
                    q_tail[vli_s[nxt < 0]] = -1
                    if counts is not None:
                        counts[vli_s] -= 1
                    if combine:
                        host_at[vc_flat[fl[heads_s]]] = -1
                    q_len[act_s] -= 1
                    np.subtract.at(node_load, link_src[act_s], 1)
                    fl[heads_s] += 1
                    arrivals = heads_s
                    active = active[q_len[active] > 0]
                else:
                    nxt = q_next[heads]
                    q_head[vli] = nxt
                    q_tail[vli[nxt < 0]] = -1
                    if counts is not None:
                        counts[vli] -= 1
                    if combine:
                        # A departing packet releases its combine-code
                        # residency (every queued packet is its code's
                        # resident: arrivals that met one were absorbed).
                        host_at[vc_flat[fl[heads]]] = -1
                    ql_after = q_len[active] - 1
                    q_len[active] = ql_after
                    np.subtract.at(node_load, link_src[active], 1)
                    fl[heads] += 1
                    arrivals = heads
                    active = active[ql_after > 0]
            else:
                # ---- constrained transmission: batch credit accounting.
                # Escape subphase first, exactly like the reference
                # engine: occupants advance in occupancy order (absolute
                # priority on their next link); `used` then blocks the
                # bulk heads of those links.
                esc_arrivals: list[int] = []
                used: set[int] = set()
                reserved: dict[int, int] = {}
                if fc is not None and fc.escape_at:
                    # node_load is static for the whole subphase (pops
                    # and enqueues happen later), so gather the target
                    # loads once instead of per-occupant scalar reads.
                    # CreditState's dict ops are inlined: this loop runs
                    # once per occupant per step.
                    _esc0 = wall_time() if _prof is not None else 0.0
                    esc_at = fc.escape_at
                    esc_next = fc.escape_next
                    stalls = 0
                    ehops = 0
                    esc_snapshot = list(esc_at.items())
                    nls = [esc_next[el] for el, _ in esc_snapshot]
                    load_at = node_load[link_dst[nls]].tolist() if nls else []
                    for (el, i), nl, ld in zip(esc_snapshot, nls, load_at):
                        if f_any and f_flags[nl]:
                            fault_stalls += 1
                            fault_blocked_step = True
                            continue
                        if nl in used:
                            stalls += 1
                            continue
                        w = link_dst_l[nl]
                        if dest_l[i] != w:
                            if ld + reserved.get(w, 0) < capacity:
                                reserved[w] = reserved.get(w, 0) + 1
                            elif nl not in esc_at:
                                ehops += 1
                                pending_escape[i] = nl
                            else:
                                stalls += 1
                                continue
                        used.add(nl)
                        del esc_at[el]
                        del esc_next[el]
                        esc_arrivals.append(i)
                    fc.credits_stalled += stalls
                    fc.escape_hops += ehops
                    if esc_arrivals:
                        fl[np.asarray(esc_arrivals, dtype=np.int64)] += 1
                    if _prof is not None:
                        _esc_dt = wall_time() - _esc0
                        _prof.add_phase("escape", _esc_dt)
                # Bulk subphase, vectorized: a link is **sure** to
                # transmit when its head exits at the target (capacity
                # exemption) or when the target has room for every
                # comer this step no matter the order — `node_load`
                # only falls and `reserved` grows at most by the other
                # non-exempt in-links, so
                # ``load + reserved + incoming_nonexempt <= capacity``
                # is order-independent.  Everything else is contended
                # and replayed scalar in activation order below.
                if active.size:
                    w_arr = link_dst[active]
                    dec = dest_arr[heads] == w_arr  # exempt heads
                    fb = None
                    if f_any:
                        fb = f_flags[active]
                        nb = int(fb.sum())
                        if nb:
                            # A blocked wire never transmits, exempt head
                            # or not; counted as fault stalls, never as
                            # credit stalls (reference order: the fault
                            # check precedes every other stall reason).
                            fault_stalls += nb
                            fault_blocked_step = True
                            dec &= ~fb
                        else:
                            fb = None
                    if used:
                        used_list = sorted(used)
                        used_flag[used_list] = True
                        blocked = used_flag[active]
                        used_flag[used_list] = False
                        if fb is not None:
                            blocked &= ~fb
                        fc.credits_stalled += int(blocked.sum())
                        nonex = ~dec & ~blocked
                    else:
                        blocked = None
                        nonex = ~dec
                    if fb is not None:
                        nonex &= ~fb
                    tgt = w_arr[nonex]
                    np.add.at(inc_np, tgt, 1)
                    budget_at_w = node_load[w_arr] + inc_np[w_arr]
                    inc_np[tgt] = 0
                    if reserved:
                        for wn, v in reserved.items():
                            res_np[wn] = v
                        budget_at_w += res_np[w_arr]
                        for wn in reserved:
                            res_np[wn] = 0
                    fine = budget_at_w <= capacity
                    contended = nonex & ~fine
                    dec |= fine
                    if blocked is not None:
                        dec &= ~blocked
                    if fb is not None:
                        dec &= ~fb
                    c_idx = np.nonzero(contended)[0]
                    if c_idx.size:
                        # Sure links settle before the scalar walk; the
                        # only effect they have on a contended link is a
                        # departure out of its (congested) target — a
                        # rank query "sure links with src == w before
                        # position p", answered for all contended links
                        # with two vectorized searchsorteds.
                        c_links = active[c_idx]
                        c_w = w_arr[c_idx]
                        c_heads = heads[c_idx]
                        c_src = link_src[c_links]
                        c_load = node_load[c_w]
                        s_idx = np.nonzero(dec)[0]
                        a1 = np.int64(active.size + 1)
                        if s_idx.size:
                            s_key = link_src[active[s_idx]] * a1 + s_idx
                            s_key.sort()
                            c_sdep = np.searchsorted(
                                s_key, c_w * a1 + c_idx
                            ) - np.searchsorted(s_key, c_w * a1)
                        else:
                            c_sdep = np.zeros(c_idx.size, dtype=np.int64)
                        c_w_l = c_w.tolist()
                        c_src_l = c_src.tolist()
                        res_l = res_list
                        dep_l = dep_list
                        if reserved:
                            for wn, v in reserved.items():
                                res_l[wn] = v
                        esc_at = fc.escape_at if fc is not None else None
                        stalls = 0
                        ehops = 0
                        c_dec = []
                        c_append = c_dec.append
                        for li, wn, src, h, sd, ld in zip(
                            c_links.tolist(),
                            c_w_l,
                            c_src_l,
                            c_heads.tolist(),
                            c_sdep.tolist(),
                            c_load.tolist(),
                        ):
                            if ld - sd - dep_l[wn] + res_l[wn] < capacity:
                                res_l[wn] += 1
                                dep_l[src] += 1
                                c_append(True)
                            elif esc_at is not None and li not in esc_at:
                                # Credit-starved head takes the escape
                                # buffer of the link it crosses.
                                ehops += 1
                                pending_escape[h] = li
                                dep_l[src] += 1
                                c_append(True)
                            else:
                                stalls += 1
                                c_append(False)
                        if fc is not None:
                            fc.credits_stalled += stalls
                            fc.escape_hops += ehops
                        # Reset the touched per-node counters.
                        for wn in c_w_l:
                            res_l[wn] = 0
                        for src in c_src_l:
                            dep_l[src] = 0
                        if reserved:
                            for wn in reserved:
                                res_l[wn] = 0
                        dec[c_idx] = c_dec
                    t_sel = np.nonzero(dec)[0]
                    if t_sel.size:
                        tr = active[t_sel]
                        vli_t = vli[t_sel]
                        heads_t = heads[t_sel]
                        nxt = q_next[heads_t]
                        q_head[vli_t] = nxt
                        q_tail[vli_t[nxt < 0]] = -1
                        if counts is not None:
                            counts[vli_t] -= 1
                        if combine:
                            host_at[vc_flat[fl[heads_t]]] = -1
                        q_len[tr] -= 1
                        np.subtract.at(node_load, link_src[tr], 1)
                        fl[heads_t] += 1
                        bulk_arrivals = heads_t
                        active = active[q_len[active] > 0]
                    else:
                        bulk_arrivals = empty_i64
                else:
                    bulk_arrivals = empty_i64
                if esc_arrivals:
                    arrivals = np.concatenate(
                        [np.asarray(esc_arrivals, dtype=np.int64), bulk_arrivals]
                    )
                else:
                    arrivals = bulk_arrivals
                if (
                    not arrivals.size
                    and not pending
                    and not fault_blocked_step
                ):
                    # No transmission, no future injections, and nothing
                    # held back by a (possibly transient) fault: the
                    # state is provably static forever.  Report instead
                    # of spinning (the reference engine's detector).
                    if _prof is not None:
                        _prof.add_phase(
                            "transmission", wall_time() - _tx0 - _esc_dt
                        )
                    if _rec is not None:
                        _rec.record(
                            "engine_step",
                            virtual_clock=t,
                            arrivals=0,
                            active_links=int(active.size),
                            remaining=remaining,
                            fault_stalls=fault_stalls,
                        )
                    deadlocked = True
                    break

            if _prof is not None:
                _prof.add_phase("transmission", wall_time() - _tx0 - _esc_dt)
            if _rec is not None:
                _rec.record(
                    "engine_step",
                    virtual_clock=t,
                    arrivals=int(arrivals.size),
                    active_links=int(active.size),
                    remaining=remaining,
                    fault_stalls=fault_stalls,
                )
            t += 1
            if capacity is not None and pending_escape:
                # Escape landings occupy their buffer instead of
                # enqueueing; occupancy order is arrival order, exactly
                # the reference engine's place() order.
                _el0 = wall_time() if _prof is not None else 0.0
                pe = list(pending_escape)
                pend_flag[pe] = True
                pmask = pend_flag[arrivals]
                pend_flag[pe] = False
                landed = arrivals[pmask]
                esc_at = fc.escape_at
                esc_next = fc.escape_next
                for i, nl in zip(
                    landed.tolist(), li_flat[fl[landed]].tolist()
                ):
                    el = pending_escape.pop(i)
                    esc_at[el] = i
                    esc_next[el] = nl
                arrivals = arrivals[~pmask]
                if _prof is not None:
                    _prof.add_phase("escape", wall_time() - _el0)
            if arrivals.size:
                admit(arrivals, t)

        _t_fin0 = wall_time() if _prof is not None else 0.0
        empty = np.empty(0, dtype=np.int64)
        absorbed_by = absorbed = empty
        if combine and child_pairs:
            absorbed_by = np.concatenate([hs for hs, _ in child_pairs])
            absorbed = np.concatenate([ch for _, ch in child_pairs])
            # Absorbed packets arrive when their absorption root does
            # (the deliver cascade): pointer-jump every packet to its
            # root, doubling the distance covered each round.
            root = np.where(parent >= 0, parent, np.arange(n, dtype=np.int64))
            while True:
                up = root[root]
                if (up == root).all():
                    break
                root = up
            arrived[absorbed] = arrived[root[absorbed]]
        arrays = RunArrays(
            paths=path_arr,
            hops=fl - fl_base,
            arrived=arrived,
            injected_at=injected_at,
            absorbed_by=absorbed_by,
            absorbed=absorbed,
            # Never-triggered packets were never part of the run; stats
            # cover roots (input order) then spawned packets in spawn
            # order — the reference engine's dynamic append order.
            order=np.concatenate([roots, *spawned]) if spawn_mode else None,
            steps=t,
            completed=remaining == 0,
            max_queue=max_queue,
            max_node_load=max_node_load,
            combines=combines,
            credits_stalled=fc.credits_stalled if fc is not None else 0,
            escape_hops=fc.escape_hops if fc is not None else 0,
            fault_stalls=fault_stalls,
            deadlock=(
                no_progress_detail(t, remaining, int(active.size), fc)
                if deadlocked
                else None
            ),
        )
        if _prof is not None:
            _prof.add_phase("finish", wall_time() - _t_fin0)
        return arrays
