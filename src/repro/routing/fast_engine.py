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
from collections import defaultdict
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
from repro.routing.metrics import RoutingStats, collect_stats
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

    def run(
        self,
        packets: Sequence[Packet],
        paths,
        *,
        num_nodes: int,
        max_steps: int,
        path_lengths: Sequence[int] | None = None,
        priorities=None,
        links: tuple[np.ndarray, np.ndarray] | None = None,
        spawn_plan: "list[tuple[int, int, list[int]]] | None" = None,
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

        ``link_faults`` is an optional
        :class:`~repro.faults.runtime.LinkFaultView` whose keys are
        ``(u, w)`` integer node-id pairs: a blocked link holds its
        queue (and any escape occupant crossing it) this step, counted
        in ``fault_stalls``; states are sampled at the global step
        ``fault_base + t`` — semantics identical to the reference
        engine's, so differential tests stay bit-exact.

        ``spawn_plan`` is the static form of the reference engine's
        ``on_arrival`` hook for reply fan-out: entries
        ``(parent, position, children)`` mean that when packet *parent*
        reaches path position *position*, the listed packet indices
        activate there (they are passed in *packets* / *paths* up front
        but stay dormant until triggered; packets never triggered are
        excluded from the run's stats, exactly as if they were never
        created).  Not supported with ``node_capacity``.
        """
        _obs = self.observer
        _prof = _obs.profile if _obs is not None else None
        _t_run0 = wall_time() if _prof is not None else 0.0
        if spawn_plan is not None and self.node_capacity is not None:
            raise ValueError("spawn_plan is not supported with node_capacity")
        all_packets: list[Packet] = list(packets)
        path_arr, last = _normalise_paths(paths, path_lengths, len(all_packets))
        try:
            return self._run_batch(
                all_packets,
                path_arr,
                last,
                priorities,
                links=links,
                spawn_plan=spawn_plan,
                num_nodes=num_nodes,
                max_steps=max_steps,
                raise_on_timeout=raise_on_timeout,
                node_key=node_key,
                trace_key=trace_key,
                link_faults=link_faults,
                fault_base=fault_base,
            )
        finally:
            if _prof is not None:
                _prof.add_mode(self.last_run_mode or "batch", wall_time() - _t_run0)

    def _run_batch(
        self,
        all_packets: list[Packet],
        path_arr: np.ndarray,
        last: np.ndarray,
        priorities,
        *,
        links: tuple[np.ndarray, np.ndarray] | None,
        spawn_plan: "list[tuple[int, int, list[int]]] | None" = None,
        num_nodes: int,
        max_steps: int,
        raise_on_timeout: bool,
        node_key,
        trace_key,
        link_faults=None,
        fault_base: int = 0,
    ) -> RoutingStats:
        """Vectorized replay: whole phases as array operations.

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

        combine = self.combine
        combines = 0
        spawn_mode = bool(spawn_plan)
        if spawn_mode:
            if combine:
                raise ValueError("spawn_plan and combining are mutually exclusive")
            # Per-parent spawn schedule, sorted by trigger position (as
            # flat cursors, see ``fl`` below); a packet's next pending
            # trigger lives in ``nsp`` so the hot loop detects hits with
            # one vector compare.
            sched: dict[int, list] = {}
            dormant = np.zeros(n, dtype=bool)
            for par, q, kids in spawn_plan:
                sched.setdefault(par, []).append((par * n_slots + q, list(kids)))
                for c in kids:
                    dormant[c] = True
            for entries in sched.values():
                entries.sort(key=lambda e: e[0])
                for j in range(len(entries) - 1):
                    if entries[j][0] == entries[j + 1][0]:
                        raise ValueError("duplicate spawn position for one parent")
            nsp = np.full(n, -9, dtype=np.int64)
            for par, entries in sched.items():
                nsp[par] = entries[0][0]
            is_root = ~dormant
            injected_at_arr = np.fromiter(
                (p.injected_at for p in all_packets), dtype=np.int64, count=n
            )
            spawn_seq: list[int] = []
        if combine:
            # Dense combine-group ids: packets share a gid iff they share
            # a combine key; keyless packets get singleton gids.
            gid = np.empty(n, dtype=np.int64)
            key_ids: dict = {}
            next_gid = 0
            for i, p in enumerate(all_packets):
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
            vc_codes = link_mat * np.int64(max(next_gid, 1)) + gid[:, None]
            vc_uniq, vc_inv = np.unique(vc_codes, return_inverse=True)
            vc_flat = vc_inv.ravel()
            #: resident host per interned (link, gid) code, -1 if none
            host_at = np.full(vc_uniq.size, -1, dtype=np.int64)
            parent = np.full(n, -1, dtype=np.int64)
            subtree = np.ones(n, dtype=np.int64)
            combined_arr = np.zeros(n, dtype=bool)
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

        inj_times: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(all_packets):
            if spawn_mode and dormant[i]:
                continue  # triggered later by its parent, not by time
            inj_times[p.injected_at].append(i)
        pending_times = sorted(inj_times, reverse=True)

        def admit(batch: np.ndarray, t: int):
            """Place a batch of packets (in order): deliver or enqueue."""
            nonlocal active, max_queue, max_node_load, remaining, combines
            f = fl[batch]
            if spawn_mode and (f == nsp[batch]).any():
                # Spawn triggers: expand the batch in place.  Matching
                # the reference hook order, a parent's spawned children
                # (and their own position-0 spawns, recursively) are
                # placed *before* the parent at the same node and step.
                out: list[int] = []

                def emit(i: int, fi: int) -> None:
                    nonlocal remaining
                    entries = sched.get(i)
                    if entries and entries[0][0] == fi:
                        _, kids = entries.pop(0)
                        nsp[i] = entries[0][0] if entries else -9
                        for c in kids:
                            dormant[c] = False
                            injected_at_arr[c] = t
                            remaining += 1
                            spawn_seq.append(c)
                            emit(c, c * n_slots)
                    out.append(i)

                for i, fi, ni in zip(
                    batch.tolist(), f.tolist(), nsp[batch].tolist()
                ):
                    if fi == ni:
                        emit(i, fi)
                    else:
                        out.append(i)
                batch = np.asarray(out, dtype=np.int64)
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
                    combined_arr[ch] = True
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

        t = 0
        while remaining > 0:
            while pending_times and pending_times[-1] <= t:
                admit(
                    np.asarray(inj_times[pending_times.pop()], dtype=np.int64), t
                )
            if remaining == 0:
                break
            if t >= max_steps:
                break
            if (
                not active.size
                and not pending_times
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
                    and not pending_times
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

        completed = remaining == 0
        track = self.track_paths
        tkey = trace_key if trace_key is not None else node_key
        children_map: dict[int, list[int]] = {}
        if combine:
            # Absorbed packets arrive when their absorption root does
            # (the deliver cascade), and hosts get their children lists
            # in absorption order.
            parent_l = parent.tolist()
            arrived_l0 = arrived.tolist()
            for j, par in enumerate(parent_l):
                if par >= 0:
                    root = par
                    while parent_l[root] >= 0:
                        root = parent_l[root]
                    arrived[j] = arrived_l0[root]
            for hs, ch in child_pairs:
                for h, c in zip(hs.tolist(), ch.tolist()):
                    children_map.setdefault(h, []).append(c)
        pos = fl - fl_base
        pos_l = pos.tolist()
        arrived_l = arrived.tolist()
        node_vals = path_arr[np.arange(n), pos].tolist()
        path_rows = path_arr.tolist() if track else None
        combined_l = combined_arr.tolist() if combine else None
        if spawn_mode:
            # Never-triggered packets were never part of the run; stats
            # cover roots (input order) then spawned packets in spawn
            # order — the reference engine's dynamic append order.
            sel = np.nonzero(is_root)[0].tolist() + spawn_seq
            inj_l = injected_at_arr.tolist()
        else:
            sel = range(n)
            inj_l = None
        # Note: without combining, combined/children keep their
        # Packet-constructor defaults — matching the reference engine,
        # which also only touches them through combining.
        stats_packets = []
        for i in sel:
            p = all_packets[i]
            stats_packets.append(p)
            k = pos_l[i]
            a = arrived_l[i]
            nv = node_vals[i]
            p.hops = k
            p.arrived_at = None if a < 0 else a
            p.node = node_key(k, nv) if node_key is not None else nv
            if inj_l is not None:
                p.injected_at = inj_l[i]
            if combine:
                p.combined = combined_l[i]
                ch = children_map.get(i)
                p.children = [all_packets[j] for j in ch] if ch else None
            if track:
                path = path_rows[i]
                if tkey is not None:
                    p.trace = [tkey(j, path[j]) for j in range(k + 1)]
                else:
                    p.trace = path[: k + 1]
        stats = collect_stats(
            stats_packets,
            steps=t,
            max_queue=max_queue,
            completed=completed,
            combines=combines,
            max_node_load=max_node_load,
            credits_stalled=fc.credits_stalled if fc is not None else 0,
            escape_hops=fc.escape_hops if fc is not None else 0,
            fault_stalls=fault_stalls,
            run_mode=self.last_run_mode,
        )
        if deadlocked:
            err = DeadlockError(
                stats,
                detail=no_progress_detail(t, remaining, int(active.size), fc),
            )
            if _obs is not None:
                err.flight_tail = _obs.flight_tail()
            raise err
        if not completed and raise_on_timeout:
            raise RoutingTimeout(stats)
        return stats
