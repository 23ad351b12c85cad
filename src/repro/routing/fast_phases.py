"""Run state and phase functions of the fast engine's step loop.

One run of :class:`~repro.routing.fast_engine.FastPathEngine` is one
:class:`RunState`, advanced by ``FastPathEngine._run_batch`` through the
paper's synchronous step (§2.3.2): every link transmits one packet
(:func:`transmit_unconstrained`, or :func:`transmit_constrained` under
``node_capacity`` — Corollary 3.3's credits and escape buffers), then
every arrival is delivered, combined or enqueued (:func:`admit`);
:func:`finish` turns the final state into :class:`RunArrays`.  Every
phase takes the state explicitly, so each is called — and tested
(``tests/test_fast_engine_phases.py``) — alone.

How the state is laid out:

* Queue state is one intrusive chain of packet indices per link, kept
  in *service order* (``q_head`` / ``q_tail`` / ``q_len`` per link,
  ``q_next`` per packet: a packet waits in at most one queue), so every
  queue table is sized by the links the batch crosses and a link always
  sends its chain head (:func:`select_heads`, :func:`pop_heads`).
  Under FIFO service order is push order: arrivals append.  Under
  furthest-destination-first it is largest priority first, push order
  among ties — exactly the order the reference ``FurthestFirstQueue``
  pops in, priorities being fixed at push time — and it is arrivals
  that keep it: one that finds waiters and outranks the last of them
  is spliced in ahead (by a walk from the chain's head — scalar, or
  :func:`insert_ahead`); every other arrival appends, as under FIFO.
* CRCW residency is chain membership: a packet's *resident* on a link
  is the packet queued in that link's chain with its combine key
  (``gid``), found by walking the chain — O(1) long in the paper's
  emulations — so a departure ends a residency by leaving the chain and
  no table records one.  Only an arrival that meets others — the
  *contended residue* of a step (:func:`enqueue`) — can combine.
* Every per-position table (link id, priority) is flat and
  exact-length — one entry per hop of each packet's own path
  (:class:`~repro.topology.compiled.FlatPaths`), no padding — and read
  through one flat cursor per packet: packet i at position k reads
  slot ``fl_base[i] + k`` (``fl_base[i] = offsets[i] - i``, the link
  positions of the rows before it), and delivery is ``cursor == last
  slot``.
* All state is int64: values double as fancy indices, and mixed dtypes
  make numpy recast index arrays (and buffer ``ufunc.at`` operands) on
  every call.

Reference-order equivalence, which every phase preserves: links transmit
in activation order (first arrival first — the order of ``active``) and
packets that arrive at one link in one step enqueue in transmission
order of their source links.

Free flow: greedy paths of different lengths leave a run with a tail in
which no two packets share a queue (46 % of ``mesh_erew_hot``'s steps,
41 % of ``mesh_crcw_zipf``'s at seed 7).  On a run without
``node_capacity`` or a link-fault view, a state in which no link holds a
waiter — ``queued``, the count of chained packets that :func:`enqueue`
and :func:`pop_heads` keep, equals ``active.size`` — moves
deterministically: every link sends, every packet takes its next slot,
and nothing waits, combines or is ordered by priority until two packets
reach one link in one step.  :func:`free_flow` finds the first such
meeting, the first pending spawn trigger and the last delivery from the
packets' own remaining slots, and advances the run to the step before
the earliest of them (or to ``max_steps``) in one pass, writing exactly
what the skipped steps would have.

The phase functions bind the arrays they touch to locals on entry and
write scalar counters back once per call: a step of a 16-packet batch
costs ~50 µs, so an attribute read per array *use* would show.  For the
same reason the per-step phases call no ndarray reduction method (~2 µs
each, whatever the size): "anyone delivered?" and "all solo?" are
``np.count_nonzero``, and the peak queue length is logged, not reduced,
and only where a queue can pass one packet: a solo placement is a queue
of one and merely lifts ``max_queue`` to 1, a contended arrival phase
logs its survivors' lengths (residue-sized), and :func:`fold_peaks`
takes the log's maximum every :data:`PEAK_LOG_FOLD` logged phases and
once more in :func:`finish`.

Node loads are counted only where they decide something: a
``node_capacity`` run keeps ``node_load`` (its credits read it) and
logs the loads of every placement's node, folded every ``peak_fold``
phases — fewer for a large batch, so that batch-sized log stays small.
Every other run keeps an *arrival
log* instead — per link slot, the step its packet arrived there, one
scatter per arrival phase — and ``max_node_load`` is derived from it
when first read (:func:`peak_node_load`, through
:class:`~repro.routing.metrics.Deferred`).

The run state's checker is :func:`repro.routing.run_view.check`, over
:func:`repro.routing.run_view.vector`'s view of it (the chain, ``active``
and ``q_tail`` agreement, and each queued packet's ``li_flat`` id
against its link, are that producer's own); the phase tests call it
after every phase, and nothing on the served path imports it.

The CRCW reply phase hands the engine a finished request run's arrays
as one :class:`Replies` population; this lane lays a large one out in
arrays (:func:`reply_layout`), and the scalar lane lays a small one out
in lists (:func:`repro.routing.fast_scalar.reply_run`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.obs.clock import wall_time
from repro.routing.flow_control import CreditState, no_progress_detail
from repro.routing.metrics import ReadResolves
from repro.topology.compiled import FlatPaths, RowMatrix, segment_index

_EMPTY = np.empty(0, dtype=np.int64)

#: The largest contended residue (:func:`enqueue`) resolved arrival by
#: arrival in Python (~1-2 µs an arrival); a larger one takes the numpy
#: lane (~12-45 µs whatever its size).  Timed alone the lanes cross at
#: 32-48 arrivals; end to end 24, 32 and 64 tie and 8 is slower.  The
#: census (``python tools/residue_census.py``, seed 7, one timed unit;
#: sizes over the arrival phases that have a residue, shares over the
#: phases stepped — a :func:`free_flow` jump skips only residue-free
#: ones; the runs of the scalar run lane, :mod:`repro.routing.fast_scalar`,
#: never reach this phase — all of ``bfly_small_steps``',
#: ``sharded_tenants``' and ``apps_replay``'s):
#:
#: ====================  ===========  ======  ===  ===  ===========
#: workload              has residue  p50     p90  max  vector lane
#: ====================  ===========  ======  ===  ===  ===========
#: mesh_crcw_zipf        79 %         5       21   251  6 %
#: mesh_erew_hot         91 %         8       53   215  20 %
#: star_crcw_zipf        97 %         98      309  535  87 %
#: bfly_credit_bursty    93 %         61      105  454  83 %
#: ====================  ===========  ======  ===  ===  ===========
SCALAR_RESIDUE_MAX = 32

#: Logged arrival phases between two folds of the max stats
#: (:func:`fold_peaks`): a reduction costs ~2 µs however small the
#: array, a list append ~50 ns.  The queue log takes one array per
#: contended phase, its survivors' lengths — residue-sized (median 5-98
#: entries on the e2e rows, at most one per link that sent), so 64 of
#: them stay small.  A ``node_capacity`` run also logs every placement's
#: node load, a batch-sized array per phase, and folds every
#: ``min(PEAK_LOG_FOLD, PEAK_LOG_ENTRIES // n)`` phases (at least one) for
#: n packets: an arrival phase brings each packet at most once, so that
#: log holds no more than 4,096 entries unless one phase alone brings more.
PEAK_LOG_FOLD = 64
PEAK_LOG_ENTRIES = 4096


@dataclass(frozen=True)
class RunArrays:
    """What a finished fast run knows, as arrays (row i = packet i).

    :meth:`FastPathEngine.run` turns these into a :class:`RoutingStats`
    and leaves them on ``last_arrays``; the emulators read them
    directly — hosts are the rows not in ``absorbed``, and the reply
    phase (:func:`repro.emulation.combining.route_replies_fast`) replays
    ``paths`` up to ``hops`` backwards — so a request's path, the hop it
    stopped at and who absorbed whom never go through per-packet
    objects.  Nothing here is a (packets x path length) matrix: the
    per-position arrays hold each packet's own hops and no more.
    """

    #: the node-id itineraries the run followed, row i packet i's
    #: (:class:`FlatPaths`: flat nodes + per-packet offsets, each row as
    #: long as its path); a list-built reply run stores a
    #: :class:`~repro.routing.metrics.Deferred` here, which gathers them
    #: from its request run on the first read
    #: (:func:`repro.routing.fast_scalar.reply_paths`)
    paths: FlatPaths = ReadResolves()
    #: the run's :func:`link_tables` triple ``(link_ids, link_src,
    #: link_dst)``, ``link_ids`` flat in the layout of ``paths``' link
    #: positions: a reply crosses its request's links the other way, so
    #: the reply run inherits these ids instead of interning the same
    #: links again.  ``None`` after a scalar-lane run that was handed no
    #: links (:mod:`repro.routing.fast_scalar` keys its hops by their
    #: :func:`hop_codes` and interns nothing: its keys are in
    #: ``slot_keys``), after a list-built reply run, and on hand-built
    #: arrays
    links: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    #: position each packet stopped at: delivery, absorption, or the
    #: queue it sat in when the run ended
    hops: np.ndarray
    #: arrival step (an absorbed packet's is its absorption root's);
    #: -1 = not delivered
    arrived: np.ndarray
    #: injection step; a spawned packet's is the step its trigger fired.
    #: ``None`` on a run without spawn tables: every row entered at step
    #: 0, and no zero column is built to say so
    injected_at: np.ndarray | None
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
    #: a ``node_capacity`` run's peak node load; ``None`` on every other
    #: run, whose peak :func:`peak_node_load` derives from ``arrival_log``
    max_node_load: int | None
    combines: int
    credits_stalled: int
    escape_hops: int
    fault_stalls: int
    #: the no-progress report of a wedged constrained run, else ``None``
    deadlock: str | None
    #: per link slot (the layout of ``paths``' link positions), the step
    #: its packet arrived there and did not stop — absorbed arrivals
    #: included, deliveries not; -1 where none did.  An int64 array on
    #: the vector lane, a list on the scalar lane; ``None`` when
    #: ``max_node_load`` is set
    arrival_log: np.ndarray | list[int] | None = None
    #: per link slot, the key of the queue its hop joined — a handed
    #: link id, or the hop's :func:`hop_codes` code — as the scalar lane
    #: keeps it (a list); ``None`` on the vector lane, whose keys are
    #: ``links[0]``.  A list-built reply run reads its request run's keys
    #: here (:func:`repro.routing.fast_scalar.reply_run`)
    slot_keys: list[int] | None = None


def _check_ids(ids: np.ndarray, bound: int, what: str) -> None:
    """``ValueError`` unless every entry of the int64 array *ids* is in
    ``[0, bound)`` — in one ``argmax`` read per run: viewed unsigned, a
    negative id is larger than any bound."""
    top = ids.view(np.uint64)
    if ids.size and int(top[top.argmax()]) >= bound:
        bad = ids[(ids < 0) | (ids >= bound)]
        raise ValueError(f"{what} {int(bad.flat[0])} is outside [0, {bound})")


def handed_links(links, n_slots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A caller's ``(link_ids, link_src, link_dst)`` triple as int64
    arrays, checked against a population with *n_slots* link positions:
    a malformed triple or a link id outside the endpoint tables is a
    ``ValueError`` here rather than an ``IndexError`` from inside the
    step loop (the endpoint tables themselves are their maker's and
    taken on trust)."""
    if len(links) != 3:
        raise ValueError("links must be the (link_ids, link_src, link_dst) triple")
    link_ids, link_src, link_dst = (np.asarray(a, dtype=np.int64) for a in links)
    # a matrix aligned with equal-length rows is their raveled layout
    if link_ids.size != n_slots:
        raise ValueError("link ids must align with the link positions of paths")
    link_ids = link_ids.reshape(-1)
    if link_src.ndim != 1 or link_src.shape != link_dst.shape:
        raise ValueError("link_src and link_dst must be aligned 1-D arrays")
    _check_ids(link_ids, link_src.size, "links matrix names link id")
    return link_ids, link_src, link_dst


def hop_codes(paths: FlatPaths, num_nodes: int) -> np.ndarray:
    """``src * num_nodes + dst`` of every link position of *paths*, flat
    in their layout — packet i's k-th hop is slot ``offsets[i] - i + k``
    — after checking every node id against ``num_nodes``: one code per
    directed link, the same for every packet that crosses it.  Rows of
    a :class:`~repro.topology.compiled.RowMatrix` are read as the
    matrix they were raveled from; any other layout drops the position
    after each row's last node."""
    nodes, offsets = paths
    _check_ids(nodes, num_nodes, "paths name node id")
    if isinstance(paths, RowMatrix):
        # rows of one width (every leveled run): the raveled matrix
        n = offsets.size - 1
        mat = nodes.reshape(n, nodes.size // n if n else 1)
        codes = mat[:, :-1] * num_nodes
        codes += mat[:, 1:]
        return codes.reshape(-1)
    # a link leaves every node but the last of its row (no rows: none)
    leaves = np.ones(max(nodes.size - 1, 0), dtype=bool)
    leaves[offsets[1:-1] - 1] = False
    return nodes[:-1][leaves] * num_nodes + nodes[1:][leaves]


def link_tables(
    paths: FlatPaths, links, num_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense link ids of a population's paths: ``(link_ids, link_src,
    link_dst)``.

    ``link_ids`` has one entry per link position of *paths* — packet i's
    k-th hop is slot ``offsets[i] - i + k`` — and ``link_src`` /
    ``link_dst`` are the endpoints per id.  *links* is either that
    triple, made elsewhere — the mesh's arithmetic ``u * 4 + direction``
    ids (a 4N id space, smaller than a served batch; boundary slots may
    share a ``(src, dst)`` pair), or a reply run's, inherited from its
    request run (:attr:`RunArrays.links`) — checked by
    :func:`handed_links`, or ``None``: one ``np.unique`` over the
    :func:`hop_codes` interns the links this batch crosses, which is
    what every leveled vector-lane run takes, so its per-link tables are
    sized by the batch and not by the network.  Ids are opaque to every
    phase, and this is the only place that knows the format.
    """
    if links is not None:
        return handed_links(links, paths.nodes.size - paths.offsets.size + 1)
    uniq, inverse = np.unique(hop_codes(paths, num_nodes), return_inverse=True)
    return inverse.reshape(-1), uniq // num_nodes, uniq % num_nodes


def pack_priorities(priorities, paths: FlatPaths) -> np.ndarray | None:
    """The per-position priority table of a run, flat, or ``None``.

    *priorities* is one integer queue priority per link position of
    *paths* (flat, in their layout).  The result is the flat table, read
    through the flat cursor — the only priority state a run has,
    whatever range the values span.  Without priorities — or with all of
    them equal — queues are FIFO and there is no table.
    """
    if priorities is None:
        return None
    prio = np.asarray(priorities)
    if prio.shape != (int(paths.hops.sum()),):
        raise ValueError("priorities must be one per link position")
    if not prio.size or prio.min() == prio.max():
        return None
    return prio.astype(np.int64, copy=False)


class SpawnTables:
    """A reply run's spawn triggers, indexed for :meth:`fire`.

    A *trigger* is a distinct ``(parent, position)``: when reply
    *parent* reaches that position of its path, the children absorbed
    there activate.  Both reply builders lay them out in this form —
    :func:`reply_layout` for the vector lane and
    :func:`repro.routing.fast_scalar.reply_run` for the scalar one — from
    a finished run's own arrays, so nothing here is checked again.
    Triggers are grouped by parent in reply order, a parent's ascending
    in position: trigger k belongs to ``trig_parent[k]``, fires at flat
    cursor ``trig_cursor[k]`` (the parent's first link slot plus the
    position) and activates ``kids[bounds[k]:bounds[k + 1]]``;
    ``trig_at_start[k]`` says its position is 0.  ``next_trig[i]`` is
    reply i's first pending trigger (-1: none) and ``nsp[i]`` that
    trigger's cursor (-9: none) — an array on the vector lane, where
    :func:`admit` finds the triggers a batch fires with one vector
    compare; the rest are plain lists, read only for the triggers that
    fire, so Python work is O(triggers fired), whatever the batch size.
    *trig_parent* is taken without its sentinel and gets one appended.
    """

    def __init__(
        self,
        next_trig: list[int],
        nsp,
        kids: list[int],
        bounds: list[int],
        trig_parent: list[int],
        trig_cursor: list[int],
        trig_at_start: list[bool],
    ) -> None:
        self.next_trig, self.nsp, self.kids, self.bounds = next_trig, nsp, kids, bounds
        # sentinel: the last trigger has no successor
        trig_parent.append(-1)
        self.trig_parent = trig_parent
        self.trig_cursor, self.trig_at_start = trig_cursor, trig_at_start
        #: the packets each fired batch activated, in spawn order (the
        #: vector lane's; the scalar lane keeps its own list)
        self.spawned: list[np.ndarray] = []

    def fire(self, i: int, out: list[int], seq: list[int]) -> None:
        """Packet i's pending trigger fires: append its children to
        *seq* in spawn order (parents first) and to *out* in placement
        order — a child that has a trigger at its own position 0 fires
        it on activation, so its children are placed before it."""
        next_trig = self.next_trig
        trig_cursor = self.trig_cursor
        k = next_trig[i]
        group = self.kids[self.bounds[k] : self.bounds[k + 1]]
        k += 1
        if self.trig_parent[k] == i:
            next_trig[i] = k
            self.nsp[i] = trig_cursor[k]
        else:
            next_trig[i] = -1
            self.nsp[i] = -9
        for c in group:
            seq.append(c)
            kc = next_trig[c]
            if kc >= 0 and self.trig_at_start[kc]:
                self.fire(c, out, seq)
            out.append(c)

    def splice(self, batch: np.ndarray, hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fire the triggers of ``batch[hits]``: ``(batch with the
        activated packets spliced in, the activated packets)``.

        Matching the reference hook order, a parent's spawned children
        (and their own position-0 spawns, recursively) are placed
        *before* the parent at the same node and step — spliced into
        the batch in front of it; only the hit positions are walked.
        """
        out: list[int] = []
        seq: list[int] = []
        sizes = []
        for i in batch[hits].tolist():
            before = len(out)
            self.fire(i, out, seq)
            sizes.append(len(out) - before)
        new = np.asarray(out, dtype=np.int64)
        self.spawned.append(np.asarray(seq, dtype=np.int64))
        return np.insert(batch, np.repeat(hits, sizes), new), new


# ---- the reply population of a finished CRCW read run -----------------------


class MergeNodeMissingError(RuntimeError):
    """A child reply has nowhere to spawn: its absorption node is not on
    its parent's reverse path.  Compiled request paths make this
    impossible; it means the run's arrays disagree with one another.

    ``child_row`` / ``parent_row`` index the routed request population,
    ``merge_node`` is the compiled id of the node the child was
    absorbed at.
    """

    def __init__(self, child_row: int, parent_row: int, merge_node: int) -> None:
        super().__init__(
            f"merge node {merge_node} of request {child_row} is missing from "
            f"the reply path of request {parent_row}, which absorbed it"
        )
        self.child_row = child_row
        self.parent_row = parent_row
        self.merge_node = merge_node


class Replies(NamedTuple):
    """The replies of a finished CRCW read run: an input form of
    :meth:`FastPathEngine.run <repro.routing.fast_engine.FastPathEngine.run>`
    (Theorem 2.6's fan-out along the combining trees).

    *requests* is the request run's :class:`RunArrays`; *hosts* are the
    rows of that population whose replies are routed — the delivered
    read hosts — in host order (any int sequence: the engine reads it as
    an int64 array before laying the population out).  The reply
    population is the combining forest below them, breadth first: roots
    in host order, then level by level every absorbed request's reply,
    the children of one request in absorption order (the order of
    :class:`~repro.emulation.combining.ReplySpawner`, which fixes the
    order of the stats' ``delays`` / ``hops``).  Reply j walks its
    request's row backwards from the hop the request stopped at —
    delivery for a host, absorption for a child — to its start, across
    the same links the other way, so it joins one queue per link its
    request's hops joined.  A child's reply activates when its parent's
    reply first reaches the node the child was absorbed at — the
    **first** occurrence on the parent's reverse path (mesh same-column
    routes revisit nodes), a static property of the compiled paths — or
    a :class:`MergeNodeMissingError` says the arrays disagree.  A reply
    whose trigger never fires (its parent timed out) is excluded from
    the stats as if it had never been spawned.

    This is the only form in which spawning packets enter the engine.
    Each lane lays the population out its own way —
    :func:`reply_layout` in arrays for the vector lane, and
    :func:`repro.routing.fast_scalar.reply_run` straight into the scalar
    lane's lists, from the request run's own tables — and both hand the
    run the same :class:`SpawnTables`.  The roots of the population are
    its first ``hosts.size`` rows.
    """

    requests: RunArrays
    hosts: np.ndarray


def reply_forest(replies: Replies) -> tuple[np.ndarray, list[np.ndarray]]:
    """The request row of every reply, in the population's breadth-first
    order, and per level below the roots the index of each reply's
    parent reply: ``(rows, level_parents)``."""
    requests, roots = replies
    # Children of every request, grouped by host with one stable sort
    # (absorption order survives within a host).
    n = requests.hops.size
    by_host = np.argsort(requests.absorbed_by, kind="stable")
    kids = requests.absorbed[by_host]
    n_kids = np.bincount(requests.absorbed_by, minlength=n)
    first_kid = np.cumsum(n_kids) - n_kids
    levels = [roots]
    level_parents = []
    frontier, base = roots, 0
    while True:
        cnt = n_kids[frontier]
        total = int(cnt.sum())
        if not total:
            break
        level_parents.append(
            np.repeat(np.arange(base, base + frontier.size, dtype=np.int64), cnt)
        )
        base += frontier.size
        # slot j of this level holds its parent's first child plus j's
        # rank among that parent's children
        shift = first_kid[frontier] - (np.cumsum(cnt) - cnt)
        frontier = kids[np.arange(total, dtype=np.int64) + np.repeat(shift, cnt)]
        levels.append(frontier)
    return np.concatenate(levels), level_parents


def reversed_rows(
    requests: RunArrays, rows: np.ndarray, hops: np.ndarray
) -> tuple[FlatPaths, np.ndarray, np.ndarray]:
    """Itineraries of replies to request rows *rows* that stopped at hops
    *hops*, each read from that hop back to its start and exactly that
    long: ``(paths, start, at)``, *start* the requests' first entries in
    their layout and *at* ``arange`` over the replies' entries.  Reply
    j's flat entry p is request entry ``start + hops - (p - offsets[j])``:
    one gather over the positions the requests really visited."""
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    (hops + 1).cumsum(out=offsets[1:])
    at = np.arange(offsets[-1], dtype=np.int64)
    start = requests.paths.offsets[rows]
    nodes = requests.paths.nodes[(start + hops + offsets[:-1]).repeat(hops + 1) - at]
    return FlatPaths(nodes, offsets), start, at


def reply_layout(replies: Replies):
    """The vector lane's form of *replies*: ``(paths, links, spawn)`` —
    the reversed itineraries, the link triple (or ``None``) and the
    :class:`SpawnTables` (``None`` without absorptions) that
    :class:`RunState` takes.

    The reply run interns nothing when its request run left link ids:
    hop k of a reply crosses link ``hops - 1 - k`` of its request the
    other way, so it keeps that link's id (:attr:`RunArrays.links`) —
    one gather, whatever the encoding, mesh and leveled alike — with the
    endpoint tables swapped.  A request run that left none (a scalar-lane
    run handed no ids) gives ``links`` ``None``, and the run interns its
    own.  A child's trigger position is found over its parent's real
    positions only; no (replies x longest path) matrix is built.
    """
    requests = replies.requests
    rows, level_parents = reply_forest(replies)
    hops = requests.hops[rows]
    paths, start, at = reversed_rows(requests, rows, hops)
    nodes, offsets = paths
    links = None
    if requests.links is not None:
        # hop k of reply j — link slot offsets[j] - j + k — crosses link
        # hops - 1 - k of its request, slot start - rows + hops - 1 - k
        link_ids, link_src, link_dst = requests.links
        top = start - rows + hops - 1 + offsets[:-1] - np.arange(rows.size)
        links = (
            link_ids[top.repeat(hops) - at[: at.size - rows.size]],
            link_dst,
            link_src,
        )
    spawn = None
    if level_parents:
        roots = replies.hosts.size
        par = np.concatenate(level_parents)
        child = np.arange(roots, rows.size, dtype=np.int64)
        # a child reply starts at the node its request was absorbed at;
        # it spawns at the first position of its parent's reply there
        merge_nodes = nodes[offsets[child]]
        span = hops[par] + 1
        q = segment_index(span)
        hit = nodes[offsets[par].repeat(span) + q] == merge_nodes.repeat(span)
        # the lowest hit position per parent row; span itself where none
        qpos = np.minimum.reduceat(
            np.where(hit, q, span.repeat(span)), span.cumsum() - span
        )
        lost = np.flatnonzero(qpos == span)
        if lost.size:
            j = int(lost[0])
            raise MergeNodeMissingError(
                int(rows[child[j]]), int(rows[par[j]]), int(merge_nodes[j])
            )
        # One trigger per distinct (parent, position).  The parents are in
        # reply order already, so one stable sort by position within each
        # parent groups them — a parent's ascending in position, the
        # children of each in reply order.
        order = np.lexsort((qpos, par))
        by_parent, by_pos = par[order], qpos[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (by_parent[1:] != by_parent[:-1]) | (by_pos[1:] != by_pos[:-1])
        starts = np.flatnonzero(first)
        trig_parent = by_parent[starts]
        trig_cursor = offsets[trig_parent] - trig_parent + by_pos[starts]
        # each parent's first trigger is the one pending when it starts
        lead = np.ones(starts.size, dtype=bool)
        lead[1:] = trig_parent[1:] != trig_parent[:-1]
        next_trig = np.full(rows.size, -1, dtype=np.int64)
        next_trig[trig_parent[lead]] = np.flatnonzero(lead)
        nsp = np.full(rows.size, -9, dtype=np.int64)
        nsp[trig_parent[lead]] = trig_cursor[lead]
        spawn = SpawnTables(
            next_trig.tolist(),
            nsp,
            (order + roots).tolist(),
            np.append(starts, order.size).tolist(),
            trig_parent.tolist(),
            trig_cursor.tolist(),
            (by_pos[starts] == 0).tolist(),
        )
    return paths, links, spawn


class RunState:
    """Everything one fast run reads and mutates (see the module docstring).

    Built from arrays only — the population's :class:`FlatPaths`, each
    packet's last position, one int combine key per packet *gid*
    (``None``: nothing combines; keys are only compared for equality), per-hop *priorities* and a precompiled *links* triple
    (each optional) — through the table builders above, which is where
    malformed input is rejected — or, for a reply population, the
    :class:`SpawnTables` *spawn* that :func:`reply_layout` built.
    *capacity* selects the constrained tables, *credit* the escape
    buffers; *profile* is the observer's ``PhaseProfile`` or ``None``.

    Every table is sized by the batch: per packet, per link position
    (``li_flat``, ``prio_flat``: exactly one entry per hop the paths
    hold), per link the batch crosses, or per node.  Queue discipline
    adds no table of its own beyond ``prio_flat`` — FIFO and
    furthest-first runs share the one chain per link — and neither does
    combining beyond ``gid``.
    """

    # Slots, not a dict: a phase reads a dozen fields per call, and past
    # 30 attributes CPython stops sharing instance-dict keys, which
    # makes every such read a hash lookup.
    __slots__ = (
        "paths", "num_nodes", "injected_at", "prof",
        "link_src", "link_dst", "li_flat",
        "prio_flat",
        "spawn", "roots", "remaining",
        "gid", "parent", "subtree", "child_pairs", "combines",
        "q_head", "q_tail", "q_next", "q_len", "queued", "active",
        "node_load", "arr_log",
        "first_at", "fl_base", "fl", "fl_last", "arrived",
        "max_queue", "max_node_load", "queue_peaks", "load_peaks", "peak_fold",
        "fault_stalls",
        "link_faults", "f_any", "capacity", "fc", "pending_escape",
        # set only with a link-fault view
        "f_code_li", "f_flags", "f_cur", "f_last_parts",
        # set only with a node capacity
        "dest_arr", "dest_l", "link_dst_l",
        "inc_np", "res_np", "used_flag", "pend_flag", "res_list", "dep_list",
    )  # fmt: skip

    def __init__(
        self,
        paths: FlatPaths,
        last: np.ndarray,
        gid: np.ndarray | None = None,
        priorities=None,
        *,
        num_nodes: int,
        links=None,
        spawn: SpawnTables | None = None,
        capacity: int | None = None,
        credit: bool = False,
        link_faults=None,
        profile=None,
    ) -> None:
        n = last.size
        self.paths = paths
        self.num_nodes = num_nodes
        #: every root enters at step 0; a spawned reply's trigger step
        #: is written here when it fires (no spawn tables: ``None``)
        self.injected_at = None if spawn is None else np.zeros(n, dtype=np.int64)
        self.prof = profile
        self.li_flat, self.link_src, self.link_dst = link_tables(
            paths, links, num_nodes
        )
        n_links = int(self.link_src.size)
        #: per-position queue priorities (None: every queue is FIFO)
        self.prio_flat = pack_priorities(priorities, paths)
        # packet i's k-th hop is link slot fl_base[i] + k
        row_start = paths.offsets[:-1]
        self.fl_base = row_start - np.arange(n, dtype=np.int64)

        #: reply fan-out (:class:`SpawnTables`) or None
        self.spawn = spawn
        #: packets injected at step 0, not by a trigger: a reply
        #: population's first rows, every other reply being some
        #: trigger's child
        self.roots = np.arange(
            n if spawn is None else n - len(spawn.kids), dtype=np.int64
        )
        #: packets injected or spawned so far and not yet delivered
        self.remaining = int(self.roots.size)

        # CRCW combining: absorption trees are parent pointers plus
        # subtree sizes, resolved to the reference engine's delivery
        # cascade by finish().
        self.gid = self.parent = self.subtree = None
        self.child_pairs = []  # (hosts, children) per absorbing batch, in order
        self.combines = 0
        if gid is not None:
            self.gid = np.asarray(gid, dtype=np.int64)
            if self.gid.shape != (n,):
                raise ValueError("one combine group per packet required")
            self.parent = np.full(n, -1, dtype=np.int64)
            self.subtree = np.ones(n, dtype=np.int64)

        self.q_head = np.full(n_links, -1, dtype=np.int64)
        self.q_tail = np.full(n_links, -1, dtype=np.int64)
        self.q_next = np.full(n, -1, dtype=np.int64)
        self.q_len = np.zeros(n_links, dtype=np.int64)
        #: packets in all chains together, kept by :func:`enqueue` and
        #: :func:`pop_heads`: equal to ``active.size`` exactly when no
        #: link holds a waiter (:func:`free_flow`'s test)
        self.queued = 0
        #: packets queued per node: a capacity run's credits read it;
        #: any other run logs its arrivals instead (see the module
        #: docstring) and sizes no table by the network
        self.node_load = self.arr_log = None
        if capacity is None:
            self.arr_log = np.full(self.li_flat.size, -1, dtype=np.int64)
        else:
            self.node_load = np.zeros(num_nodes, dtype=np.int64)
        self.fl = self.fl_base.copy()
        self.fl_last = self.fl_base + last
        # first-writer scratch: only entries just written are read
        self.first_at = np.empty(n_links, dtype=np.int64)
        self.arrived = np.full(n, -1, dtype=np.int64)
        #: links with queued packets, in activation order
        self.active = _EMPTY
        #: peak queue length (and, under capacity, node load) so far —
        #: exact after :func:`fold_peaks`; the arrival phase logs the
        #: contended survivors' lengths in ``queue_peaks`` (and a
        #: capacity run its placements' loads in ``load_peaks``, folded
        #: every ``peak_fold`` phases) instead of reducing them
        self.max_queue = 0
        self.max_node_load = 0
        self.queue_peaks: list[np.ndarray] = []
        self.load_peaks: list[np.ndarray] = []
        self.peak_fold = max(1, min(PEAK_LOG_FOLD, PEAK_LOG_ENTRIES // max(n, 1)))
        self.fault_stalls = 0

        # Link faults: ``f_flags`` marks the dense link ids that are
        # down now; refresh_fault_flags() rebuilds it only when the
        # blocked set changes.
        self.link_faults = link_faults
        self.f_any = False
        if link_faults is not None:
            self.f_code_li = None  # fault code -> dense link ids, built lazily
            self.f_flags = np.zeros(n_links, dtype=bool)
            self.f_cur = _EMPTY
            self.f_last_parts = None

        # Constrained mode: each packet's exit node (for the
        # delivered-at-target capacity exemption), per-step scratch
        # counters (zeroed lazily — only touched entries are reset), and
        # the escape-claim ledger (packet -> link crossed into its
        # escape buffer; resolved to an occupancy by land_escapes()).
        # Escape-buffer occupancy lives in a CreditState keyed by dense
        # link id: each directed link's id *is* its escape slot.
        self.capacity = capacity
        self.fc = CreditState() if credit else None
        self.pending_escape = None
        if capacity is not None:
            self.dest_arr = paths.nodes[row_start + last]
            self.dest_l = self.dest_arr.tolist()
            self.link_dst_l = self.link_dst.tolist()
            self.inc_np = np.zeros(num_nodes, dtype=np.int64)
            self.res_np = np.zeros(num_nodes, dtype=np.int64)
            self.pending_escape = {}
            # Membership scratch flags (reset after use): np.isin sorts
            # its operands, which dwarfs these O(1) scatter/gathers.
            self.used_flag = np.zeros(n_links, dtype=bool)
            self.pend_flag = np.zeros(n, dtype=bool)
            # Per-node counters for the scalar contended walk, as plain
            # Python lists (faster than dict.get chains and numpy
            # scalar indexing); only touched entries are reset.
            self.res_list = [0] * num_nodes
            self.dep_list = [0] * num_nodes


def refresh_fault_flags(s: RunState, t: int) -> None:
    """Point ``f_flags`` / ``f_any`` at the links down at global step *t*.

    Fault pairs resolve to dense link ids through the interned code
    table (built lazily on the first nonempty blocked set); the boolean
    flag array is rebuilt only when the blocked set actually changes
    (per timeline segment, plus slow-link phase flips).  A code maps to
    a *list* of dense ids: the mesh's arithmetic ``u*4+direction`` ids
    give boundary nodes several slots with the same (src, dst)
    endpoints, and a down wire must block every slot that crosses it
    (interned ids — every leveled run — are 1:1 with their pairs).
    """
    parts = s.link_faults.parts_at(t)
    if parts == s.f_last_parts:
        return
    fstatic, fextra = parts
    num_nodes = s.num_nodes
    s.f_flags[s.f_cur] = False
    lis: list[int] = []
    if fstatic or fextra:
        if s.f_code_li is None:
            s.f_code_li = {}
            codes = (s.link_src * num_nodes + s.link_dst).tolist()
            for li, code in enumerate(codes):
                s.f_code_li.setdefault(code, []).append(li)
        for u, w in (*sorted(fstatic), *fextra):
            # a wire to a node outside the id space is on no path here,
            # and its code would alias one that is
            if 0 <= w < num_nodes:
                lis.extend(s.f_code_li.get(u * num_nodes + w, ()))
    s.f_cur = np.asarray(lis, dtype=np.int64)
    s.f_flags[s.f_cur] = True
    s.f_last_parts = parts
    s.f_any = bool(lis)


def select_heads(s: RunState) -> np.ndarray:
    """The packet each active link sends next: its chain head, under
    either discipline — chains are kept in service order by the arrival
    phase (:func:`enqueue`), so transmission never looks at a priority."""
    return s.q_head[s.active]


def pop_heads(s: RunState, links: np.ndarray, heads: np.ndarray) -> None:
    """Each of *links* (a subset of ``active``, in its order) sends its
    chain head ``heads[k]``: unlink it, advance its cursor, and drop
    emptied links from ``active``.

    Leaving the chain is all it takes to end a packet's combining
    residency (residents are found by walking chains), and an emptied
    link keeps its stale ``q_tail``: a tail is read only while its chain
    is non-empty.
    """
    s.q_head[links] = s.q_next[heads]
    q_len = s.q_len
    after = q_len[links] - 1
    q_len[links] = after
    s.queued -= heads.size
    if s.capacity is not None:
        np.subtract.at(s.node_load, s.link_src[links], 1)
    s.fl[heads] += 1
    active = s.active
    # every active link sent: the lengths just written say who stays
    s.active = active[after > 0] if links is active else active[q_len[active] > 0]


def transmit_unconstrained(s: RunState) -> np.ndarray:
    """Transmission without ``node_capacity``: every active link sends
    its chain head; returns the packets sent, in link activation order.
    A fault-blocked link holds its queue this step (counted in
    ``fault_stalls``); the rest transmit as usual."""
    heads = select_heads(s)
    links = s.active
    if s.f_any and links.size:
        keep = ~s.f_flags[links]
        nblocked = int(links.size - np.count_nonzero(keep))
        if nblocked:
            s.fault_stalls += nblocked
            links, heads = links[keep], heads[keep]
    pop_heads(s, links, heads)
    return heads


def advance_escapes(s: RunState) -> tuple[list[int], set[int], dict[int, int]]:
    """Escape subphase: occupants advance in occupancy order, with
    absolute priority on their next link — exactly like the reference
    engine.  Returns ``(packets that moved, links they used, arrival
    slots they reserved per node)``; ``used`` then blocks the bulk heads
    of those links.  Needs at least one occupant.

    An occupant crosses its next link if it exits there (capacity
    exemption), if the target has a credit left, or else into that
    link's own escape buffer when it is free (a claim in
    ``pending_escape``, landed by :func:`land_escapes`); otherwise it
    stalls.  ``node_load`` is static for the whole subphase (pops and
    enqueues happen later), so the target loads are gathered once
    instead of per-occupant scalar reads, and CreditState's dict ops are
    inlined: this loop runs once per occupant per step.
    """
    prof = s.prof
    t0 = wall_time() if prof is not None else 0.0
    fc = s.fc
    capacity = s.capacity
    esc_at = fc.escape_at
    esc_next = fc.escape_next
    f_flags = s.f_flags if s.f_any else None
    link_dst_l = s.link_dst_l
    dest_l = s.dest_l
    pending_escape = s.pending_escape
    moved: list[int] = []
    used: set[int] = set()
    reserved: dict[int, int] = {}
    stalls = ehops = fstalls = 0
    snapshot = list(esc_at.items())
    nls = [esc_next[el] for el, _ in snapshot]
    load_at = s.node_load[s.link_dst[nls]].tolist()
    for (el, i), nl, ld in zip(snapshot, nls, load_at):
        if f_flags is not None and f_flags[nl]:
            fstalls += 1
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
        moved.append(i)
    fc.credits_stalled += stalls
    fc.escape_hops += ehops
    s.fault_stalls += fstalls
    if moved:
        s.fl[np.asarray(moved, dtype=np.int64)] += 1
    if prof is not None:
        prof.add_phase("escape", wall_time() - t0)
    return moved, used, reserved


def classify_constrained(
    s: RunState, heads: np.ndarray, used, reserved
) -> tuple[np.ndarray, np.ndarray]:
    """Bulk subphase of a constrained step, vectorized: ``(sure,
    contended)`` — a boolean mask over ``active`` of the links certain
    to transmit *heads*, and the positions in ``active`` of the links
    only an ordered replay can settle.

    A link is **sure** when its head exits at the target (capacity
    exemption) or when the target has room for every comer this step no
    matter the order — ``node_load`` only falls and ``reserved`` grows
    at most by the other non-exempt in-links, so
    ``load + reserved + incoming_nonexempt <= capacity`` is
    order-independent.  A link in *used* (an escape occupant crossed it)
    stalls; a fault-blocked one never transmits, exempt head or not,
    and counts as a fault stall, never a credit stall (reference order:
    the fault check precedes every other stall reason).  Everything
    else is **contended** (:func:`replay_contended`).  Per-node credit
    counters are segment reductions (``np.add.at``) into scratch that is
    zeroed again through the same indices.  Needs a nonempty ``active``.
    """
    active = s.active
    w_arr = s.link_dst[active]
    exempt = s.dest_arr[heads] == w_arr
    can = None  # the links neither fault nor escape occupant holds; None = all
    if s.f_any:
        fb = s.f_flags[active]
        nb = int(fb.sum())
        if nb:
            s.fault_stalls += nb
            can = ~fb
    if used:
        used_flag = s.used_flag
        used_list = sorted(used)
        used_flag[used_list] = True
        blocked = used_flag[active]
        used_flag[used_list] = False
        if can is not None:
            blocked &= can
        s.fc.credits_stalled += int(blocked.sum())
        can = ~blocked if can is None else can & ~blocked
    nonex = ~exempt if can is None else can & ~exempt
    inc_np = s.inc_np
    tgt = w_arr[nonex]
    np.add.at(inc_np, tgt, 1)
    budget_at_w = s.node_load[w_arr] + inc_np[w_arr]
    inc_np[tgt] = 0
    if reserved:
        res_np = s.res_np
        for wn, v in reserved.items():
            res_np[wn] = v
        budget_at_w += res_np[w_arr]
        for wn in reserved:
            res_np[wn] = 0
    fine = budget_at_w <= s.capacity
    sure = exempt | fine
    if can is not None:
        sure &= can
    return sure, np.nonzero(nonex & ~fine)[0]


def replay_contended(
    s: RunState,
    heads: np.ndarray,
    sure: np.ndarray,
    c_idx: np.ndarray,
    reserved: dict[int, int],
) -> list[bool]:
    """Settle the contended links ``active[c_idx]`` scalar, in exact
    reference activation order; returns who transmits.

    Sure links settle before the walk; the only effect they have on a
    contended link is a departure out of its (congested) target — a rank
    query "sure links with src == w before position p", answered for all
    contended links with two vectorized searchsorteds over sorted
    ``(src, position)`` keys — so the walk touches contended links only.
    A link transmits if its target still has a credit, counting the
    escape subphase's *reserved* slots, this walk's reservations and
    every departure before it; else, under credit flow control, its
    credit-starved head takes the escape buffer of the link it crosses
    if that is free (claimed in ``pending_escape``); else it stalls.
    """
    active = s.active
    capacity = s.capacity
    link_src = s.link_src
    c_links = active[c_idx]
    c_w = s.link_dst[c_links]
    s_idx = np.nonzero(sure)[0]
    a1 = np.int64(active.size + 1)
    if s_idx.size:
        s_key = link_src[active[s_idx]] * a1 + s_idx
        s_key.sort()
        c_sdep = np.searchsorted(s_key, c_w * a1 + c_idx) - np.searchsorted(
            s_key, c_w * a1
        )
    else:
        c_sdep = np.zeros(c_idx.size, dtype=np.int64)
    c_w_l = c_w.tolist()
    c_src_l = link_src[c_links].tolist()
    res_l = s.res_list
    dep_l = s.dep_list
    for wn, v in reserved.items():
        res_l[wn] = v
    fc = s.fc
    esc_at = fc.escape_at if fc is not None else None
    pending_escape = s.pending_escape
    stalls = ehops = 0
    c_dec: list[bool] = []
    c_append = c_dec.append
    for li, wn, src, h, sd, ld in zip(
        c_links.tolist(),
        c_w_l,
        c_src_l,
        heads[c_idx].tolist(),
        c_sdep.tolist(),
        s.node_load[c_w].tolist(),
    ):
        if ld - sd - dep_l[wn] + res_l[wn] < capacity:
            res_l[wn] += 1
            dep_l[src] += 1
            c_append(True)
        elif esc_at is not None and li not in esc_at:
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
    for wn in reserved:
        res_l[wn] = 0
    return c_dec


def transmit_constrained(s: RunState) -> np.ndarray:
    """Transmission under ``node_capacity`` — *batch credit accounting*:
    the escape subphase, then the bulk heads that classification and the
    contended replay let through; returns the packets sent, escape
    movers first (the reference engine's order).  Only this phase
    differs from the unconstrained mode: capacity arbitration is
    order-dependent (the reference engine reserves arrival slots link by
    link in activation order, and a departure can free a slot for a
    later link in the same step)."""
    heads = select_heads(s)
    fc = s.fc
    if fc is not None and fc.escape_at:
        moved, used, reserved = advance_escapes(s)
    else:
        moved, used, reserved = [], (), {}
    bulk = _EMPTY
    active = s.active
    if active.size:
        sends, c_idx = classify_constrained(s, heads, used, reserved)
        if c_idx.size:
            sends[c_idx] = replay_contended(s, heads, sends, c_idx, reserved)
        sel = np.nonzero(sends)[0]
        if sel.size:
            bulk = heads[sel]
            pop_heads(s, active[sel], bulk)
    if moved:
        return np.concatenate([np.asarray(moved, dtype=np.int64), bulk])
    return bulk


def land_escapes(s: RunState, arrivals: np.ndarray) -> np.ndarray:
    """Arrivals holding an escape claim occupy their buffer instead of
    enqueueing; returns the rest.  Occupancy order is arrival order,
    exactly the reference engine's place() order."""
    prof = s.prof
    t0 = wall_time() if prof is not None else 0.0
    pending_escape = s.pending_escape
    pend_flag = s.pend_flag
    pe = list(pending_escape)
    pend_flag[pe] = True
    pmask = pend_flag[arrivals]
    pend_flag[pe] = False
    landed = arrivals[pmask]
    esc_at = s.fc.escape_at
    esc_next = s.fc.escape_next
    for i, nl in zip(landed.tolist(), s.li_flat[s.fl[landed]].tolist()):
        el = pending_escape.pop(i)
        esc_at[el] = i
        esc_next[el] = nl
    if prof is not None:
        prof.add_phase("escape", wall_time() - t0)
    return arrivals[~pmask]


def fold_peaks(s: RunState) -> None:
    """Fold the arrival phases' logged queue lengths (and a capacity
    run's node loads) into ``max_queue`` / ``max_node_load`` and empty
    the logs: one reduction per stat for up to :data:`PEAK_LOG_FOLD`
    logged phases (``peak_fold`` for the loads).  :func:`finish` folds
    the rest, and so must anyone reading the maxima mid-run."""
    queue_peaks = s.queue_peaks
    if queue_peaks:
        s.max_queue = max(s.max_queue, int(np.concatenate(queue_peaks).max()))
        queue_peaks.clear()
    load_peaks = s.load_peaks
    if load_peaks:
        s.max_node_load = max(s.max_node_load, int(np.concatenate(load_peaks).max()))
        load_peaks.clear()


def admit(s: RunState, batch: np.ndarray, t: int) -> None:
    """Place a batch of packets, in order, at step *t*: fire the spawn
    triggers it hits, deliver what has arrived, log the rest's arrival
    (one scatter; not under capacity) and :func:`enqueue` them — which
    absorbs what combines.

    An arrival batch is already in reference order (transmission order
    of the source links), and every stage keeps it.  A delivered host
    delivers its whole absorption subtree (the reference engine's
    deliver cascade; summed only once the run has absorbed anything).
    Profile time is booked to ``arrival``, minus the ``combining`` share
    booked inside, so the buckets stay disjoint.
    """
    prof = s.prof
    t0 = wall_time() if prof is not None else 0.0
    combining_dt = 0.0
    fl = s.fl
    f = fl[batch]
    spawn = s.spawn
    if spawn is not None:
        hits = (f == spawn.nsp[batch]).nonzero()[0]
        if hits.size:
            batch, new = spawn.splice(batch, hits)
            s.injected_at[new] = t
            s.remaining += int(new.size)
            f = fl[batch]
    done = f == s.fl_last[batch]
    n_done = np.count_nonzero(done)
    if n_done:
        done_idx = batch[done]
        s.arrived[done_idx] = t
        s.remaining -= int(
            np.add.reduce(s.subtree[done_idx]) if s.combines else n_done
        )
        keep = ~done
        batch = batch[keep]
        f = f[keep]
    if batch.size:
        arr_log = s.arr_log
        if arr_log is not None:
            arr_log[f] = t
        combining_dt = enqueue(s, batch, f)
    if prof is not None:
        prof.add_phase("arrival", wall_time() - t0 - combining_dt)


def free_flow(s: RunState, t: int, max_steps: int, rec=None) -> int:
    """Advance a run with no waiter at step *t* through the steps in
    which it stays that way, in one pass; returns the step it lands at
    (*t* itself when the next step needs stepping).  Only for runs
    without ``node_capacity`` or a link-fault view, after an arrival
    phase that left every busy link holding one packet
    (``s.queued == s.active.size``).

    Why it is exact: in such a state every link sends, every packet
    moves one hop a step, and each one's next links are its own
    remaining slots — until two packets would share a queue (the first
    step anything can wait, combine or be ordered by priority), a
    pending spawn trigger fires (:attr:`SpawnTables.nsp`), the last
    packet is delivered, or ``max_steps`` ends the run.  The landing
    step is the one before the first meeting or trigger, or else the
    last delivery or ``max_steps``.  A trigger one step out (most of a
    reply run's calls that skip nothing) returns before the delivery
    offsets are read.  The meeting search reads each
    packet's remaining queue slots window by window: offset 1 by one
    scatter into the ``first_at`` scratch — a busy state that happens to
    hold no waiter and meets at once costs O(packets) and no sort — then
    offsets 2-5 and windows four times wider, each one sort of
    (offset, link) keys.  The pass then writes what the skipped steps
    would have: the arrival log of every slot passed, deliveries
    (``arrived``, and ``remaining`` by absorption subtree), the cursors
    and the chains — ``active`` in the same packet order, vacated links
    with ``q_head`` -1, as :func:`pop_heads` leaves them.  Every skipped
    queue holds one packet, a peak the packet's own enqueue already
    counted.  With a flight recorder *rec*, each
    skipped step gets the ``engine_step`` event stepping records; time
    is booked to ``arrival`` (the search, logs and deliveries) and
    ``transmission`` (cursors and chains).
    """
    prof = s.prof
    t0 = wall_time() if prof is not None else 0.0
    active = s.active
    heads = s.q_head[active]
    fl = s.fl[heads]
    reach = max_steps - t
    spawn = s.spawn
    if spawn is not None:
        # a pending trigger lies ahead of its packet's cursor, none at -9
        trig = spawn.nsp[heads] - fl
        trig = trig[trig > 0]
        if trig.size:
            reach = min(reach, int(trig.min()) - 1)
    li_flat = s.li_flat
    if reach > 0:
        togo = s.fl_last[heads] - fl  # the offset at which each is delivered
        reach = min(reach, int(togo.max()))
        # offset 1 by one scatter into first-writer scratch, no sort: a
        # busy state that meets at once costs O(packets)
        nxt = li_flat[fl[togo > 1] + 1]
        rank = np.arange(nxt.size)
        first_at = s.first_at
        first_at[nxt] = rank
        if np.count_nonzero(first_at[nxt] != rank):
            reach = 0
    n_links = s.q_len.size
    lo, hi = 2, 5
    while lo <= reach:
        hi = min(hi, reach)
        # (packet, offset) pairs still queued in the window, keyed
        # offset-major by the link each waits on there
        packet, col = np.nonzero(togo[:, None] > np.arange(lo, hi + 1))
        keys = li_flat[fl[packet] + col + lo]
        keys += col * n_links
        keys.sort()
        met = keys[1:] == keys[:-1]
        if np.count_nonzero(met):
            reach = lo + int(keys[1:][met][0]) // n_links - 1
            break
        lo, hi = hi + 1, hi + 4 * (hi - lo + 1)
    if reach < 1:
        if prof is not None:
            prof.add_phase("arrival", wall_time() - t0)
        return t
    # the slots passed without delivery, each logged at its arrival step
    logged = np.minimum(togo - 1, reach)
    step = segment_index(logged) + 1
    s.arr_log[fl.repeat(logged) + step] = step + t
    done = togo <= reach
    at = togo[done]  # the delivered, by offset
    done_idx = heads[done]
    s.arrived[done_idx] = at + t
    weight = s.subtree[done_idx] if s.combines else None
    if rec is not None:
        # step t + k sends what offset k has not delivered, and k's
        # deliveries are off the books from its arrival phase on
        sent = heads.size - np.bincount(at, minlength=reach).cumsum()
        out = np.bincount(at, weights=weight, minlength=reach).cumsum()
        for k in range(reach):
            rec.record(
                "engine_step", virtual_clock=t + k, arrivals=int(sent[k]),
                active_links=0, remaining=s.remaining - int(out[k]),
                fault_stalls=s.fault_stalls,
            )  # fmt: skip
    s.remaining -= int(np.add.reduce(weight)) if s.combines else at.size
    t1 = wall_time() if prof is not None else 0.0
    s.fl[heads] = fl + np.minimum(togo, reach)
    s.q_head[active] = -1
    s.q_len[active] = 0
    stay = ~done
    links = li_flat[fl[stay] + reach]
    kept = heads[stay]
    s.q_head[links] = kept
    s.q_tail[links] = kept
    s.q_len[links] = 1
    s.active = links
    s.queued = links.size
    if prof is not None:
        t2 = wall_time()
        prof.add_phase("arrival", t1 - t0)
        prof.add_phase("transmission", t2 - t1)
    return t + reach


def record_absorptions(s: RunState, hosts: np.ndarray, children: np.ndarray) -> None:
    """Merge *children* into *hosts* (aligned, in batch order): parent
    pointers, subtree sizes, and the ordered log :func:`finish` turns
    into ``absorbed_by`` / ``absorbed``.  No child of a step hosts
    another in that step, so every subtree read here is final."""
    subtree = s.subtree
    s.parent[children] = hosts
    np.add.at(subtree, hosts, subtree[children])
    s.combines += int(children.size)
    s.child_pairs.append((hosts, children))


def insert_ahead(
    s: RunState, links: np.ndarray, packets: np.ndarray, prios: np.ndarray
) -> None:
    """Splice *packets* — sorted by (link, priority descending, arrival)
    — into the chains of *links*, each of which holds waiters whose last
    has a priority below the packet's *prios* entry: behind the last
    waiter whose priority is not smaller (ties go to the earlier push),
    at the head when there is none.

    Every packet walks its chain from the head, all of them together,
    one chain position per round, narrowing to the packets still
    passing waiters; the walk ends at the chain's last waiter at the
    latest.  Cost: one numpy round per waiter ahead of the deepest
    insertion point, paid only by these arrivals — the chains a step
    merely sends from are never walked.
    """
    prio = s.prio_flat
    fl = s.fl
    q_next = s.q_next
    q_head = s.q_head
    pred = np.full(packets.size, -1, dtype=np.int64)  # -1: goes in at the head
    walking = np.arange(packets.size, dtype=np.int64)
    cur = q_head[links]
    while True:
        passes = prio[fl[cur]] >= prios
        if not passes.all():
            if not passes.any():
                break
            walking = walking[passes]
            cur = cur[passes]
            prios = prios[passes]
        pred[walking] = cur
        cur = q_next[cur]
    at_head = pred < 0
    nxt = np.where(at_head, q_head[links], q_next[pred])
    # packets of one link behind one waiter stay in their sorted order
    follows = (links[1:] == links[:-1]) & (pred[1:] == pred[:-1])
    nxt[:-1][follows] = packets[1:][follows]
    q_next[packets] = nxt
    new_head = at_head.copy()
    new_head[1:] &= ~follows
    q_head[links[new_head]] = packets[new_head]
    behind = ~at_head
    behind[1:] &= ~follows
    q_next[pred[behind]] = packets[behind]


def enqueue(s: RunState, batch: np.ndarray, f: np.ndarray) -> float:
    """Add *batch* (cursors *f*, batch order = arrival order) to the
    chains of the links its packets cross next, in service order,
    absorbing what combines; returns the seconds booked to
    ``combining`` (0.0 unobserved).

    The **solo** lane takes nearly all served traffic (the paper's
    emulations keep link queues O(1)): after the batch's scatter-add
    into the link lengths, a length of 1 marks a packet alone on a
    previously idle link.  Nobody there can combine with it, so it is
    only placed — its queue's head and tail — and its length, 1 by
    construction, needs no log: it sets ``max_queue`` to at least 1.
    The rest — a link shared within the batch, or already busy — is the
    **contended residue**: absorbed, then threaded, by
    :func:`resolve_residue_scalar` up to :data:`SCALAR_RESIDUE_MAX`
    arrivals, by :func:`resolve_residue_vector` above.  A resolver
    takes its absorptions off ``q_len`` and returns its survivors' link
    ids, whose lengths alone are logged for :func:`fold_peaks`, and the
    residue positions that opened an idle link (its first arrival,
    which always survives: an idle link holds nobody to combine with).
    Those and the solo arrivals activate their links in batch order,
    their first-arrival order.  Only a capacity run's node loads are
    logged for the whole batch.  ``tests/test_batch_arrival.py`` pins
    both lanes by construction.
    """
    q_len = s.q_len
    li = s.li_flat[f]
    pre_len = q_len[li]  # pre-batch lengths (gather before add)
    np.add.at(q_len, li, 1)
    solo = q_len[li] == 1
    n_placed = np.count_nonzero(solo)
    combining_dt = 0.0
    if n_placed == solo.size:
        newly = placed = li
    else:
        rest = (~solo).nonzero()[0]
        resolve = (
            resolve_residue_scalar
            if rest.size <= SCALAR_RESIDUE_MAX
            else resolve_residue_vector
        )
        combining_dt, kept, opened = resolve(
            s, batch[rest], f[rest], li[rest], pre_len[rest]
        )
        if kept.size:
            # Within the phase lengths only grow, so the survivors'
            # post-batch lengths are the step's peaks.  They are logged,
            # not reduced: fold_peaks takes the maxima of many steps in
            # one call.
            queue_peaks = s.queue_peaks
            queue_peaks.append(q_len[kept])
            if len(queue_peaks) >= PEAK_LOG_FOLD:
                fold_peaks(s)
        batch = batch[solo]
        solo_li = li[solo]
        # the openers take their place among the solo arrivals
        solo[rest[opened]] = True
        newly = li[solo]
        li = placed = solo_li
        if s.capacity is not None:
            placed = np.concatenate([solo_li, kept])
        n_placed += kept.size
    if n_placed:
        s.queued += n_placed
        if not s.max_queue:
            s.max_queue = 1
        if s.capacity is not None:
            node_load = s.node_load
            srcs = s.link_src[placed]
            np.add.at(node_load, srcs, 1)
            load_peaks = s.load_peaks
            load_peaks.append(node_load[srcs])
            if len(load_peaks) >= s.peak_fold:
                fold_peaks(s)
    s.q_head[li] = batch
    s.q_tail[li] = batch
    s.q_next[batch] = -1
    s.active = np.concatenate([s.active, newly])
    return combining_dt


def resolve_residue_scalar(
    s: RunState, r_i: np.ndarray, r_f: np.ndarray, r_li: np.ndarray, r_pre: np.ndarray
) -> tuple[float, np.ndarray, list[int]]:
    """Resolve a small contended residue arrival by arrival in Python:
    packets *r_i* (cursors *r_f*) arriving, in batch order, on links
    *r_li* whose chains held *r_pre* packets before the batch.  Returns
    the absorb pass's seconds, the survivors' link ids (``q_len``
    already counts only them) and the residue positions that opened an
    idle link's chain, in batch order.

    Absorb (combining runs only): an arrival meets the resident of its
    (link, key) — found by walking that link's chain — or else the first
    earlier arrival of the step with its link and key, and is absorbed
    into it.  Thread: each survivor appends to its link's chain — a new
    chain if the link was idle — unless it outranks the chain's tail,
    when it walks from the head to just behind the last waiter whose
    priority is not smaller.  Both are the reference engine's
    push-by-push semantics, taken literally.
    """
    q_head = s.q_head
    q_tail = s.q_tail
    q_next = s.q_next
    prio = s.prio_flat
    fl = s.fl
    prios = [0] * r_i.size if prio is None else prio[r_f].tolist()
    arrivals = list(zip(r_i.tolist(), r_li.tolist(), r_pre.tolist(), prios))
    combining_dt = 0.0
    kept = r_li
    absorbed: set[int] = set()
    gid = s.gid
    if gid is not None:
        t0 = wall_time() if s.prof is not None else 0.0
        q_len = s.q_len
        host_of: dict[tuple[int, int], int] = {}
        hosts: list[int] = []
        gone: list[int] = []
        for k, ((i, li, busy, _), g) in enumerate(zip(arrivals, gid[r_i].tolist())):
            h = host_of.get((li, g))
            if h is None:
                h = i
                w = q_head[li] if busy else -1
                while w >= 0:
                    if gid[w] == g:
                        h = int(w)
                        break
                    w = q_next[w]
                host_of[li, g] = h
            if h != i:
                hosts.append(h)
                gone.append(k)
                q_len[li] -= 1
        if gone:
            record_absorptions(s, np.asarray(hosts, dtype=np.int64), r_i[gone])
            absorbed = set(gone)
            kept = np.asarray(
                [a[1] for k, a in enumerate(arrivals) if k not in absorbed],
                dtype=np.int64,
            )
        if s.prof is not None:
            combining_dt = wall_time() - t0
            s.prof.add_phase("combining", combining_dt)
    opened: list[int] = []
    tails: dict[int, tuple[int, int]] = {}  # link -> (tail, its priority)
    for k, (i, li, busy, p) in enumerate(arrivals):
        if k in absorbed:
            continue
        tail = tails.get(li)
        if tail is None:
            if busy:
                last = q_tail[li]
                tail = (last, 0 if prio is None else prio[fl[last]])
            else:
                opened.append(k)
        if tail is None or p <= tail[1]:
            if tail is None:
                q_head[li] = i
            else:
                q_next[tail[0]] = i
            q_next[i] = -1
            tails[li] = (i, p)
        else:
            pred = -1
            cur = q_head[li]
            while prio[fl[cur]] >= p:
                pred = cur
                cur = q_next[cur]
            q_next[i] = cur
            if pred < 0:
                q_head[li] = i
            else:
                q_next[pred] = i
    for li, (tail, _) in tails.items():
        q_tail[li] = tail
    return combining_dt, kept, opened


def match_residents(
    s: RunState, r_i: np.ndarray, r_li: np.ndarray, r_pre: np.ndarray
) -> np.ndarray:
    """Each residue arrival's host — the packet it is absorbed into, or
    itself — vectorized (arguments as :func:`resolve_residue_scalar`).

    Arrivals on busy links walk their chains together, one position per
    round, until a waiter has their key (the resident) or the chain
    ends; one stable (link, key) sort then gives each same-link,
    same-key group its first member's host.
    """
    gid = s.gid
    q_next = s.q_next
    keys = gid[r_i]
    hosts = r_i.copy()
    walking = np.nonzero(r_pre)[0]
    cur = s.q_head[r_li[walking]]
    while walking.size:
        hit = gid[cur] == keys[walking]
        hosts[walking[hit]] = cur[hit]
        cur = q_next[cur]
        on = (cur >= 0) & ~hit
        walking = walking[on]
        cur = cur[on]
    order = np.lexsort((keys, r_li))
    s_li = r_li[order]
    s_keys = keys[order]
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = (s_li[1:] != s_li[:-1]) | (s_keys[1:] != s_keys[:-1])
    first = np.maximum.accumulate(np.where(lead, np.arange(order.size), 0))
    hosts[order] = hosts[order][first]
    return hosts


def resolve_residue_vector(
    s: RunState, r_i: np.ndarray, r_f: np.ndarray, r_li: np.ndarray, r_pre: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Resolve a large contended residue in numpy calls, with
    :func:`resolve_residue_scalar`'s arguments, result (the positions
    that opened an idle link in any order) and semantics.

    Absorb: :func:`match_residents`.  Thread: one sort groups the
    survivors by link in service order — FIFO: (link, position) as one
    combined key (the default introsort keeps group order and beats a
    stable mergesort on int64); prioritised: largest first, batch order
    among ties (lexsort is stable) — and each group is chained behind
    its queue's old tail, except the arrivals that outrank that tail,
    which :func:`insert_ahead` splices in.  A group on an idle link
    starts a new chain; the arrival that opened the link is the group's
    lead under FIFO, its lowest position under priorities.
    """
    combining_dt = 0.0
    at = None  # each survivor's residue position (None: all survive)
    if s.gid is not None:
        prof = s.prof
        t0 = wall_time() if prof is not None else 0.0
        hosts = match_residents(s, r_i, r_li, r_pre)
        absorbed = hosts != r_i
        if np.count_nonzero(absorbed):
            record_absorptions(s, hosts[absorbed], r_i[absorbed])
            np.subtract.at(s.q_len, r_li[absorbed], 1)
            at = (~absorbed).nonzero()[0]
            r_i, r_f, r_li, r_pre = r_i[at], r_f[at], r_li[at], r_pre[at]
        if prof is not None:
            combining_dt = wall_time() - t0
            prof.add_phase("combining", combining_dt)
    q_head = s.q_head
    q_tail = s.q_tail
    q_next = s.q_next
    prio = s.prio_flat
    if prio is None:
        order = np.argsort(
            r_li * np.int64(r_li.size) + np.arange(r_li.size, dtype=np.int64)
        )
    else:
        r_p = prio[r_f]
        order = np.lexsort((-r_p, r_li))
    s_li = r_li[order]
    s_i = r_i[order]
    # a chain's tail is only meaningful while the chain is non-empty
    prev = np.where(r_pre[order] > 0, q_tail[s_li], -1)
    if prio is not None:
        # Whoever outranks the last waiter of its link goes in ahead
        # of it; the others (a group's lowest, sorted last) append.
        met = (prev >= 0).nonzero()[0]
        if met.size:
            s_p = r_p[order]
            ahead = met[s_p[met] > prio[s.fl[prev[met]]]]
            if ahead.size:
                insert_ahead(s, s_li[ahead], s_i[ahead], s_p[ahead])
                behind = np.ones(s_i.size, dtype=bool)
                behind[ahead] = False
                s_li, s_i, prev = s_li[behind], s_i[behind], prev[behind]
                order = order[behind]
    # Each packet chains behind the previous member of its group, a
    # group's first behind the queue's old tail — or nobody: it heads a
    # new chain.
    cont = s_li[1:] == s_li[:-1]
    prev[1:][cont] = s_i[:-1][cont]
    chained = prev >= 0
    q_next[s_i] = -1
    q_next[prev[chained]] = s_i[chained]
    new = (~chained).nonzero()[0]
    q_head[s_li[new]] = s_i[new]
    # a repeated index keeps its last write: the group's tail
    q_tail[s_li] = s_i
    opened = order[new]
    if prio is not None and new.size:
        # a group's highest rank leads it; its lowest position opened it
        starts = np.concatenate(([0], (~cont).nonzero()[0] + 1))
        opened = np.minimum.reduceat(order, starts)[~chained[starts]]
    return combining_dt, r_li, opened if at is None else at[opened]


def finish(s: RunState, t: int, deadlocked: bool) -> RunArrays:
    """The run's outcome after *t* steps, as :class:`RunArrays`.

    Absorbed packets arrive when their absorption root does (the deliver
    cascade): every packet is pointer-jumped to its root, doubling the
    distance covered each round.
    """
    prof = s.prof
    t0 = wall_time() if prof is not None else 0.0
    fold_peaks(s)
    arrived = s.arrived
    absorbed_by = absorbed = _EMPTY
    if s.child_pairs:
        absorbed_by = np.concatenate([hs for hs, _ in s.child_pairs])
        absorbed = np.concatenate([ch for _, ch in s.child_pairs])
        parent = s.parent
        root = np.where(parent >= 0, parent, np.arange(parent.size, dtype=np.int64))
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up
        arrived[absorbed] = arrived[root[absorbed]]
    fc = s.fc
    arrays = RunArrays(
        paths=s.paths,
        links=(s.li_flat, s.link_src, s.link_dst),
        hops=s.fl - s.fl_base,
        arrived=arrived,
        injected_at=s.injected_at,
        absorbed_by=absorbed_by,
        absorbed=absorbed,
        # Never-triggered packets were never part of the run; stats
        # cover roots (input order) then spawned packets in spawn
        # order — the reference engine's dynamic append order.
        order=None if s.spawn is None else np.concatenate([s.roots, *s.spawn.spawned]),
        steps=t,
        completed=s.remaining == 0,
        max_queue=s.max_queue,
        max_node_load=None if s.capacity is None else s.max_node_load,
        combines=s.combines,
        credits_stalled=fc.credits_stalled if fc is not None else 0,
        escape_hops=fc.escape_hops if fc is not None else 0,
        fault_stalls=s.fault_stalls,
        deadlock=(
            no_progress_detail(t, s.remaining, int(s.active.size))
            if deadlocked
            else None
        ),
        arrival_log=s.arr_log,
    )
    if prof is not None:
        prof.add_phase("finish", wall_time() - t0)
    return arrays


def peak_node_load(arrays: RunArrays) -> int:
    """``max_node_load`` of a finished run, derived from its
    ``arrival_log`` (:class:`RunArrays`).

    A packet counts toward the node its queued hop leaves from the step
    it arrived at that hop's slot until one step before its next
    arrival, its delivery, its absorption (an absorbed arrival never
    counts) or — still queued when the run ended — through the run's
    last step: exactly the packets the engine's per-node table held
    after each arrival phase.  One sort sweeps every such episode: the
    stat is the largest running count of any node.  O(hops the run
    made · log), paid by whoever reads the stat, never by the step loop.
    """
    if arrays.max_node_load is not None:
        return arrays.max_node_load
    log = np.asarray(arrays.arrival_log, dtype=np.int64)
    seen = np.flatnonzero(log >= 0)
    if not seen.size:
        return 0
    nodes, offsets = arrays.paths
    n = offsets.size - 1
    last = offsets[1:] - offsets[:-1] - 1  # link slots per packet
    fl_base = offsets[:-1] - np.arange(n, dtype=np.int64)
    # each logged hop ends at the packet's next arrival ...
    until = np.empty(log.size, dtype=np.int64)
    until[:-1] = log[1:]
    # ... or, from its last link slot, at its delivery ...
    out = last > 0
    until[fl_base[out] + last[out] - 1] = arrays.arrived[out]
    # ... and where it stopped short of delivery, when the run ended if
    # it is still queued there, at once if it was absorbed there
    stop = fl_base + arrays.hops
    until[stop[arrays.hops < last]] = arrays.steps + 1
    gone = stop[arrays.absorbed]
    until[gone] = log[gone]
    # slot f of packet i leaves node nodes[f + i]
    src = nodes[seen + np.repeat(np.arange(n, dtype=np.int64), last)[seen]]
    base = src * np.int64(arrays.steps + 2)
    # a departure (even key) sorts before an arrival (odd) at one step
    keys = np.concatenate([(base + until[seen]) * 2, (base + log[seen]) * 2 + 1])
    keys.sort()
    return int(np.cumsum((keys & 1) * 2 - 1).max())
