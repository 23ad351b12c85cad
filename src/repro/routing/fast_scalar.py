"""The fast engine's scalar lane: small runs stepped on Python lists.

:meth:`FastPathEngine.run <repro.routing.fast_engine.FastPathEngine.run>`
has two lanes for one run semantics.  The *vector* lane
(:mod:`repro.routing.fast_phases`) advances a :class:`RunState` of numpy
tables, paying ~35 numpy calls — ~37 µs — a network step whatever the
batch size.  This lane advances a run of at most :data:`SCALAR_RUN_MAX`
packets with no ``node_capacity`` and no link-fault view on Python lists,
at ~0.5 µs a packet-hop (whole engine runs, set-up included, best of
nine each, on a 2-core box: 0.52 µs over one ``sharded_tenants`` unit's
27-96-packet runs, 0.44 µs over one ``apps_replay`` unit's 1-318-packet
ones; the box's speed varied by up to 30 % between such measurements).
Per busy link it keeps its *head* — the packet it sends next — in
``active``, a dict whose insertion order is the links' activation
order, and, only for a
link with more than one packet, the rest of its queue in service order
in ``waiting``; per-packet cursor, subtree and arrival lists; and per
link slot the key of the queue the hop joins and the step its packet
arrived there (the *arrival log*).  No table is sized by the network
and no node load is counted: ``max_node_load`` is derived from the log
when it is first read (:func:`~repro.routing.fast_phases.peak_node_load`).
The lane is chosen from the population size and the configuration
only; credit / capacity runs and link faults stay on the vector lane.

Both lanes share the validation a caller's population gets
(:func:`~repro.routing.fast_engine._normalise_paths`,
:func:`~repro.routing.fast_phases.pack_priorities`, a handed-in link
triple's checks in :func:`~repro.routing.fast_phases.handed_links`) and
return the same :class:`RunArrays`, so the stats, the reply phase and
the routers read a run without knowing its lane.  What this lane does
not share is the link interning
(:func:`~repro.routing.fast_phases.link_tables`' ``np.unique``): a hop's
queue is keyed by its ``src * num_nodes + dst`` code
(:func:`~repro.routing.fast_phases.hop_codes`), or by the caller's link
id when it hands a triple, so a run handed no links leaves
:attr:`RunArrays.links` ``None`` and its keys, as a list, in
:attr:`RunArrays.slot_keys`.

A reply population (:class:`~repro.routing.fast_phases.Replies`) of at
most :data:`SCALAR_RUN_MAX` replies is laid out here from its request
run's own tables instead of from arrays it would convert back to lists
(:func:`forest_rows`, :func:`reply_run`): the forest by a queue walk of
the absorptions, each reply's keys its request's reversed (the queue
identity the vector lane's inherited ids give), merge positions by
``list.index``, and the triggers straight into the
:class:`~repro.routing.fast_phases.SpawnTables` lists
:meth:`~repro.routing.fast_phases.SpawnTables.fire` walks.  That data is
the engine's own, so the checks above, which guard a caller's, are not
run on it again, and its itineraries are gathered only if something
reads them (:func:`reply_paths`).

The step is the paper's, taken literally, in one pass over each batch.
Every busy link sends its head in activation order (:func:`transmit`:
the heads are ``active``'s values; only when some link has waiters is
the dict rebuilt, each such link keeping its place with its first
waiter as head).  Then :func:`admit` walks the arrivals in that order,
each packet's cursor moved on one slot as the pass reaches it (an
injection's not at all): its pending spawn trigger fires there, its
children — each with its own position-0 spawns before it — placed
before it, cursors not advanced (:func:`spawn_children`); then it is
delivered with its absorption subtree, placed alone on an idle link as
its head, absorbed into the queued packet on its link with its combine
key (the head first, then the waiters), or it waits — appended, unless
under furthest-first it outranks the tail, when it goes in behind the
last queued packet whose priority is not smaller, becoming the head if
that is none — every arrival but a delivery logged first.  The queue
peak is the post-arrival one, raised as queues grow.
This lane's checker is :func:`repro.routing.run_view.check`, over
:func:`repro.routing.run_view.scalar`'s view of a run (the ``waiting``
lists' shape, and each queued packet's ``key`` against its link, are
that producer's own).  The differential suites run through each lane
(the ``run_lane`` fixture of ``tests/conftest.py``).
"""

from __future__ import annotations

import numpy as np

from repro.obs.clock import wall_time
from repro.routing import fast_phases
from repro.routing.engine import NetworkDrainedError
from repro.routing.fast_phases import (
    _EMPTY,
    MergeNodeMissingError,
    Replies,
    RunArrays,
    SpawnTables,
)
from repro.routing.metrics import Deferred
from repro.topology.compiled import FlatPaths

#: The largest population stepped on lists; a larger run, or one with
#: ``node_capacity`` or a link-fault view, takes the vector lane.  The
#: census (``python tools/residue_census.py [--lanes]``, seed 7, one
#: unit): engine runs on this lane / all, and ``--lanes``' replay of
#: every run the configuration allows through both lanes, best of three
#: — vector / scalar seconds by population:
#:
#: ==================  =======  =====  =====  =====  ======  =======  =======  =====
#: workload            runs     1-16   17-32  33-64  65-128  129-256  257-384  > 384
#: ==================  =======  =====  =====  =====  ======  =======  =======  =====
#: bfly_small_steps    500/500  3.90x  3.81x
#: sharded_tenants     280/280         3.17x  2.84x  2.39x
#: apps_replay         240/240  4.15x  3.93x  2.75x  1.92x   1.81x    1.30x
#: mesh_crcw_zipf      0/40                                                   0.86x
#: mesh_erew_hot       0/30                                                   0.65x
#: star_crcw_zipf      0/10                                                   0.37x
#: bfly_credit_bursty  0/32                                                   0.56x
#: ==================  =======  =====  =====  =====  ======  =======  =======  =====
#:
#: The populations those replays cover, min-max at seeds 7 / 31:
#: ``bfly_small_steps`` 4-31 / 7-29, ``sharded_tenants`` 27-96 / 22-105,
#: ``apps_replay`` 1-318 / 1-338; then ``mesh_crcw_zipf`` 432-558 /
#: 469-552, ``mesh_erew_hot`` 628-696 / 599-697, ``bfly_credit_bursty``
#: 766-1024 / 753-1024 (its unconstrained reply runs) and
#: ``star_crcw_zipf`` 2342-2596 / 2445-2515.  Lists win every bucket up
#: to ``apps_replay``'s largest runs (its 129-384-packet requests 1.57x,
#: their replies 1.19x) and lose on every row above them
#: (``mesh_crcw_zipf``'s requests 0.93x, replies 0.88x).  The constant
#: sits in the gap no run falls in, 339-431, so it moves no run of a row
#: but ``apps_replay``, and whole units of that row agree:
#: ``python tools/ab.py --workload apps_replay --pairs 10 --seconds 15``
#: against this constant at 128 (2-core box) read ``requests_per_s``
#: 71,310 → 78,865 (1.11x) at seed 7 and 74,131 → 81,027 (1.09x) at
#: seed 31, 10/10 pairs won each, ``sim_digest`` equal in every pair.
SCALAR_RUN_MAX = 384


def takes(n: int, node_capacity, link_faults) -> bool:
    """Whether a run of *n* packets takes this lane: a function of the
    population size and the configuration only."""
    return n <= SCALAR_RUN_MAX and node_capacity is None and link_faults is None


class ScalarRun:
    """One scalar-lane run: the per-slot and per-packet tables as lists,
    and the state the step loop mutates (see the module docstring)."""

    __slots__ = (
        "paths", "links", "fl_base", "injected_at", "prof", "spawn", "roots",
        "key", "log", "prio", "gid", "fl", "fl_last", "subtree", "arrived",
        "active", "waiting", "remaining", "max_queue", "absorbed_by", "absorbed",
        "spawned",
    )  # fmt: skip

    def __init__(
        self, paths, last, gid=None, priorities=None, *,
        num_nodes: int, links=None, profile=None,
    ) -> None:  # fmt: skip
        n = last.size
        self.paths = paths
        # every row enters at step 0: a reply run with spawn triggers is
        # built by reply_run
        self.injected_at = self.spawn = None
        self.prof = profile
        codes = fast_phases.hop_codes(paths, num_nodes)
        self.links = (
            None if links is None else fast_phases.handed_links(links, codes.size)
        )
        prio = fast_phases.pack_priorities(priorities, paths)
        self.roots = np.arange(n, dtype=np.int64)
        self.fl_base = paths.offsets[:-1] - self.roots
        self.gid = None
        if gid is not None:
            gid = np.asarray(gid, dtype=np.int64)
            if gid.shape != (n,):
                raise ValueError("one combine group per packet required")
            self.gid = gid.tolist()
        #: per link slot: the key of the queue its hop joins
        self.key = (codes if links is None else self.links[0]).tolist()
        self.prio = None if prio is None else prio.tolist()
        self.fl = self.fl_base.tolist()
        self.fl_last = (self.fl_base + last).tolist()
        self.start(n)

    def start(self, n: int) -> None:
        """The state the step loop mutates, before step 0, for *n*
        packets over the slots of ``key``."""
        #: per link slot: the step its packet arrived there (-1: not yet)
        self.log = [-1] * len(self.key)
        self.subtree = [1] * n
        self.arrived = [-1] * n
        #: busy link -> its head (the packet it sends next), in activation
        #: order
        self.active: dict[int, int] = {}
        #: busy link with more than one packet -> the rest of its queue,
        #: in service order
        self.waiting: dict[int, list[int]] = {}
        self.remaining = int(self.roots.size)
        self.max_queue = 0
        self.absorbed_by: list[int] = []
        self.absorbed: list[int] = []
        self.spawned: list[int] = []  # in spawn order


def forest_rows(replies: Replies, cap: int) -> tuple[list[int], list[tuple]] | None:
    """The reply population of *replies* as lists, or ``None`` if it has
    more than *cap* replies: the request row of every reply, breadth
    first — a queue walk of ``absorbed_by`` / ``absorbed`` from the hosts
    in host order, children in absorption order — and per reply with
    children ``(its index, its first child's, one past its last
    child's)``, in reply order."""
    requests, hosts = replies
    if hosts.size > cap:
        return None
    rows = hosts.tolist()
    families: list[tuple] = []
    if not requests.absorbed.size:
        return rows, families
    kids: dict[int, list[int]] = {}
    for h, c in zip(requests.absorbed_by.tolist(), requests.absorbed.tolist()):
        if h in kids:
            kids[h].append(c)
        else:
            kids[h] = [c]
    j = 0
    while j < len(rows):
        group = kids.get(rows[j])
        if group:
            first = len(rows)
            rows += group
            if len(rows) > cap:
                return None
            families.append((j, first, len(rows)))
        j += 1
    return rows, families


def slot_keys(requests: RunArrays, num_nodes: int) -> list[int]:
    """Per link slot of a finished run, the key of the queue its hop
    joined: the scalar lane's own list, the vector lane's link ids, or —
    on hand-built arrays with neither — the hops' ``(src, dst)`` codes."""
    if requests.slot_keys is not None:
        return requests.slot_keys
    if requests.links is not None:
        return requests.links[0].tolist()
    return fast_phases.hop_codes(requests.paths, num_nodes).tolist()


def reply_run(
    replies: Replies, forest, *, num_nodes: int, profile=None
) -> ScalarRun:
    """A :class:`ScalarRun` of the reply population *replies*, whose
    :func:`forest_rows` are *forest*, laid out from the request run's own
    tables (:class:`~repro.routing.fast_phases.Replies` has the rules).

    Reply j's slot keys are its request's, reversed — a reply crosses its
    request's links the other way, so it keeps their queue identity
    whether they were link ids or ``(src, dst)`` codes.  A child spawns
    at the first index of its merge node — where its request stopped —
    in its parent's reversed node slice (of the request run's nodes,
    only the merge families' rows are read); its parent's triggers go
    straight into the :class:`~repro.routing.fast_phases.SpawnTables`
    lists, one per distinct position in ascending order, children in
    reply order.  The run's itineraries are :func:`reply_paths`,
    deferred to their first read.
    """
    requests = replies.requests
    rows, families = forest
    n = len(rows)
    hops = requests.hops.tolist()
    offsets = requests.paths.offsets.tolist()
    keys = slot_keys(requests, num_nodes)
    s = ScalarRun.__new__(ScalarRun)
    key: list[int] = []
    fl: list[int] = []
    for r in rows:
        fl.append(len(key))
        base = offsets[r] - r
        key += keys[base : base + hops[r]][::-1]
    fl_last = fl[1:]
    fl_last.append(len(key))
    s.spawn = s.injected_at = None
    if families:
        nodes = requests.paths.nodes
        next_trig = [-1] * n
        kids: list[int] = []
        bounds = [0]
        trig_parent: list[int] = []
        trig_cursor: list[int] = []
        at_start: list[bool] = []
        for p, first, end in families:
            parent = rows[p]
            o = offsets[parent]
            rev = nodes[o : o + hops[parent] + 1].tolist()
            rev.reverse()
            by_position: dict[int, list[int]] = {}
            for c in range(first, end):
                child = rows[c]
                merge = nodes.item(offsets[child] + hops[child])
                try:
                    q = rev.index(merge)
                except ValueError:
                    raise MergeNodeMissingError(child, parent, merge) from None
                if q in by_position:
                    by_position[q].append(c)
                else:
                    by_position[q] = [c]
            next_trig[p] = len(trig_parent)
            for q in sorted(by_position):
                trig_parent.append(p)
                trig_cursor.append(fl[p] + q)
                at_start.append(q == 0)
                kids += by_position[q]
                bounds.append(len(kids))
        s.spawn = SpawnTables(
            next_trig, [-9] * n, kids, bounds, trig_parent, trig_cursor, at_start
        )
        s.injected_at = np.zeros(n, dtype=np.int64)
    s.paths = Deferred(reply_paths, requests, rows)
    s.links = s.prio = s.gid = None
    s.prof = profile
    s.roots = np.arange(replies.hosts.size, dtype=np.int64)
    s.key, s.fl_base, s.fl, s.fl_last = key, fl, fl[:], fl_last
    s.start(n)
    return s


def reply_paths(requests: RunArrays, rows: list[int]) -> FlatPaths:
    """The itineraries of the replies to request rows *rows*, each its
    request's row read back from where it stopped: a list-built reply
    run's :attr:`RunArrays.paths`, gathered when first read
    (:func:`~repro.routing.fast_phases.reversed_rows`) — the step loop
    never reads a node."""
    at = np.asarray(rows, dtype=np.int64)
    return fast_phases.reversed_rows(requests, at, requests.hops[at])[0]


def run_steps(s: ScalarRun, *, max_steps: int, observer) -> RunArrays:
    """The vector lane's step loop (``FastPathEngine._run_batch``) on
    *s*: the roots enter at step 0, every step transmits then admits,
    and the profile buckets and flight-recorder events are the vector
    lane's."""
    prof = s.prof
    rec = observer.recorder if observer is not None else None
    admit(s, s.roots.tolist(), 0, 0, prof)
    t = 0
    while s.remaining > 0 and t < max_steps:
        if not s.active:
            raise NetworkDrainedError(s.remaining, t, observer)
        tx0 = wall_time() if prof is not None else 0.0
        arrivals = transmit(s)
        if prof is not None:
            prof.add_phase("transmission", wall_time() - tx0)
        if rec is not None:
            rec.record(
                "engine_step", virtual_clock=t, arrivals=len(arrivals),
                active_links=len(s.active), remaining=s.remaining, fault_stalls=0,
            )  # fmt: skip
        t += 1
        if arrivals:
            admit(s, arrivals, t, 1, prof)
    return finish(s, t)


def transmit(s: ScalarRun) -> list[int]:
    """Every busy link sends its head, in activation order; returns the
    packets sent, in that order (their cursors advance when they are
    admitted).  A link with waiters keeps its place, its first waiter
    the new head; every other link leaves ``active`` (a later arrival
    activates it anew, at the end)."""
    active = s.active
    sent = list(active.values())
    waiting = s.waiting
    if not waiting:
        s.active = {}
        return sent
    busy = {}
    for k in active:
        if k in waiting:
            w = waiting[k]
            busy[k] = w.pop(0)
            if not w:
                del waiting[k]
    s.active = busy
    return sent


def admit(s: ScalarRun, batch: list[int], t: int, advance: int, prof) -> None:
    """Place *batch*, in order, at step *t*, each packet's cursor moved
    on by *advance* first (1 for arrivals, 0 for injections): fire its
    pending trigger if it is there (:func:`spawn_children`), then
    deliver, absorb or enqueue it (see the module docstring).  With a
    *prof*, time is booked to ``arrival``, minus the ``combining`` share
    — the resident searches of a combining run's arrivals that meet a
    busy link."""
    t0 = wall_time() if prof is not None else 0.0
    combining_dt = 0.0
    met = False
    fl, fl_last, key, log = s.fl, s.fl_last, s.key, s.log
    active, waiting, gid, prio = s.active, s.waiting, s.gid, s.prio
    subtree, arrived, spawn = s.subtree, s.arrived, s.spawn
    if spawn is not None:
        next_trig, trig_cursor = spawn.next_trig, spawn.trig_cursor
    max_queue, remaining = s.max_queue, s.remaining
    for i in batch:
        f = fl[i] + advance
        fl[i] = f
        if spawn is not None:
            trig = next_trig[i]
            if trig >= 0 and trig_cursor[trig] == f:
                s.max_queue, s.remaining = max_queue, remaining
                spawn_children(s, i, t)
                max_queue, remaining = s.max_queue, s.remaining
        if f == fl_last[i]:
            arrived[i] = t
            remaining -= subtree[i]
            continue
        log[f] = t
        k = key[f]
        if k not in active:
            # alone on an idle link: nothing to meet, outrank or exceed
            active[k] = i
            if not max_queue:
                max_queue = 1
            continue
        h = active[k]
        w = waiting.get(k)
        if gid is not None:
            met = True
            c0 = wall_time() if prof is not None else 0.0
            g = gid[i]
            m = h if gid[h] == g else -1
            if m < 0 and w is not None:
                for x in w:
                    if gid[x] == g:
                        m = x
                        break
            if prof is not None:
                combining_dt += wall_time() - c0
            if m >= 0:
                subtree[m] += subtree[i]
                s.absorbed_by.append(m)
                s.absorbed.append(i)
                continue
        if w is None:
            w = waiting[k] = []
        if prio is None or prio[f] <= prio[fl[w[-1] if w else h]]:
            w.append(i)
        elif prio[f] > prio[fl[h]]:
            # outranks the head: it is sent next, the old head waits first
            active[k] = i
            w.insert(0, h)
        else:
            p = prio[f]
            j = 0
            while prio[fl[w[j]]] >= p:
                j += 1
            w.insert(j, i)
        if len(w) >= max_queue:
            max_queue = len(w) + 1
    s.max_queue, s.remaining = max_queue, remaining
    if prof is not None:
        if met:
            prof.add_phase("combining", combining_dt)
        prof.add_phase("arrival", wall_time() - t0 - combining_dt)


def spawn_children(s: ScalarRun, i: int, t: int) -> None:
    """Packet *i*'s pending trigger fires at step *t*: its children —
    each with its own position-0 spawns before it, recursively
    (:meth:`SpawnTables.fire`) — are injected and placed, cursors not
    advanced, before *i* is."""
    out: list[int] = []
    seq = s.spawned
    before = len(seq)
    s.spawn.fire(i, out, seq)
    for c in seq[before:]:
        s.injected_at[c] = t
    s.remaining += len(seq) - before
    # no profile: the pass that reached i books this time
    admit(s, out, t, 0, None)


def finish(s: ScalarRun, t: int) -> RunArrays:
    """The run's outcome after *t* steps, as the vector lane's
    :class:`RunArrays`; an absorbed packet arrives when its absorption
    root does."""
    prof = s.prof
    t0 = wall_time() if prof is not None else 0.0
    arrived = s.arrived
    parent = dict(zip(s.absorbed, s.absorbed_by))
    for i in s.absorbed:
        root = parent[i]
        while root in parent:
            root = parent[root]
        arrived[i] = arrived[root]
    # a run that combined nothing shares the vector lane's empty column
    absorbed_by = absorbed = _EMPTY
    if s.absorbed:
        absorbed_by = np.asarray(s.absorbed_by, dtype=np.int64)
        absorbed = np.asarray(s.absorbed, dtype=np.int64)
    arrays = RunArrays(
        paths=s.paths,
        links=s.links,
        hops=np.asarray(s.fl, dtype=np.int64) - s.fl_base,
        arrived=np.asarray(arrived, dtype=np.int64),
        injected_at=s.injected_at,
        absorbed_by=absorbed_by,
        absorbed=absorbed,
        order=(
            None
            if s.spawn is None
            else np.concatenate([s.roots, np.asarray(s.spawned, dtype=np.int64)])
        ),
        steps=t,
        completed=s.remaining == 0,
        max_queue=s.max_queue,
        max_node_load=None,
        combines=len(s.absorbed),
        credits_stalled=0,
        escape_hops=0,
        fault_stalls=0,
        deadlock=None,
        arrival_log=s.log,
        slot_keys=s.key,
    )
    if prof is not None:
        prof.add_phase("finish", wall_time() - t0)
    return arrays
