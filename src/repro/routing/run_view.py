"""One view of a run's state, and the one checker of its invariants.

Three implementations step the machine model of §2.2.1: the reference
engine's :class:`~repro.routing.engine.ReferenceRun`, the vector lane's
:class:`~repro.routing.fast_phases.RunState` and the scalar lane's
:class:`~repro.routing.fast_scalar.ScalarRun`.  A producer per layout
(:func:`reference`, :func:`vector`, :func:`scalar`) walks it into one
:class:`RunView`, raising only the clauses that exist in that layout
alone; :func:`check` enforces every other clause once, for all three.
Packets are named by row (the reference engine's by their place in
``all_packets``) and links by ``(src, dst)``, so two implementations in
one state give equal views.  A test instrument: nothing on the served
path imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.routing.metrics import Deferred
from repro.topology.compiled import segment_index


class RunInvariantError(RuntimeError):
    """A run's state broke an invariant every step keeps (:func:`check`
    or a producer found it): an engine bug, never an input error.
    ``invariant`` names the rule, ``detail`` the first offender."""

    def __init__(self, invariant: str, detail: str) -> None:
        super().__init__(f"{invariant}: {detail}")
        self.invariant = invariant
        self.detail = detail


@dataclass
class RunView:
    """A run between two of its phases.  Per busy link in activation
    order, ``((src, dst), [(packet, rank), ...])`` in service order; per
    packet its hop cursor, node there (``None``: off its path), exit node
    and weight (itself plus what it absorbed).  The records only some
    layouts keep — last hops, node loads, and per link slot the step its
    packet arrived (-1: not yet; row i's ``last[i]`` slots follow row
    i - 1's) — are left out of ``==``."""

    links: list
    hop: list[int]
    node: list
    dest: list
    weight: list[int]
    escape: list[int]
    delivered: list[int]
    absorbed: list[int]
    roots: int  #: packets ``0 .. roots - 1`` enter at step 0
    spawned: list[int]  #: the other packets that have entered
    remaining: int
    last: list[int] | None = field(default=None, compare=False)
    node_load: dict | None = field(default=None, compare=False)
    log: list[int] | np.ndarray | None = field(default=None, compare=False)


def reference(r) -> RunView:
    """A :class:`~repro.routing.engine.ReferenceRun`'s view; raises
    ``active`` for an active link with nothing queued (a queue left out
    of ``active`` leaves its packets in no state, which :func:`check`
    reports).  Never calls ``next_hop``: a randomized router draws there."""
    packets = r.all_packets
    row = dict(zip(map(id, packets), range(len(packets))))
    links = []
    for key in r.active:
        q = r.queues.get(key)
        members = [] if q is None else q.in_service_order()
        if not members:
            raise RunInvariantError("active", f"active link {key} has no queued packet")
        links.append((key, [(row[id(p)], rank) for p, rank in members]))
    arrived = list(map(attrgetter("arrived_at"), packets))
    combined = list(map(attrgetter("combined"), packets))
    return RunView(
        links,
        list(map(attrgetter("hops"), packets)),
        list(map(attrgetter("node"), packets)),
        list(map(attrgetter("dest"), packets)),
        [1 if p.children is None else len(p.all_represented()) for p in packets],
        [] if r.fc is None else [row[id(p)] for p in r.fc.escape_at.values()],
        [i for i, (a, c) in enumerate(zip(arrived, combined)) if a is not None and not c],
        [i for i, c in enumerate(combined) if c],
        len(packets),  # a spawned packet joins the list when it is placed
        [],
        r.remaining,
        node_load={u: c for u, c in r.node_load.items() if c},
    )


def _itineraries(paths, fl_base, fl, fl_last):
    """A fast run's per-packet ``(hop, last, node, next, dest)`` lists
    from its flat cursors (``next``: the ``(src, dst)`` hop its path
    takes from the cursor; ``None``, as ``node`` off the path, if none)."""
    nodes, offsets = paths.resolve() if isinstance(paths, Deferred) else paths
    hop = np.asarray(fl, dtype=np.int64) - fl_base
    last = np.asarray(fl_last, dtype=np.int64) - fl_base
    on = (hop >= 0) & (hop <= last)
    at = np.where(on, offsets[:-1] + hop, offsets[:-1])
    node = nodes[at].tolist()
    nxt = list(zip(node, nodes[np.where(on & (hop < last), at + 1, at)].tolist()))
    for i in np.flatnonzero(~on | (hop == last)).tolist():
        node[i] = node[i] if on[i] else None
        nxt[i] = None
    return hop.tolist(), last.tolist(), node, nxt, nodes[offsets[1:] - 1].tolist()


def vector(s) -> RunView:
    """A vector-lane :class:`~repro.routing.fast_phases.RunState`'s view;
    raises ``active`` unless ``active`` is the links with ``q_len > 0``,
    and ``chain`` unless ``queued`` is the lengths' sum and each chain
    from ``q_head`` has ``q_len`` members
    (the walk stops one past ``q_len``), ends at ``q_tail`` and holds
    packets whose next slot's id (``li_flat``) is that link."""
    active, busy = s.active.tolist(), np.flatnonzero(s.q_len).tolist()
    if sorted(active) != busy:
        raise RunInvariantError("active", f"active links {active}, busy {busy}")
    empty = np.flatnonzero((s.q_len < 0) | ((s.q_len == 0) & (s.q_head != -1)))
    if empty.size:
        raise RunInvariantError("chain", f"link {empty[0]} has a negative length or an idle head")
    if s.queued != s.q_len.sum():
        raise RunInvariantError("chain", f"{s.queued} counted queued, {s.q_len.sum()} in chains")
    q_len, q_head, q_tail = s.q_len.tolist(), s.q_head.tolist(), s.q_tail.tolist()
    q_next, fl, li_flat = s.q_next.tolist(), s.fl.tolist(), s.li_flat.tolist()
    prio = s.prio_flat.tolist() if s.prio_flat is not None else None
    hop, last, node, nxt, dest = _itineraries(s.paths, s.fl_base, s.fl, s.fl_last)
    links = []
    for li in active:
        chain, i = [], q_head[li]
        while i >= 0 and len(chain) <= q_len[li]:
            chain.append(i)
            i = q_next[i]
        if len(chain) != q_len[li] or chain[-1] != q_tail[li]:
            raise RunInvariantError(
                "chain", f"link {li}: length {q_len[li]}, tail {q_tail[li]}, chain {chain}"
            )
        for i in chain:
            if nxt[i] is not None and li_flat[fl[i]] != li:
                raise RunInvariantError("chain", f"packet {i} waits on link {li}, not its next hop")
        ranks = [0 if prio is None or nxt[i] is None else prio[fl[i]] for i in chain]
        links.append(((s.link_src.item(li), s.link_dst.item(li)), list(zip(chain, ranks))))
    load = None
    if s.node_load is not None:
        at = np.flatnonzero(s.node_load)
        load = dict(zip(at.tolist(), s.node_load[at].tolist()))
    return RunView(
        links, hop, node, dest,
        [1] * len(fl) if s.subtree is None else s.subtree.tolist(),
        [] if s.fc is None else list(s.fc.escape_at.values()),
        np.flatnonzero(s.arrived >= 0).tolist(),
        [] if s.parent is None else np.flatnonzero(s.parent >= 0).tolist(),
        int(s.roots.size),
        [] if s.spawn is None else [i for part in s.spawn.spawned for i in part.tolist()],
        s.remaining, last, load, s.arr_log,
    )  # fmt: skip


def scalar(s) -> RunView:
    """A scalar-lane :class:`~repro.routing.fast_scalar.ScalarRun`'s view
    between two admissions; raises ``waiters`` for a ``waiting`` list
    that is empty or has no head, and ``chain`` for a packet whose next
    slot's key is not its link's.  A link is named by its head's next
    hop (``(None, key)`` if the head has none)."""
    active, waiting, fl, key, prio = s.active, s.waiting, s.fl, s.key, s.prio
    for k, w in waiting.items():
        if k not in active or not w:
            raise RunInvariantError("waiters", f"link {k} has waiters {w} and head {active.get(k)}")
    fl_base = np.asarray(s.fl_base, dtype=np.int64)
    hop, last, node, nxt, dest = _itineraries(s.paths, fl_base, fl, s.fl_last)
    links = []
    for k, h in active.items():
        chain = [h, *waiting.get(k, ())]
        for i in chain:
            if nxt[i] is not None and key[fl[i]] != k:
                raise RunInvariantError("chain", f"packet {i} waits on link {k}, not its next hop")
        ranks = [0 if prio is None or nxt[i] is None else prio[fl[i]] for i in chain]
        links.append((nxt[h] or (None, k), list(zip(chain, ranks))))
    return RunView(
        links, hop, node, dest, list(s.subtree), [],
        [i for i, step in enumerate(s.arrived) if step >= 0],
        sorted(s.absorbed), int(s.roots.size), list(s.spawned), s.remaining,
        last, None, s.log,
    )  # fmt: skip


def check(view: RunView, t: int | None = None, in_flight=()) -> None:
    """Raise :class:`RunInvariantError` unless *view* is a state a run
    can leave between two of its phases.  *in_flight* are the packets a
    transmission sent and no arrival phase has placed yet; *t* is the
    step the run is at (omitted: any).

    * ``cursor``: every packet's hop lies in ``[0, last hop]``;
    * ``chain``: a queued packet is queued once, on a link that leaves
      its node, and not past its last hop; along a link, rank never
      rises;
    * ``node_load``: each node's load is the packets queued on its
      out-links;
    * ``arrival_log``: no slot is logged after *t*, a queued packet's
      slot is logged, and the logged steps rise along a packet's slots;
    * ``conservation``: queued, in flight, in an escape buffer,
      delivered and absorbed are disjoint; a packet is delivered only
      at its exit node and last hop; a packet that moved, or was
      spawned, is in one of them, and so — once *t* is named, that is
      after the step-0 admission — is every root; ``remaining`` is the
      weight of the live packets plus the roots not yet injected.

    The fast lanes' producers also check each queued packet's link id
    against its path's next slot; the reference engine keeps no
    itinerary, so there a packet's link is checked only to leave its
    node.  The known blind spot: equal ranks are served in push order,
    which no layout records, so a tie served out of push order passes.
    """
    hop, node = np.asarray(view.hop, dtype=np.int64), view.node
    last = None if view.last is None else np.asarray(view.last, dtype=np.int64)
    off = np.flatnonzero((hop < 0) if last is None else (hop < 0) | (hop > last))
    if off.size:
        raise RunInvariantError("cursor", f"packet {off[0]} has its hop cursor off its path")
    where: dict[int, object] = {}  # queued packet -> its link
    for link, members in view.links:
        top = members[0][1] if members else None
        for i, rank in members:
            if i in where:
                raise RunInvariantError("chain", f"packet {i} is queued on {where[i]} and {link}")
            if rank > top:
                raise RunInvariantError("chain", f"link {link} is out of service order: {members}")
            where[i] = link
            top = rank
    queued = np.fromiter(where, dtype=np.int64, count=len(where))
    done = [] if last is None else queued[hop[queued] >= last[queued]]
    if len(done):
        raise RunInvariantError("chain", f"packet {done[0]} waits past its last hop")
    for i, link in where.items():
        if link[0] != node[i]:
            raise RunInvariantError(
                "chain", f"packet {i} at node {node[i]} waits on link {link}, not its next hop"
            )
    if view.node_load is not None:
        load: dict = {}
        for link, members in view.links:
            load[link[0]] = load.get(link[0], 0) + len(members)
        for u in {**view.node_load, **load}:
            if view.node_load.get(u, 0) != load.get(u, 0):
                raise RunInvariantError(
                    "node_load", f"node {u}'s load is not the packets queued on its out-links"
                )
    if view.log is not None:
        _check_log(np.asarray(view.log, dtype=np.int64), hop, last, queued, t)
    _check_conservation(view, hop, last, queued, t, in_flight)


def _check_log(log, hop, last, queued, t: int | None) -> None:
    """:func:`check`'s ``arrival_log`` clause."""
    base = np.cumsum(last) - last  # row i's slots follow row i - 1's
    late = np.flatnonzero(log > t) if t is not None else []
    if len(late):
        i = np.searchsorted(base, late[0], side="right") - 1
        raise RunInvariantError("arrival_log", f"packet {i} logged a hop after step {t}")
    unlogged = queued[log[base[queued] + hop[queued]] < 0]
    if unlogged.size:
        raise RunInvariantError("arrival_log", f"packet {unlogged[0]} waits unlogged")
    reach = np.minimum(hop + 1, last)  # the slots passed or sat on
    rows = np.repeat(np.arange(reach.size, dtype=np.int64), reach)
    steps = log[base[rows] + segment_index(reach)]
    rows, steps = rows[steps >= 0], steps[steps >= 0]
    back = rows[:-1][(rows[1:] == rows[:-1]) & (steps[1:] <= steps[:-1])]
    if back.size:
        raise RunInvariantError("arrival_log", f"packet {back[0]}'s logged steps do not rise")


def _check_conservation(view: RunView, hop, last, queued, t: int | None, in_flight) -> None:
    """:func:`check`'s ``conservation`` clause."""
    ids = np.int64
    live = np.concatenate(
        [queued, np.asarray(in_flight, dtype=ids).reshape(-1), np.asarray(view.escape, dtype=ids)]
    )
    delivered = np.asarray(view.delivered, dtype=ids)
    claims = [live, delivered, np.asarray(view.absorbed, dtype=ids)]
    state = np.bincount(np.concatenate(claims), minlength=hop.size)
    twice = np.flatnonzero(state > 1)
    if twice.size:
        raise RunInvariantError("conservation", f"packet {twice[0]} is in two states at once")
    if last is None:  # no itineraries: delivery is at the exit node
        for i in view.delivered:
            at, dest = _plain(view.node[i]), _plain(view.dest[i])
            if at != dest:
                form = "" if type(at) is type(dest) else ", a key of another form"
                raise RunInvariantError(
                    "conservation", f"packet {i} delivered before its last hop: at "
                    f"node {at!r}, its exit node {dest!r}{form}"
                )  # fmt: skip
    else:
        early = delivered[hop[delivered] != last[delivered]]
        if early.size:
            raise RunInvariantError(
                "conservation", f"packet {early[0]} delivered before its last hop"
            )
    moved = np.flatnonzero((hop != 0) & (state == 0))
    if moved.size:
        raise RunInvariantError("conservation", f"packet {moved[0]} moved but is in no state")
    spawned = np.asarray(view.spawned, dtype=ids)
    lost = spawned[state[spawned] == 0]
    if lost.size:
        raise RunInvariantError("conservation", f"spawned packet {lost[0]} is in no state")
    unborn = np.flatnonzero(state[: view.roots] == 0)
    if t is not None and unborn.size:
        raise RunInvariantError(
            "conservation", f"root {unborn[0]} is neither queued, in flight, delivered nor "
            f"absorbed at step {t}: the step-0 admission lost it"
        )  # fmt: skip
    weight = int(np.asarray(view.weight, dtype=ids)[live].sum())
    if view.remaining != weight + unborn.size:
        raise RunInvariantError(
            "conservation", f"remaining {view.remaining}, but {weight} live (absorbed "
            f"subtrees included) + {unborn.size} roots not yet injected"
        )  # fmt: skip


def _plain(key):
    """A node key as plain Python values, tuples element by element: a
    numpy scalar compares with a tuple by broadcasting, not as one key
    against another."""
    if isinstance(key, tuple):
        return tuple(map(_plain, key))
    return key.item() if isinstance(key, np.generic) else key
