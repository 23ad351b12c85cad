"""Reply fan-out along combining trees (Theorem 2.6, footnote 3).

When concurrent requests to the same address are combined on the way to
the memory module, the single reply must fan back out so that *every*
requesting processor receives its value.  The paper stores "log d
direction bits" at each merge; we keep the equivalent information as the
absorbed packets' traversed prefixes.

Given a delivered request packet (the *host*, carrying its combining tree)
this module builds the reply packets and the spawn rule:

* the host's reply walks the host's path in reverse;
* when a reply reaches the node where a child was absorbed, the child's
  reply is spawned there and walks the child's own prefix in reverse;
* recursively for children of children.

Requests routed with ``track_paths=True`` have everything needed.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.routing.fast_engine import FastPathEngine, RunArrays
from repro.routing.metrics import RoutingStats
from repro.routing.packet import Packet
from repro.topology.compiled import FlatPaths, segment_index


def reverse_path_of(request: Packet) -> list[Hashable]:
    """Remaining reply path for *request*: its trace reversed, excluding
    the node the reply starts at (= the trace's last entry)."""
    if request.trace is None:
        raise ValueError(
            f"packet {request.pid} has no trace; route requests with "
            "track_paths=True to enable reply fan-out"
        )
    return list(reversed(request.trace))[1:]


def make_reply(request: Packet, pid: int, value=None) -> Packet:
    """Build the reply packet for a delivered (host) request packet.

    The reply's ``state`` is ``(path, index, request)``: the reverse path
    to walk, the current position, and the originating request (for
    locating children).  ``dest`` is the requester's source node.
    """
    reply = Packet(
        pid,
        request.node,
        request.source,
        kind="reply",
        address=request.address,
        payload=value,
    )
    reply.state = (reverse_path_of(request), 0, request)
    return reply


def reply_next_hop(reply: Packet):
    """Engine next-hop policy: follow the stored reverse path."""
    path, idx, request = reply.state
    if idx >= len(path):
        return None
    reply.state = (path, idx + 1, request)
    return path[idx]


class ReplySpawner:
    """``on_arrival`` hook spawning child replies at merge points.

    The reference engine's spawn rule — every absorbed child's reply is
    born where the child was merged, carrying the parent reply's value.
    The fast engine replays the same rule off a static array plan
    (:func:`route_replies_fast`); ``tests/test_reply_phase.py`` holds
    the two together.
    """

    def __init__(self) -> None:
        self._next_pid = 10_000_000  # disjoint from request pids
        self._done: set[int] = set()  # child request pids already spawned

    @staticmethod
    def _merge_key(child: Packet):
        """Where *child*'s reply must spawn: its absorption node."""
        return child.trace[-1] if child.trace else None

    def _fresh_pid(self) -> int:
        self._next_pid += 1
        return self._next_pid

    def _spawn(self, child: Packet, here, payload) -> Packet:
        child_reply = make_reply(child, self._fresh_pid(), payload)
        child_reply.node = here
        self._done.add(child.pid)
        return child_reply

    def __call__(self, reply: Packet):
        return self.spawn_at(reply, reply.node) or None

    def spawn_at(self, reply: Packet, here) -> "list[Packet]":
        """Child replies to inject at node *here*."""
        if reply.kind != "reply":
            return []
        request = reply.state[2]
        children = request.children
        if not children:
            return []
        out = []
        for child in children:
            # A mesh reply may revisit a node (stage-0/stage-2 overlap in
            # the same column), so guard against double-spawning.
            if child.pid in self._done:
                continue
            if self._merge_key(child) == here:
                out.append(self._spawn(child, here, reply.payload))
        return out


def build_replies(hosts: list[Packet], values: dict[int, object]):
    """Reply packets for delivered hosts; values keyed by host pid."""
    return [make_reply(host, i, values.get(host.pid)) for i, host in enumerate(hosts)]


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


def route_replies_fast(
    requests: RunArrays,
    host_rows,
    *,
    budget: int,
    num_nodes: int,
    observer=None,
) -> RoutingStats:
    """Run the reply fan-out on the compiled fast engine.

    Shared by the leveled and mesh emulators.  *requests* is what the
    fast request run left behind (:attr:`FastPathEngine.last_arrays`):
    compiled integer paths, the hop each request stopped at — delivery
    for hosts, absorption for combined children — and the absorptions
    in the order they happened.  *host_rows* names the delivered read
    hosts (rows of that population) in host order.  A reply's itinerary
    is its request's path in reverse up to that hop, so no trace keys
    are encoded or decoded, and the replies themselves exist only as
    rows: the engine routes them as an anonymous population.

    The whole combining forest is laid out up front, breadth first —
    roots in host order, then level by level every absorbed request's
    reply, the children of one request in absorption order
    (:class:`ReplySpawner`'s order; it fixes the order of the stats'
    ``delays`` / ``hops``) — together with the reverse itineraries, each
    exactly as long as its request got, and the *spawn plan*: a child
    reply activates when its parent reply first reaches the child's
    absorption node, which is a static property of the compiled paths
    (the **first** occurrence of the merge node on the parent's reverse
    path — mesh same-column routes revisit nodes — exactly where
    :class:`ReplySpawner` would fire).  That keeps the entire reply
    phase on the engine's vectorized batch mode; replies whose trigger
    never fires (parent timed out) are excluded from the stats just as
    if they had never been spawned.

    The reply run interns nothing: hop k of a reply crosses link
    ``hops - 1 - k`` of its request the other way, so it keeps that
    link's id (:attr:`RunArrays.links`) — one gather, whatever the
    encoding, mesh and leveled alike — with the endpoint tables swapped.
    A scalar-lane request run that was handed no ids leaves none; its
    reply run, no larger, is on the scalar lane too and keys its own
    hops by their ``(src, dst)`` codes.
    No (replies x longest path) matrix is built: every gather runs over
    the positions the requests really visited.
    """
    roots = np.asarray(host_rows, dtype=np.int64)
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
    rows = np.concatenate(levels)
    hops = requests.hops[rows]
    # reply j is row rows[j] of the requests read from hop hops[j] back
    # to its start, each reply exactly its length: its flat entry p is
    # request entry start + hops - (p - offsets[j]), one gather
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    (hops + 1).cumsum(out=offsets[1:])
    at = np.arange(offsets[-1], dtype=np.int64)
    start = requests.paths.offsets[rows]
    nodes = requests.paths.nodes[(start + hops + offsets[:-1]).repeat(hops + 1) - at]
    paths = FlatPaths(nodes, offsets)
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

    spawn_plan = None
    if level_parents:
        par = np.concatenate(level_parents)
        child = np.arange(roots.size, rows.size, dtype=np.int64)
        # a child reply starts at the node its request was absorbed at;
        # it spawns at the first position of its parent's reply there,
        # found over the parent's real positions only
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
        spawn_plan = (par, qpos, child)

    return FastPathEngine(observer=observer).run(
        paths,
        num_nodes=num_nodes,
        max_steps=budget,
        links=links,
        spawn_plan=spawn_plan,
    )
