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

A request run on the reference engine has everything needed: every
packet records its ``trace``.  Replies carry no address, so they never
combine.
"""

from __future__ import annotations

from typing import Hashable

from repro.routing.fast_engine import FastPathEngine, RunArrays
from repro.routing.fast_phases import MergeNodeMissingError, Replies
from repro.routing.metrics import RoutingStats
from repro.routing.packet import Packet

__all__ = [
    "MergeNodeMissingError",
    "ReplySpawner",
    "build_replies",
    "make_reply",
    "reply_next_hop",
    "reverse_path_of",
    "route_replies_fast",
]


def reverse_path_of(request: Packet) -> list[Hashable]:
    """Remaining reply path for *request*: its trace reversed, excluding
    the node the reply starts at (= the trace's last entry)."""
    return list(reversed(request.trace))[1:]


def make_reply(request: Packet, pid: int) -> Packet:
    """Build the reply packet for a delivered (host) request packet.

    The reply's ``state`` is ``(path, index, request)``: the reverse path
    to walk, the current position, and the originating request (for
    locating children).  ``dest`` is the requester's source node.  It
    has no address: replies never combine.
    """
    reply = Packet(pid, request.node, request.source)
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
    born where the child was merged.
    The fast engine replays the same rule off static trigger tables
    (:func:`route_replies_fast`); ``tests/test_reply_phase.py`` and
    ``tests/test_reply_lists.py`` hold the two together.
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

    def _spawn(self, child: Packet, here) -> Packet:
        child_reply = make_reply(child, self._fresh_pid())
        child_reply.node = here
        self._done.add(child.pid)
        return child_reply

    def __call__(self, reply: Packet):
        return self.spawn_at(reply, reply.node) or None

    def spawn_at(self, reply: Packet, here) -> "list[Packet]":
        """Child replies to inject at node *here*."""
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
                out.append(self._spawn(child, here))
        return out


def build_replies(hosts: list[Packet]) -> list[Packet]:
    """Reply packets for delivered hosts, numbered in host order."""
    return [make_reply(host, i) for i, host in enumerate(hosts)]


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
    for hosts, absorption for combined children — the absorptions in
    the order they happened, and the queue key of every hop.  *host_rows*
    names the delivered read hosts (rows of that population) in host
    order.  The engine is handed them as one
    :class:`~repro.routing.fast_phases.Replies` population: the
    combining forest below the hosts, breadth first, each reply its
    request's path in reverse up to the hop it stopped at, and each
    child's reply spawned where its parent's reply first reaches the
    child's absorption node — exactly where :class:`ReplySpawner` would
    fire.  No trace keys are encoded or decoded, and the replies exist
    only as rows.

    The engine lays the population out on the lane its size chooses.  A
    small one goes straight into the scalar lane's lists from the
    request run's own tables: the forest by a queue walk of the
    absorption lists, each reply's queue keys as its request's reversed
    — the link ids of a vector-lane or mesh request, the ``(src, dst)``
    codes a scalar-lane request keyed its hops by — and the spawn
    triggers as the lists :class:`~repro.routing.fast_phases.SpawnTables`
    fires from (:func:`repro.routing.fast_scalar.reply_run`).  A larger
    one is laid out in arrays (:func:`repro.routing.fast_phases.reply_layout`):
    reversed itineraries in one gather, the request run's link ids
    inherited with the endpoint tables swapped, and the triggers grouped
    by one stable sort.  Both builders fill the same
    :class:`~repro.routing.fast_phases.SpawnTables` and neither output is
    checked again: it is made from a finished run's own arrays.
    Either way a merge node missing from its parent's reverse path is a
    :class:`MergeNodeMissingError`, and replies whose trigger never
    fires (parent timed out) are excluded from the stats just as if they
    had never been spawned.
    """
    return FastPathEngine(observer=observer).run(
        Replies(requests, host_rows), num_nodes=num_nodes, max_steps=budget
    )
