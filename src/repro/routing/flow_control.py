"""Credit-based O(1)-queue flow control (Corollary 3.3's protocol layer).

The plain ``node_capacity`` backpressure of §3.4 / [6] bounds every
node's resident packets by c, but it can *wedge*: two nodes full of
packets crossing in opposite directions each wait for the other to free
a slot, and the whole network stalls forever (both engines reproduce the
wedge exactly; see ``tests/test_backpressure.py``).  Corollary 3.3
nevertheless promises PRAM emulation with constant-size queues, which is
only realizable if the constant-queue discipline is *deadlock-free*.
This module supplies that discipline, shared by the reference
:class:`~repro.routing.engine.SynchronousEngine` and the compiled
:class:`~repro.routing.fast_engine.FastPathEngine`:

Credits
-------
A node w with capacity c holds a pool of c buffer credits.  A link
transmission into w consumes one credit (the engines implement the pool
as ``node_load[w] + reserved[w] < c``: resident packets plus the slots
claimed earlier in the same step).  A credit returns to the pool the
moment a packet *dequeues* from w — w forwarding a packet downstream
within the same synchronous step already frees the slot for a later
upstream link, so credits circulate at full rate.  Heads that exit the
network at the link's target are exempt (a delivered packet occupies no
queue space).  This is exactly the reserve-as-you-transmit discipline
introduced in PR 2; ``flow_control="credit"`` keeps it as the *bulk*
class and adds an escape class on top.

Escape channel
--------------
Every directed link carries one dedicated single-packet **escape
buffer** at its receiving end — a constant per-node overhead of
in-degree extra slots (≤ 4 on a mesh, ≤ d on a leveled network), i.e.
still the O(1) of Corollary 3.3; the bulk pool stays capped at
``node_capacity`` and ``max_node_load`` never counts escape occupants.
The head of a credit-starved bulk queue may advance into the escape
buffer of the link it crosses; an escape occupant advances along its
route each step — back into a bulk slot when a credit is free, else
into the next link's escape buffer — and escape occupants have absolute
priority on their next link.

Invariants
----------
I1 (bounded residency)
    Network *arrivals* never push a node's resident bulk packets above
    ``node_capacity``: bulk arrivals reserve credits during the
    transmission phase, escape arrivals occupy only their link's
    dedicated buffer.  Injection is outside the protocol (a source that
    injects k packets at step 0 holds k from then on — the injection
    backlog is the PRAM processor's own buffer, not a routing queue),
    so ``max_node_load <= node_capacity`` holds end to end exactly when
    no node injects more than ``node_capacity`` packets, as in all
    one-request-per-processor workloads.
I2 (credit conservation)
    A node's outstanding credits equal capacity minus resident bulk
    packets; every consume (transmit into bulk) is paired with a return
    (dequeue out of bulk), so credits are neither minted nor leaked.
I3 (escape acyclicity)
    All shipped route families traverse links in strictly increasing
    *rank* — dimension order for greedy mesh / linear / hypercube
    routes, (stage, direction, coordinate) for the 3-stage mesh
    algorithm, (pass, level) for leveled networks — so an escape
    occupant only ever waits on escape buffers of strictly larger rank:
    the escape channel-dependency graph is acyclic.
I4 (liveness)
    In any reachable configuration with waiting packets, at least one
    packet moves per step: the maximal-rank escape occupant can always
    advance (I3), and if no escape buffer is occupied, any blocked bulk
    head can enter its link's (free) escape buffer.  Hence credit runs
    on rank-monotone routes never deadlock and finish within the total
    hop count.

Routes that are *not* rank-monotone (an adaptive policy doubling back,
a custom topology with cyclic greedy paths) void I3; the engines'
deadlock detector then raises :class:`DeadlockError` — a no-progress
step with nonempty queues is reported as a diagnostic instead of
spinning to ``max_steps``.

Both engines keep their per-run escape state in a :class:`CreditState`
(link keys are ``(u, w)`` node-key pairs in the reference engine and
dense interned link indices in the fast engine — a 1:1 correspondence,
which is what makes the two implementations bit-for-bit identical under
a fixed seed).  Stalls and escape traversals are surfaced as the
``credits_stalled`` / ``escape_hops`` counters on
:class:`~repro.routing.metrics.RoutingStats`.
"""

from __future__ import annotations

from typing import Hashable

FLOW_CONTROL_MODES = ("none", "credit")


def resolve_flow_control(
    mode: str,
    *,
    node_capacity: int | None = None,
    node_service_rate: int | None = None,
) -> str:
    """Validate a flow-control request against the engine configuration.

    ``"credit"`` needs ``node_capacity`` (credits are buffer slots — an
    unbounded node has nothing to grant) and is not defined together
    with ``node_service_rate`` (the serialized-departure model has its
    own arbitration; no shipped configuration combines them).
    """
    if mode not in FLOW_CONTROL_MODES:
        raise ValueError(
            f"unknown flow_control mode {mode!r}; pick one of {FLOW_CONTROL_MODES}"
        )
    if mode == "credit":
        if node_capacity is None:
            raise ValueError("flow_control='credit' requires node_capacity")
        if node_service_rate is not None:
            raise ValueError(
                "flow_control='credit' is not supported with node_service_rate"
            )
    return mode


class DeadlockError(RuntimeError):
    """A routing step made no progress while packets were still queued.

    Raised by both engines in place of spinning to ``max_steps``: with
    no arrivals and no link held by a fault, the network state is
    provably static forever (every packet entered at step 0, and a
    capacity run spawns none).  ``stats`` carries the run's
    :class:`~repro.routing.metrics.RoutingStats` at the moment of
    detection (``completed`` is False; the reference engine's packets
    keep their positions, so the blocked packets can be inspected).

    When an :class:`~repro.obs.Observer` with a flight recorder was
    attached to the raising engine, ``flight_tail`` holds the last-K
    recorded step events leading up to the deadlock (oldest first);
    without one it stays ``()``.
    """

    #: flight-recorder tail at raise time (see repro.obs.FlightRecorder)
    flight_tail: tuple = ()

    def __init__(self, stats, detail: str = "") -> None:
        msg = f"routing deadlocked: {stats}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)
        self.stats = stats


class EscapeDoubleBookedError(RuntimeError):
    """An escape buffer was booked twice: :meth:`CreditState.occupy`
    found *link*'s buffer held by *occupant* when *incoming* claimed it.
    The engines allow one transmission per link per step, so this is a
    protocol bug, terminal; the standing booking is left as it was."""

    def __init__(self, link: Hashable, occupant, incoming) -> None:
        super().__init__(
            f"escape buffer of link {link!r} double-booked: held by "
            f"{occupant!r}, claimed again by {incoming!r}"
        )
        self.link = link
        self.occupant = occupant
        self.incoming = incoming


def no_progress_detail(t: int, remaining: int, queued_links: int) -> str:
    """Shared diagnostic line for a detected no-progress step.

    Used by the reference engine and both fast-engine modes so a
    :class:`DeadlockError` reads the same whichever simulator raised it.
    """
    return (
        f"no progress at t={t} with {remaining} packets queued "
        f"over {queued_links} links"
    )


class CreditState:
    """Per-run escape-buffer state shared by both engines.

    ``escape_at`` maps an occupied link (its escape buffer sits at the
    link's receiving node) to the occupant — a :class:`Packet` in the
    reference engine, a packet index in the fast engine.  Dict insertion
    order *is* the occupancy order, which both engines use as the escape
    subphase's iteration order (occupancies are created by ``place``
    calls, whose order the engines already keep identical).
    ``escape_next`` maps the same link to the occupant's next link.
    """

    __slots__ = ("escape_at", "escape_next", "credits_stalled", "escape_hops")

    def __init__(self) -> None:
        self.escape_at: dict[Hashable, object] = {}
        self.escape_next: dict[Hashable, Hashable] = {}
        self.credits_stalled = 0
        self.escape_hops = 0

    def available(self, link: Hashable) -> bool:
        """Whether *link*'s escape buffer is unoccupied.

        This alone does not rule out a same-step double booking — that
        guard lives in the engines: a claim is always tied to a
        transmission across the buffer's link, the engines' ``used``
        sets allow one transmission per link per step, and they check
        ``used`` before ever consulting this method.  :meth:`occupy`
        still verifies the invariant at place time.
        """
        return link not in self.escape_at

    def claim(self, link: Hashable) -> None:
        """Count an escape traversal of *link*.

        Pure accounting — the occupancy itself lands at place time via
        :meth:`occupy`; see :meth:`available` for why no claim record
        is needed in between.
        """
        self.escape_hops += 1

    def occupy(self, link: Hashable, occupant, next_link: Hashable) -> None:
        if link in self.escape_at:
            raise EscapeDoubleBookedError(link, self.escape_at[link], occupant)
        self.escape_at[link] = occupant
        self.escape_next[link] = next_link

    def vacate(self, link: Hashable) -> None:
        del self.escape_at[link]
        del self.escape_next[link]

    def stall(self) -> None:
        self.credits_stalled += 1
