"""Synchronous store-and-forward routing engine.

This is the machine model of §2.2.1 made executable:

* time advances in unit steps;
* each directed link transmits **one** packet per step (a node drives all
  of its out-links simultaneously — the MIMD model of §3.1);
* packets wait in per-link output queues; the queue discipline arbitrates
  contention (FIFO for Theorems 2.1-2.4, furthest-destination-first for
  §3.4);
* *routing time* is the step at which the last packet arrives; *delay* is
  time waited in queues; *queue size* is tracked both per link (the
  theorems' "queue needed for each link") and per node (§2.2.1's
  definition of queue size).

The engine is topology-agnostic: a routing algorithm is just a
``next_hop(packet) -> node-key | None`` policy.  Node keys are arbitrary
hashables to the engine; the routers of this package all use plain ints
(a leveled network's are the position-encoded ids of
:mod:`repro.topology.compiled`).  ``packet.dest`` is the key of the node
the packet exits at, which the capacity exemption compares with targets.

The rules
---------
A run's state is one :class:`ReferenceRun`; each rule is a module
function over it, named after its twin in :mod:`repro.routing.fast_phases`,
and :meth:`SynchronousEngine.run` is a step loop over them:

* :func:`inject` places the population at step 0 (every packet enters
  then; only ``on_arrival`` adds packets later);
  :func:`check_drained` raises :class:`NetworkDrainedError` when packets
  are owed but nothing is queued or buffered;
* :func:`start_step` clears the arrival slots and samples the link faults;
* :func:`transmit_unconstrained`: every active link sends its head;
* :func:`transmit_constrained`: node-capacity backpressure (§3.4 /
  Corollary 3.3, à la [6]).  A link that transmits toward a node
  reserves one of its arrival slots for the step, so a node never holds
  more than ``node_capacity`` packets, however many in-links it has; a
  head that exits at the target is exempt (:func:`stalled`).  With
  ``flow_control="credit"`` (:mod:`repro.routing.flow_control`) the
  escape subphase :func:`advance_escapes` runs first and a
  credit-starved head takes its link's escape buffer: deadlock-free on
  rank-monotone routes;
* :func:`transmit_serialized`: under ``node_service_rate`` a node sends
  from that many links a step, longest queue first;
* :func:`held` is the one fault-blocked check, :func:`transmit` the one
  pop-and-advance, that every transmission rule calls;
* :func:`no_progress`: a step that moved nothing, with no link held by
  a fault, raises :class:`DeadlockError`;
* :func:`place` appends the node to the packet's ``trace``, places what
  ``on_arrival`` spawns, and delivers it (:func:`deliver`), lands it in
  its escape buffer, or enqueues it (:func:`enqueue`), where
  :func:`absorb` combines it if it has a ``combine_key`` (Theorem 2.6,
  "combined into one packet in one unit time").

Reference engine vs. fast path
------------------------------
This module is the **reference** engine: maximally general (arbitrary
hashable node keys, dynamic ``next_hop`` policies, backpressure, service
rates, ``on_arrival`` injection) and written for readability.  The
**fast path** (:mod:`repro.routing.fast_engine`) replays the very same
queue dynamics on precompiled integer trajectories, step for step under
a fixed seed; routers pick it when their configuration allows.  Force an
engine with a router's ``engine=`` argument, or via ``REPRO_ENGINE``.

Transmission order is deterministic: active links transmit in the order
they last became active (insertion order), never in hash order, so runs
reproduce exactly across processes and interpreter builds.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Hashable, Optional, Sequence

from repro.obs.clock import wall_time
from repro.routing.flow_control import (
    CreditState,
    DeadlockError,
    no_progress_detail,
    resolve_flow_control,
)
from repro.routing.metrics import RoutingStats, stats_from_arrays
from repro.routing.packet import Packet, packet_outcomes
from repro.routing.queues import LinkQueue, fifo_factory

NextHop = Callable[[Packet], Optional[Hashable]]
Link = tuple[Hashable, Hashable]


class RoutingTimeout(RuntimeError):
    """A run exceeded its step budget; raised over its stats by callers
    that need every packet delivered (the engines only return them)."""

    def __init__(self, stats: RoutingStats) -> None:
        super().__init__(f"routing did not complete: {stats}")
        self.stats = stats


class NetworkDrainedError(RuntimeError):
    """Packets are still owed but nothing is queued or buffered.

    Raised by both engines at step ``t`` when ``remaining`` packets are
    undelivered while no link holds a packet and no escape buffer is
    occupied — the run's bookkeeping is inconsistent (e.g. a packet
    routed again without resetting its ``arrived_at``), so spinning to
    ``max_steps`` would only hide it.
    ``flight_tail`` holds the observer's flight-recorder tail when the
    raising engine had one, ``()`` otherwise.
    """

    def __init__(self, remaining: int, t: int, observer=None) -> None:
        super().__init__(
            f"{remaining} packets undeliverable: network drained at t={t}"
        )
        self.remaining = remaining
        self.t = t
        self.flight_tail: tuple = (
            observer.flight_tail() if observer is not None else ()
        )


class SynchronousEngine:
    """Reusable synchronous router.

    Parameters
    ----------
    queue_factory:
        Zero-argument callable building a fresh :class:`LinkQueue` per
        link (default FIFO).
    node_capacity:
        If set, a node refuses new arrivals beyond this many resident
        packets: upstream links stall (backpressure, see
        :func:`transmit_constrained`).  Models the O(1) queue variants
        of §3.4 / [6].
    node_service_rate:
        If set, a node sends from at most this many of its out-links per
        step (:func:`transmit_serialized`).
    flow_control:
        ``"none"`` (default) is plain backpressure; ``"credit"`` adds
        the deadlock-free escape channel of
        :mod:`repro.routing.flow_control` (requires ``node_capacity``).
    observer:
        Optional :class:`repro.obs.Observer`.  When it carries a
        :class:`~repro.obs.PhaseProfile`, the step loop accumulates
        per-phase wall time (transmission / arrival / escape /
        combining) and each run is attributed to the ``"reference"``
        dispatch mode; when it carries a flight recorder, per-step
        events are recorded and a :class:`DeadlockError` leaves with
        the recorder's tail attached.  Wall-clock values are recorded,
        never branched on, so routing results are bit-identical with
        and without an observer.
    """

    def __init__(
        self,
        *,
        queue_factory: Callable[[], LinkQueue] = fifo_factory,
        node_capacity: int | None = None,
        node_service_rate: int | None = None,
        flow_control: str = "none",
        observer=None,
    ) -> None:
        self.queue_factory = queue_factory
        self.node_capacity = node_capacity
        self.node_service_rate = node_service_rate
        self.flow_control = resolve_flow_control(
            flow_control,
            node_capacity=node_capacity,
            node_service_rate=node_service_rate,
        )
        self.observer = observer

    def run(
        self,
        packets: Sequence[Packet],
        next_hop: NextHop,
        *,
        max_steps: int,
        on_arrival: Callable[[Packet], "list[Packet] | None"] | None = None,
        link_faults=None,
        fault_base: int = 0,
    ) -> RoutingStats:
        """Route *packets*, all injected at their ``node`` at step 0,
        until all are delivered or *max_steps* elapse.

        Every visited node key is recorded in ``packet.trace`` (what a
        reply walks back), and packets sharing a ``combine_key`` merge
        when one is enqueued behind the other: a run combines exactly
        when its packets carry addresses.

        ``on_arrival(p)``, if given, runs at every node *p* reaches and may
        return new packets to inject there immediately (their ``node`` must
        equal ``p.node``).  This implements reply fan-out along combining
        trees: a reply that reaches a merge point spawns the replies of the
        packets absorbed there (Theorem 2.6's direction bits).

        ``link_faults`` is an optional
        :class:`~repro.faults.runtime.LinkFaultView` whose keys are this
        run's ``(u, w)`` link keys: a blocked link holds its queue (and
        any escape occupant crossing it) exactly like a zero-credit
        link, counted in ``fault_stalls``.  Blocked states are sampled
        at the *global* virtual step ``fault_base + t``, so a multi-run
        emulation step sees one consistent timeline.
        """
        r = ReferenceRun(self, packets, next_hop, on_arrival, link_faults, fault_base)
        obs = self.observer
        prof = r.prof
        rec = obs.recorder if obs is not None else None
        run0 = wall_time() if prof is not None else 0.0
        transmission = transmit_serialized if r.service_rate is not None else (
            transmit_constrained if r.capacity is not None else transmit_unconstrained)
        inject(r)
        t = 0
        deadlocked = False
        while r.remaining > 0 and t < max_steps:
            check_drained(r, t)

            # Phase 1: every active link sends one packet (escape time booked apart)
            tx0 = wall_time() if prof is not None else 0.0
            esc0 = prof.phase_total("escape") if prof is not None else 0.0
            stalls0 = r.fault_stalls
            start_step(r, t)
            arrivals = transmission(r)
            if prof is not None:
                esc_dt = prof.phase_total("escape") - esc0
                prof.add_phase("transmission", wall_time() - tx0 - esc_dt)
            if rec is not None:
                rec.record(
                    "engine_step", virtual_clock=t, arrivals=len(arrivals),
                    active_links=len(r.active), remaining=r.remaining,
                    fault_stalls=r.fault_stalls,
                )  # fmt: skip
            if no_progress(r, arrivals, stalls0):
                deadlocked = True
                break
            t += 1

            # Phase 2: every arrival is placed (combine lookups booked apart)
            a0 = wall_time() if prof is not None else 0.0
            c0 = prof.phase_total("combining") if prof is not None else 0.0
            for p in arrivals:
                place(r, p, t)
            if prof is not None:
                c_dt = prof.phase_total("combining") - c0
                prof.add_phase("arrival", wall_time() - a0 - c_dt)

        fc = r.fc or CreditState()  # a run without credits stalls and escapes none
        stats = stats_from_arrays(
            *packet_outcomes(r.all_packets),
            steps=t, max_queue=r.max_queue, completed=r.remaining == 0,
            combines=r.combines, max_node_load=r.max_node_load,
            credits_stalled=fc.credits_stalled, escape_hops=fc.escape_hops,
            fault_stalls=r.fault_stalls, run_mode="reference",
        )  # fmt: skip
        if prof is not None:
            prof.add_mode("reference", wall_time() - run0)
        if deadlocked:
            err = DeadlockError(
                stats, detail=no_progress_detail(t, r.remaining, len(r.active))
            )
            if obs is not None:
                err.flight_tail = obs.flight_tail()
            raise err
        return stats


class ReferenceRun:
    """The state of one :meth:`SynchronousEngine.run`, which the rules
    read and write.  ``active``: the links with queued packets, an
    insertion-ordered dict — a set would make transmission order, and so
    RNG use, combining and service-rate ties, depend on hash order.
    ``pending_escape``: packet → the link it crossed into that link's
    escape buffer, until :func:`place` lands it.  ``blocked`` (links
    down) and ``reserved`` (arrival slots claimed per node) hold for the
    current step."""

    def __init__(self, engine: SynchronousEngine, packets: Sequence[Packet], next_hop: NextHop,
                 on_arrival=None, link_faults=None, fault_base: int = 0) -> None:  # fmt: skip
        self.queue_factory = engine.queue_factory
        self.capacity = engine.node_capacity
        self.service_rate = engine.node_service_rate
        self.observer = engine.observer
        self.prof = engine.observer.profile if engine.observer is not None else None
        self.next_hop = next_hop
        self.on_arrival = on_arrival
        self.link_faults = link_faults
        self.fault_base = fault_base
        self.fc = CreditState() if engine.flow_control == "credit" else None
        self.queues: dict[Link, LinkQueue] = {}
        self.active: dict[Link, None] = {}
        self.node_load: dict[Hashable, int] = defaultdict(int)
        self.pending_escape: dict[Packet, Link] = {}
        self.blocked: frozenset = frozenset()
        self.reserved: dict[Hashable, int] = defaultdict(int)
        self.max_queue = self.max_node_load = self.combines = self.fault_stalls = 0
        self.all_packets = list(packets)
        self.remaining = len(self.all_packets)

    def queue_length(self, key: Link) -> int:
        """How many packets wait on link *key*."""
        return len(self.queues[key])


def inject(r: ReferenceRun) -> None:
    """Place the population at step 0, in input order."""
    for p in list(r.all_packets):
        p.injected_at = 0
        place(r, p, 0)


def check_drained(r: ReferenceRun, t: int) -> None:
    """Raise :class:`NetworkDrainedError` if no link holds a packet and
    no escape buffer is occupied."""
    if not r.active and (r.fc is None or not r.fc.escape_at):
        raise NetworkDrainedError(r.remaining, t, r.observer)


def start_step(r: ReferenceRun, t: int) -> None:
    """Open step *t*: no arrival slot is reserved yet, and the links down
    are those of the global step ``fault_base + t``."""
    r.reserved.clear()
    if r.link_faults is not None:
        static, extra = r.link_faults.parts_at(r.fault_base + t)
        r.blocked = static.union(extra) if extra else static


def held(r: ReferenceRun, key: Link) -> bool:
    """Whether link *key* is down this step: it holds its queue (or the
    escape occupant about to cross it), counted in ``fault_stalls``."""
    if r.blocked and key in r.blocked:
        r.fault_stalls += 1
        return True
    return False


def transmit(r: ReferenceRun, key: Link, reserve: bool = True) -> Packet:
    """Link *key* sends its head across and returns it; under capacity
    the head reserves a slot at the target unless it exits there or
    lands in the link's escape buffer (*reserve* false).  An emptied
    link leaves ``active``."""
    q = r.queues[key]
    p = q.pop()
    r.node_load[key[0]] -= 1
    if reserve and r.capacity is not None and p.dest != key[1]:
        r.reserved[key[1]] += 1
    p.node = key[1]
    p.hops += 1
    if not q:
        del r.active[key]
    return p


def stalled(r: ReferenceRun, key: Link) -> bool:
    """Whether capacity holds link *key*: the target's residents and reserved
    slots fill it, and the head does not exit there."""
    w = key[1]
    if r.node_load[w] + r.reserved[w] < r.capacity:
        return False
    return r.queues[key].peek().dest != w


def transmit_unconstrained(r: ReferenceRun) -> list[Packet]:
    """Every active link that is up sends its head; returns the packets
    sent, in link activation order."""
    return [transmit(r, key) for key in list(r.active) if not held(r, key)]


def advance_escapes(r: ReferenceRun) -> tuple[list[Packet], set[Link]]:
    """The escape subphase: occupants advance in occupancy order, with
    absolute priority on their next link, if they exit there, if the
    target has a slot left (back into bulk), or else into that link's
    free escape buffer (a claim in ``pending_escape``); others stall.
    Returns ``(packets moved, links used)``: a used link's head waits."""
    prof = r.prof
    t0 = wall_time() if prof is not None else 0.0
    fc = r.fc
    moved: list[Packet] = []
    used: set[Link] = set()
    for el in [el for el in fc.escape_at if not held(r, fc.escape_next[el])]:
        p = fc.escape_at[el]
        nl = fc.escape_next[el]
        if nl in used:
            fc.stall()
            continue
        w = nl[1]
        if p.dest != w:
            if r.node_load[w] + r.reserved[w] < r.capacity:
                r.reserved[w] += 1  # drain back into bulk
            elif fc.available(nl):
                fc.claim(nl)
                r.pending_escape[p] = nl
            else:
                fc.stall()
                continue
        used.add(nl)
        fc.vacate(el)
        p.node = w
        p.hops += 1
        moved.append(p)
    if prof is not None:
        prof.add_phase("escape", wall_time() - t0)
    return moved, used


def transmit_constrained(r: ReferenceRun) -> list[Packet]:
    """Under ``node_capacity``: the escape subphase (credit flow control),
    then each active link in activation order sends its head unless it
    is down, used by an escape occupant or :func:`stalled` — where a
    credit run's head takes its link's free escape buffer.  Returns the
    packets sent, escape movers first.  Slots are reserved link by link:
    the pre-step ``node_load`` alone would let every in-link of a full
    node transmit at once."""
    fc = r.fc
    sent, used = advance_escapes(r) if fc is not None else ([], ())
    for key in [key for key in r.active if not held(r, key)]:
        if key in used:
            fc.stall()
        elif not stalled(r, key):
            sent.append(transmit(r, key))
        elif fc is None:
            continue  # backpressure: hold the link this step
        elif fc.available(key):
            fc.claim(key)
            p = transmit(r, key, reserve=False)
            r.pending_escape[p] = key
            sent.append(p)
        else:
            fc.stall()
    return sent


def transmit_serialized(r: ReferenceRun) -> list[Packet]:
    """Under ``node_service_rate`` (the Valiant baseline's serialized
    node): each node sends from at most that many links, longest queue
    first, ties to the earliest active; a link down or held by capacity
    burns no slot."""
    by_node: dict[Hashable, list[Link]] = defaultdict(list)
    for key in r.active:
        by_node[key[0]].append(key)
    sent: list[Packet] = []
    for keys in by_node.values():
        keys.sort(key=r.queue_length, reverse=True)  # stable: ties keep their order
        slots = r.service_rate
        for key in keys:
            if slots == 0:
                break
            if held(r, key) or (r.capacity is not None and stalled(r, key)):
                continue
            sent.append(transmit(r, key))
            slots -= 1
    return sent


def no_progress(r: ReferenceRun, arrivals: list[Packet], stalls0: int) -> bool:
    """Whether the step leaves the state static forever: nothing sent,
    and no link held by a fault since ``fault_stalls`` read *stalls0*
    (the schedule may revive the wire)."""
    return not arrivals and r.fault_stalls == stalls0


def place(r: ReferenceRun, p: Packet, t: int) -> None:
    """*p* has reached ``p.node`` at step *t*: trace it, place what
    ``on_arrival`` spawns there, then deliver *p*, land it in the escape
    buffer it claimed, or enqueue it toward its next hop."""
    if p.trace is None:
        p.trace = [p.node]
    else:
        p.trace.append(p.node)
    if r.on_arrival is not None:
        for q in r.on_arrival(p) or ():
            if q.node != p.node:
                raise ValueError(f"spawned packet {q.pid} at {q.node}, expected {p.node}")
            q.injected_at = t
            r.all_packets.append(q)
            r.remaining += 1
            place(r, q, t)
    w = r.next_hop(p)
    if w is None:
        r.pending_escape.pop(p, None)
        deliver(r, p, t)
    elif r.fc is not None and (el := r.pending_escape.pop(p, None)) is not None:
        # it advances from the buffer of `el` (skipping bulk queues and
        # combining) until a credit frees up or it exits
        r.fc.occupy(el, p, (p.node, w))
    else:
        enqueue(r, p, (p.node, w))


def enqueue(r: ReferenceRun, p: Packet, key: Link) -> None:
    """Queue *p* on link *key*, unless it has a combine key and
    :func:`absorb` combines it."""
    q = r.queues.get(key)
    if q is None:
        q = r.queues[key] = r.queue_factory()
    ckey = p.combine_key
    if ckey is not None and absorb(r, q, p, ckey):
        return
    q.push(p)
    r.active[key] = None
    u = key[0]
    r.node_load[u] += 1
    if len(q) > r.max_queue:
        r.max_queue = len(q)
    if r.node_load[u] > r.max_node_load:
        r.max_node_load = r.node_load[u]


def absorb(r: ReferenceRun, q: LinkQueue, p: Packet, ckey) -> bool:
    """Whether *p* merged into the earliest packet in *q* with combine
    key *ckey*: the one combine lookup, timed as ``combining``."""
    prof = r.prof
    c0 = wall_time() if prof is not None else 0.0
    host = q.find_combinable(ckey)
    if host is not None:
        host.absorb(p)
        r.combines += 1
    if prof is not None:
        prof.add_phase("combining", wall_time() - c0)
    return host is not None


def deliver(r: ReferenceRun, p: Packet, t: int) -> None:
    """Stamp step *t* as the arrival of *p* and of every packet it
    absorbed that has none yet."""
    for rep in p.all_represented():
        if rep.arrived_at is None:
            rep.arrived_at = t
            r.remaining -= 1
