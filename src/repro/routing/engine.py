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
the packet exits at: the capacity exemption compares it with link
targets.

Combining (Theorem 2.6) is supported at enqueue time: when an arriving
packet finds a queued packet with the same (kind, address, destination) it
is absorbed — "any number of incoming packets, which have the same
destination, from different links can be combined into one packet in one
unit time" (footnote 3).

Node-capacity backpressure (§3.4 / Corollary 3.3, à la [6]) is enforced
*during* the transmission phase: each link that transmits toward a node
reserves one of that node's arrival slots for the step, so later links
aiming at the same node see the claimed slots and stall.  With capacity c
a node therefore never holds more than c resident packets
(``max_node_load <= node_capacity``), no matter how many in-links it has.
Heads that exit the network at the link's target (head.dest == target)
are exempt — a delivered packet occupies no queue space — and when
``node_service_rate`` also caps departures, capacity-stalled links do not
consume service slots: a node's slots go to links that can actually send.

Plain backpressure can wedge crossing flows (two full nodes each waiting
on the other); ``flow_control="credit"`` layers the deadlock-free
credit/escape protocol of :mod:`repro.routing.flow_control` on top: a
credit-starved queue head may advance into the crossed link's dedicated
escape buffer, and escape occupants (absolute priority on their next
link) drain back into bulk slots or forward along the escape chain.  On
rank-monotone routes the escape channel-dependency graph is acyclic, so
progress is guaranteed.  Either way, a step that moves nothing while
packets are still queued raises :class:`DeadlockError` instead of
spinning to ``max_steps``.

Reference engine vs. fast path
------------------------------
This module is the **reference** engine: maximally general (arbitrary
hashable node keys, dynamic ``next_hop`` policies, backpressure, service
rates, ``on_arrival`` injection) and written for readability.  The
routers for leveled / shuffle / star / butterfly networks also have a
**fast path** (:mod:`repro.routing.fast_engine` over
:mod:`repro.topology.compiled`) that precompiles every packet's
trajectory to dense integer node ids and replays the very same queue
dynamics on flat data structures.  The two are step-for-step equivalent
under a fixed seed (see ``tests/test_fast_engine.py``); routers select
the fast path automatically when their configuration allows it.  Force a
specific engine with the routers' ``engine="reference"`` /
``engine="fast"`` argument, or globally via the ``REPRO_ENGINE``
environment variable (checked whenever a router is left on ``"auto"``).

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
from repro.routing.metrics import RoutingStats, collect_stats
from repro.routing.packet import Packet
from repro.routing.queues import LinkQueue, fifo_factory

NextHop = Callable[[Packet], Optional[Hashable]]


class RoutingTimeout(RuntimeError):
    """A run exceeded its step budget; raised over its stats by callers
    that need every packet delivered (the engines only return them)."""

    def __init__(self, stats: RoutingStats) -> None:
        super().__init__(f"routing did not complete: {stats}")
        self.stats = stats


class NetworkDrainedError(RuntimeError):
    """Packets are still owed but nothing is queued, buffered or due.

    Raised by both engines at step ``t`` when ``remaining`` packets are
    undelivered while no link holds a packet, no escape buffer is
    occupied and no injection is pending — the run's bookkeeping is
    inconsistent (e.g. a packet routed again without resetting its
    ``arrived_at``), so spinning to ``max_steps`` would only hide it.
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
    combine:
        Enable CRCW packet combining for packets carrying an ``address``.
    node_capacity:
        If set, a node refuses new arrivals beyond this many resident
        packets: upstream links stall (backpressure).  Arrival slots are
        reserved as links transmit within a step, so the cap holds even
        against simultaneous arrivals from many in-links (heads delivered
        at the target are exempt, see :meth:`_is_exit`).  Models the O(1)
        queue variants of §3.4 / [6].
    flow_control:
        ``"none"`` (default) is plain backpressure; ``"credit"`` adds
        the deadlock-free escape channel of
        :mod:`repro.routing.flow_control` (requires ``node_capacity``).
    track_paths:
        Record every visited node key in ``packet.trace`` (needed to fan
        replies back along combining trees).
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
        combine: bool = False,
        node_capacity: int | None = None,
        node_service_rate: int | None = None,
        flow_control: str = "none",
        track_paths: bool = False,
        observer=None,
    ) -> None:
        self.queue_factory = queue_factory
        self.combine = combine
        self.node_capacity = node_capacity
        self.node_service_rate = node_service_rate
        self.flow_control = resolve_flow_control(
            flow_control,
            node_capacity=node_capacity,
            node_service_rate=node_service_rate,
        )
        self.track_paths = track_paths
        self.observer = observer

    # ------------------------------------------------------------------
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
        """Route *packets* until all are delivered or *max_steps* elapse.

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
        queues: dict[tuple[Hashable, Hashable], LinkQueue] = {}
        node_load: dict[Hashable, int] = defaultdict(int)
        # Insertion-ordered set (dict) of links with queued packets: the
        # transmission phase iterates it, so using a plain set would make
        # transmission order — and thus RNG consumption, combining, and
        # service-rate tie-breaks — depend on hash order.
        active: dict[tuple[Hashable, Hashable], None] = {}
        fc = CreditState() if self.flow_control == "credit" else None
        # Packets that claimed an escape buffer at transmit time; place()
        # turns the claim into an occupancy (or drops it on delivery).
        pending_escape: dict[Packet, tuple[Hashable, Hashable]] = {}

        obs = self.observer
        prof = obs.profile if obs is not None else None
        rec = obs.recorder if obs is not None else None
        _t_run0 = wall_time() if prof is not None else 0.0

        max_queue = 0
        max_node_load = 0
        combines = 0
        fault_stalls = 0
        deadlocked = False
        all_packets = list(packets)
        remaining = len(all_packets)

        injections: dict[int, list[Packet]] = defaultdict(list)
        for p in all_packets:
            injections[p.injected_at].append(p)
        pending_times = sorted(injections, reverse=True)

        def enqueue(p: Packet, u: Hashable, w: Hashable) -> None:
            nonlocal max_queue, max_node_load, combines
            key = (u, w)
            q = queues.get(key)
            if q is None:
                q = queues[key] = self.queue_factory()
            if self.combine:
                ckey = p.combine_key
                if ckey is not None:
                    _c0 = wall_time() if prof is not None else 0.0
                    host = q.find_combinable(ckey)
                    if host is not None:
                        host.absorb(p)
                        combines += 1
                        if prof is not None:
                            prof.add_phase("combining", wall_time() - _c0)
                        return
                    if prof is not None:
                        prof.add_phase("combining", wall_time() - _c0)
            q.push(p)
            active[key] = None
            node_load[u] += 1
            if len(q) > max_queue:
                max_queue = len(q)
            if node_load[u] > max_node_load:
                max_node_load = node_load[u]

        def deliver(p: Packet, t: int) -> None:
            nonlocal remaining
            for rep in p.all_represented():
                if rep.arrived_at is None:
                    rep.arrived_at = t
                    remaining -= 1

        def place(p: Packet, t: int) -> None:
            """Compute p's next hop from its current node; enqueue/deliver."""
            nonlocal remaining
            if self.track_paths:
                if p.trace is None:
                    p.trace = [p.node]
                else:
                    p.trace.append(p.node)
            if on_arrival is not None:
                spawned = on_arrival(p)
                if spawned:
                    for q in spawned:
                        if q.node != p.node:
                            raise ValueError(
                                f"spawned packet {q.pid} at {q.node}, "
                                f"expected {p.node}"
                            )
                        q.injected_at = t
                        all_packets.append(q)
                        remaining += 1
                        place(q, t)
            w = next_hop(p)
            if w is None:
                if fc is not None:
                    pending_escape.pop(p, None)
                deliver(p, t)
            elif fc is not None and (el := pending_escape.pop(p, None)) is not None:
                # The packet crossed link `el` into its escape buffer;
                # it advances from there (skipping bulk queues and
                # combining) until a credit frees up or it exits.
                fc.occupy(el, p, (p.node, w))
            else:
                enqueue(p, p.node, w)

        t = 0
        while remaining > 0:
            # inject packets whose time has come
            while pending_times and pending_times[-1] <= t:
                for p in injections[pending_times.pop()]:
                    place(p, t)
            if remaining == 0:
                break
            if t >= max_steps:
                break
            if (
                not active
                and not pending_times
                and (fc is None or not fc.escape_at)
            ):
                raise NetworkDrainedError(remaining, t, obs)

            # transmission phase: every active link sends one packet
            # (unless node_service_rate caps departures per node, the
            # serialized model used by the Valiant-comparison baseline)
            arrivals: list[Packet] = []
            newly_empty: list[tuple[Hashable, Hashable]] = []
            capacity = self.node_capacity
            blocked: frozenset = frozenset()
            if link_faults is not None:
                fstatic, fextra = link_faults.parts_at(fault_base + t)
                blocked = fstatic.union(fextra) if fextra else fstatic
            fault_blocked_step = False
            _tx0 = wall_time() if prof is not None else 0.0
            _esc_dt = 0.0
            if capacity is None and self.node_service_rate is None:
                # Unconstrained hot loop: no capacity bookkeeping at all.
                for key in active:
                    if blocked and key in blocked:
                        fault_stalls += 1
                        fault_blocked_step = True
                        continue
                    q = queues[key]
                    p = q.pop()
                    node_load[key[0]] -= 1
                    p.node = key[1]
                    p.hops += 1
                    arrivals.append(p)
                    if len(q) == 0:
                        newly_empty.append(key)
            else:
                # Arrival slots already claimed at each node this step.
                # The capacity check must see them: checking only the
                # pre-step node_load would let every in-link of a full
                # node transmit in the same step (N arrivals past a
                # capacity-1 node).
                reserved: dict[Hashable, int] = defaultdict(int)

                def stalled(key: tuple[Hashable, Hashable]) -> bool:
                    if node_load[key[1]] + reserved[key[1]] < capacity:
                        return False
                    return not self._is_exit(queues[key], key)

                def transmit(
                    key: tuple[Hashable, Hashable], reserve: bool = True
                ) -> Packet:
                    # reserve=False is the escape landing: the packet
                    # crosses into the link's dedicated escape buffer,
                    # so it claims no bulk slot at the target.
                    q = queues[key]
                    p = q.pop()
                    node_load[key[0]] -= 1
                    if reserve and capacity is not None and p.dest != key[1]:
                        reserved[key[1]] += 1
                    p.node = key[1]
                    p.hops += 1
                    arrivals.append(p)
                    if len(q) == 0:
                        newly_empty.append(key)
                    return p

                if fc is not None:
                    # Escape subphase: occupants advance first (absolute
                    # priority on their next link), in occupancy order.
                    # `used` then blocks the bulk heads of those links.
                    _esc0 = wall_time() if prof is not None else 0.0
                    used: set[tuple[Hashable, Hashable]] = set()
                    for el in list(fc.escape_at):
                        p = fc.escape_at[el]
                        nl = fc.escape_next[el]
                        if blocked and nl in blocked:
                            fault_stalls += 1
                            fault_blocked_step = True
                            continue
                        if nl in used:
                            fc.stall()
                            continue
                        w = nl[1]
                        if p.dest != w:
                            if node_load[w] + reserved[w] < capacity:
                                reserved[w] += 1  # drain back into bulk
                            elif fc.available(nl):
                                fc.claim(nl)
                                pending_escape[p] = nl
                            else:
                                fc.stall()
                                continue
                        used.add(nl)
                        fc.vacate(el)
                        p.node = w
                        p.hops += 1
                        arrivals.append(p)
                    if prof is not None:
                        _esc_dt = wall_time() - _esc0
                        prof.add_phase("escape", _esc_dt)
                    # Bulk subphase: credit-starved heads take the escape
                    # buffer of the link they cross instead of stalling.
                    for key in active:
                        if blocked and key in blocked:
                            fault_stalls += 1
                            fault_blocked_step = True
                            continue
                        if key in used:
                            fc.stall()
                            continue
                        if not stalled(key):
                            transmit(key)
                        elif fc.available(key):
                            fc.claim(key)
                            pending_escape[transmit(key, reserve=False)] = key
                        else:
                            fc.stall()
                elif self.node_service_rate is None:
                    for key in active:
                        if blocked and key in blocked:
                            fault_stalls += 1
                            fault_blocked_step = True
                            continue
                        if stalled(key):
                            continue  # backpressure: hold the link this step
                        transmit(key)
                else:
                    by_node: dict[Hashable, list] = defaultdict(list)
                    for key in active:
                        by_node[key[0]].append(key)
                    for node, keys in by_node.items():
                        # Stable sort + insertion-ordered `active`: ties go
                        # to the link that became active first.
                        keys.sort(key=lambda k: -len(queues[k]))
                        slots = self.node_service_rate
                        for key in keys:
                            if slots == 0:
                                break
                            # A fault-blocked or capacity-stalled link must
                            # not burn one of the node's service slots while
                            # a ready link idles.
                            if blocked and key in blocked:
                                fault_stalls += 1
                                fault_blocked_step = True
                                continue
                            if capacity is not None and stalled(key):
                                continue
                            transmit(key)
                            slots -= 1
            for key in newly_empty:
                active.pop(key, None)
            if prof is not None:
                prof.add_phase("transmission", wall_time() - _tx0 - _esc_dt)
            if rec is not None:
                rec.record(
                    "engine_step",
                    virtual_clock=t,
                    arrivals=len(arrivals),
                    active_links=len(active),
                    remaining=remaining,
                    fault_stalls=fault_stalls,
                )

            if not arrivals and not pending_times and not fault_blocked_step:
                # No transmission, no future injections, and no link held
                # back by a (possibly transient) fault: the state is
                # provably static forever.  Report instead of spinning.
                # A fault-blocked step instead just burns time — the
                # schedule may revive the wire.
                deadlocked = True
                break

            t += 1
            if prof is not None:
                _a0 = wall_time()
                _c_before = prof.phase_total("combining")
                for p in arrivals:
                    place(p, t)
                prof.add_phase(
                    "arrival",
                    (wall_time() - _a0)
                    - (prof.phase_total("combining") - _c_before),
                )
            else:
                for p in arrivals:
                    place(p, t)

        completed = remaining == 0
        stats = collect_stats(
            all_packets,
            steps=t,
            max_queue=max_queue,
            completed=completed,
            combines=combines,
            max_node_load=max_node_load,
            credits_stalled=fc.credits_stalled if fc is not None else 0,
            escape_hops=fc.escape_hops if fc is not None else 0,
            fault_stalls=fault_stalls,
            run_mode="reference",
        )
        if prof is not None:
            prof.add_mode("reference", wall_time() - _t_run0)
        if deadlocked:
            err = DeadlockError(
                stats, detail=no_progress_detail(t, remaining, len(active))
            )
            if obs is not None:
                err.flight_tail = obs.flight_tail()
            raise err
        return stats

    def _is_exit(self, q: LinkQueue, key) -> bool:
        """Heads destined to final delivery never stall on capacity.

        A packet that will be *delivered* at the target node does not
        occupy queue space there, so backpressure must let it through;
        we approximate by checking whether the head's destination equals
        the link's target node.
        """
        return q.peek().dest == key[1]
