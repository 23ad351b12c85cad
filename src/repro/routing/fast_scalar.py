"""The fast engine's scalar lane: small runs stepped on Python lists.

:meth:`FastPathEngine.run <repro.routing.fast_engine.FastPathEngine.run>`
has two lanes for one run semantics.  The *vector* lane
(:mod:`repro.routing.fast_phases`) advances a :class:`RunState` of numpy
tables, paying ~35 numpy calls — ~37 µs — a network step whatever the
batch size.  This lane advances a run of at most :data:`SCALAR_RUN_MAX`
packets with no ``node_capacity`` and no link-fault view on Python lists,
at ~0.5 µs a packet-hop: one queue per busy link (a list in service
order), held in a dict whose insertion order is the links' activation
order; per-packet cursor, subtree and arrival lists; and per link slot
the key of the queue the hop joins and the step its packet arrived
there (the *arrival log*).  No table is sized by the network and no
node load is counted: ``max_node_load`` is derived from the log when it
is first read (:func:`~repro.routing.fast_phases.peak_node_load`).  The
lane is chosen from the population size and the configuration only;
credit / capacity runs and link faults stay on the vector lane.

Both lanes share the validation every run gets
(:func:`~repro.routing.fast_engine._normalise_paths`,
:func:`~repro.routing.fast_phases.pack_priorities`,
:class:`~repro.routing.fast_phases.SpawnTables`, the injection
schedule, a handed-in link triple's checks in
:func:`~repro.routing.fast_phases.handed_links`) and return the same
:class:`RunArrays`, so the stats, the reply phase and
:func:`~repro.routing.packet.write_back` read a run without knowing its
lane.  What this lane does not share is the link interning
(:func:`~repro.routing.fast_phases.link_tables`' ``np.unique``): a hop's
queue is keyed by its ``src * num_nodes + dst`` code
(:func:`~repro.routing.fast_phases.hop_codes`), or by the caller's link
id when it hands a triple, so a run handed no links leaves
:attr:`RunArrays.links` ``None`` and its reply run — a subset of its
population, so on this lane too — keys its own hops the same way.  The
step is the paper's, taken literally: every busy link sends its head in
activation order (:func:`transmit`), then every arrival, in that order,
fires its spawn triggers (children placed before their parent), is
delivered with its absorption subtree, is placed alone on an idle link,
is absorbed into the queued packet on its link with its combine key, or
joins the queue — appended, unless under furthest-first it outranks
the tail, when it goes in behind the last waiter whose priority is not
smaller (:func:`admit`) — every arrival but a delivery logged first.
The queue peak is the post-arrival one, raised as queues grow.  The
differential suites run through each lane (the ``run_lane`` fixture of
``tests/conftest.py``).
"""

from __future__ import annotations

import numpy as np

from repro.obs.clock import wall_time
from repro.routing import fast_phases
from repro.routing.engine import NetworkDrainedError
from repro.routing.fast_phases import RunArrays, SpawnTables

#: The largest population stepped on lists; a larger run, or one with
#: ``node_capacity`` or a link-fault view, takes the vector lane.  The
#: census (``python tools/residue_census.py [--lanes]``, seed 7, one
#: unit): engine runs on this lane / all, their population p50 / max,
#: and ``--lanes``' replay of every run the configuration allows through
#: both lanes, best of three — vector / scalar seconds by population:
#:
#: ==================  =======  =========  =====  =====  =====  ======  =======  =====
#: workload            runs     p50/max    1-16   17-32  33-64  65-128  129-256  > 256
#: ==================  =======  =========  =====  =====  =====  ======  =======  =====
#: bfly_small_steps    500/500  16/31      3.06x  2.95x
#: sharded_tenants     280/280  54/96             2.05x  1.83x  1.70x
#: apps_replay         168/240  64/318     3.97x  3.20x  2.06x  1.40x   1.44x    0.98x
#: mesh_crcw_zipf      0/40     510/558                                          0.69x
#: mesh_erew_hot       0/30     660/696                                          0.49x
#: star_crcw_zipf      0/10     2462/2596                                        0.26x
#: bfly_credit_bursty  0/32     957/1024                                         0.38x
#: ==================  =======  =========  =====  =====  =====  ======  =======  =====
#:
#: (``bfly_credit_bursty``'s replayed runs are its unconstrained reply
#: runs.)  Lists win ~2-3x below 64 packets.  The 129-256 bucket's eight
#: runs favour lists alone, but moving the constant to 192 or 256 left
#: ``apps_replay``'s whole-unit engine time where it was (366.5 / 370.8
#: / 372.2 ms, best of seven in-process replays, measured before the
#: lane stopped counting node loads), so it stays at 128.
SCALAR_RUN_MAX = 128


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
        "active", "remaining", "max_queue", "absorbed_by", "absorbed", "spawned",
    )  # fmt: skip

    def __init__(
        self, paths, last, injected_at, gid=None, priorities=None, *,
        num_nodes: int, links=None, spawn_plan=None, profile=None,
    ) -> None:  # fmt: skip
        n = last.size
        self.paths = paths
        self.injected_at = injected_at
        self.prof = profile
        codes = fast_phases.hop_codes(paths, num_nodes)
        self.links = (
            None if links is None else fast_phases.handed_links(links, codes.size)
        )
        prio = fast_phases.pack_priorities(priorities, paths)
        row_start = paths.offsets[:-1]
        self.fl_base = row_start - np.arange(n, dtype=np.int64)
        self.spawn = None
        self.roots = np.arange(n, dtype=np.int64)
        if spawn_plan is not None:
            if gid is not None:
                raise ValueError("spawn_plan and combining are mutually exclusive")
            self.spawn = SpawnTables(
                spawn_plan, self.fl_base, paths.offsets[1:] - row_start
            )
            self.roots = np.nonzero(~self.spawn.dormant)[0]
        self.gid = None
        if gid is not None:
            gid = np.asarray(gid, dtype=np.int64)
            if gid.shape != (n,):
                raise ValueError("one combine group per packet required")
            self.gid = gid.tolist()
        #: per link slot: the queue it joins, and the step its packet
        #: arrived there (-1: not yet)
        self.key = (codes if links is None else self.links[0]).tolist()
        self.log = [-1] * codes.size
        self.prio = None if prio is None else prio.tolist()
        self.fl = self.fl_base.tolist()
        self.fl_last = (self.fl_base + last).tolist()
        self.subtree = [1] * n
        self.arrived = [-1] * n
        #: busy link -> its queue in service order, in activation order
        self.active: dict[int, list[int]] = {}
        self.remaining = int(self.roots.size)
        self.max_queue = 0
        self.absorbed_by: list[int] = []
        self.absorbed: list[int] = []
        self.spawned: list[int] = []  # in spawn order


def run_steps(s: ScalarRun, pending, *, max_steps: int, observer) -> RunArrays:
    """The vector lane's step loop (``FastPathEngine._run_batch``) on
    *s*: the *pending* injection batches (latest first) enter at their
    steps, every step transmits then admits, and the profile buckets
    and flight-recorder events are the vector lane's."""
    prof = s.prof
    rec = observer.recorder if observer is not None else None
    pending = [(step, batch.tolist()) for step, batch in pending]
    t = 0
    while s.remaining > 0:
        while pending and pending[-1][0] <= t:
            admit(s, pending.pop()[1], t)
        if s.remaining == 0 or t >= max_steps:
            break
        if not s.active and not pending:
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
            admit(s, arrivals, t)
    return finish(s, t)


def transmit(s: ScalarRun) -> list[int]:
    """Every busy link sends its queue's head, in activation order;
    returns the packets sent, in that order.  Emptied links leave
    ``active`` (a later arrival activates them anew, at the end)."""
    fl = s.fl
    sent = []
    busy = {}
    for k, q in s.active.items():
        i = q.pop(0)
        sent.append(i)
        fl[i] += 1
        if q:
            busy[k] = q
    s.active = busy
    return sent


def spliced(s: ScalarRun, batch: list[int], t: int) -> list[int]:
    """*batch* with the packets its spawn triggers activate at step *t*
    placed before their parents (:meth:`SpawnTables.fire`)."""
    spawn = s.spawn
    next_trig = spawn.next_trig
    trig_cursor = spawn.trig_cursor
    fl = s.fl
    seq = s.spawned
    before = len(seq)
    out: list[int] = []
    for i in batch:
        k = next_trig[i]
        if k >= 0 and trig_cursor[k] == fl[i]:
            spawn.fire(i, out, seq)
        out.append(i)
    for c in seq[before:]:
        s.injected_at[c] = t
    s.remaining += len(seq) - before
    return out


def admit(s: ScalarRun, batch: list[int], t: int) -> None:
    """Place *batch*, in order, at step *t*: deliver, absorb or enqueue
    each packet (see the module docstring).  Profile time is booked to
    ``arrival``, minus the ``combining`` share — the resident searches
    of a combining run's arrivals that meet a busy link."""
    prof = s.prof
    t0 = wall_time() if prof is not None else 0.0
    combining_dt = 0.0
    met = False
    if s.spawn is not None:
        batch = spliced(s, batch, t)
    fl, fl_last, key, log = s.fl, s.fl_last, s.key, s.log
    active, gid, prio, subtree = s.active, s.gid, s.prio, s.subtree
    arrived = s.arrived
    max_queue, remaining = s.max_queue, s.remaining
    for i in batch:
        f = fl[i]
        if f == fl_last[i]:
            arrived[i] = t
            remaining -= subtree[i]
            continue
        log[f] = t
        k = key[f]
        q = active.get(k)
        if q is None:
            # alone on an idle link: nothing to meet, outrank or exceed
            active[k] = [i]
            if not max_queue:
                max_queue = 1
        else:
            if gid is not None:
                met = True
                c0 = wall_time() if prof is not None else 0.0
                g = gid[i]
                for h in q:
                    if gid[h] == g:
                        subtree[h] += subtree[i]
                        s.absorbed_by.append(h)
                        s.absorbed.append(i)
                        break
                else:
                    h = -1
                if prof is not None:
                    combining_dt += wall_time() - c0
                if h >= 0:
                    continue
            if prio is None or prio[f] <= prio[fl[q[-1]]]:
                q.append(i)
            else:
                p = prio[f]
                j = 0
                while prio[fl[q[j]]] >= p:
                    j += 1
                q.insert(j, i)
            if len(q) > max_queue:
                max_queue = len(q)
    s.max_queue, s.remaining = max_queue, remaining
    if prof is not None:
        if met:
            prof.add_phase("combining", combining_dt)
        prof.add_phase("arrival", wall_time() - t0 - combining_dt)


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
    arrays = RunArrays(
        paths=s.paths,
        links=s.links,
        hops=np.asarray(s.fl, dtype=np.int64) - s.fl_base,
        arrived=np.asarray(arrived, dtype=np.int64),
        injected_at=s.injected_at,
        absorbed_by=np.asarray(s.absorbed_by, dtype=np.int64),
        absorbed=np.asarray(s.absorbed, dtype=np.int64),
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
    )
    if prof is not None:
        prof.add_phase("finish", wall_time() - t0)
    return arrays
