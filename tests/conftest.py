"""Fixtures shared by the engine differential suites, and the
front-end suites' helpers for hand-built request batches."""

import signal
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from repro.routing import engine, fast_engine, fast_scalar, run_view
from repro.traffic.driver import STAMP
from repro.traffic.generators import NO_VALUE, RequestBatch

#: ``SCALAR_RUN_MAX`` values that send every fast run the configuration
#: allows through one lane: Python lists, or numpy tables
RUN_LANES = {"scalar": sys.maxsize, "vector": 0}


@contextmanager
def forced_run_lane(lane: str):
    """Send every fast run of the block through *lane*."""
    saved = fast_scalar.SCALAR_RUN_MAX
    fast_scalar.SCALAR_RUN_MAX = RUN_LANES[lane]
    try:
        yield
    finally:
        fast_scalar.SCALAR_RUN_MAX = saved


@pytest.fixture
def run_lane(request):
    """Force the test's fast runs through one lane: its class's or its
    module's ``RUN_LANE``, ``"scalar"`` unless set.  A suite runs on both
    lanes by being collected twice — again by a subclass, or a companion
    module, that sets ``RUN_LANE = "vector"`` — so the first collection
    keeps its test ids."""
    lane = getattr(request.cls, "RUN_LANE", None) or getattr(
        request.module, "RUN_LANE", "scalar"
    )
    with forced_run_lane(lane):
        yield lane


@pytest.fixture
def checked_steps(monkeypatch):
    """Check every run the test makes after each of its steps, on all
    three implementations (:func:`repro.routing.run_view.check`): the
    scalar lane after each :func:`~repro.routing.fast_scalar.admit` its
    step loop makes (not the ones a firing trigger makes inside it for
    the children), the vector lane after each
    :func:`~repro.routing.fast_engine.admit` and after each jump of
    :func:`~repro.routing.fast_engine.free_flow`, and the reference
    engine at the top of each step, after its
    :func:`~repro.routing.engine.check_drained`.  Yields the
    ``(implementation, step)`` pairs checked."""
    scalar_admit, vector_admit = fast_scalar.admit, fast_engine.admit
    free_flow = fast_engine.free_flow
    check_drained = engine.check_drained
    depth = []
    checked = []

    def scalar_step(s, batch, t, advance, prof):
        depth.append(t)
        try:
            scalar_admit(s, batch, t, advance, prof)
        finally:
            depth.pop()
        if not depth:
            run_view.check(run_view.scalar(s), t)
            checked.append(("scalar", t))

    def vector_step(s, batch, t):
        vector_admit(s, batch, t)
        run_view.check(run_view.vector(s), t)
        checked.append(("vector", t))

    def vector_jump(s, t, max_steps, rec=None):
        t = free_flow(s, t, max_steps, rec)
        run_view.check(run_view.vector(s), t)
        checked.append(("vector", t))
        return t

    def reference_step(r, t):
        check_drained(r, t)
        run_view.check(run_view.reference(r), t)
        checked.append(("reference", t))

    monkeypatch.setattr(fast_scalar, "admit", scalar_step)
    monkeypatch.setattr(fast_engine, "admit", vector_step)
    monkeypatch.setattr(fast_engine, "free_flow", vector_jump)
    monkeypatch.setattr(engine, "check_drained", reference_step)
    yield checked


@contextmanager
def deadline(seconds):
    """Fail the test instead of hanging the suite: the alarm interrupts
    a Python-level loop that no longer terminates."""

    def expired(_signum, _frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def batch_of(requests) -> RequestBatch:
    """The batch holding *requests* (``TrafficRequest``s, integer write
    values only): what a stub workload's ``stream`` returns."""
    requests = list(requests)
    tenants = tuple(dict.fromkeys(r.tenant for r in requests))
    ids = {name: i for i, name in enumerate(tenants)}
    rows = [
        (
            r.rid,
            r.pid,
            r.addr,
            r.kind == "read",
            r.epoch,
            NO_VALUE if r.value is None else r.value,
            ids[r.tenant],
        )
        for r in requests
    ]
    matrix = np.asarray(rows, dtype=np.int64).reshape(len(rows), 7).T
    return RequestBatch(matrix, tenants)


def enqueue(drv, requests, stamp: int, not_before: int) -> None:
    """Queue *requests* on an ``OnlineEmulator`` as its epoch loop
    does: their tenant labels interned, then one ``_enqueue``."""
    batch = batch_of(requests)
    drv._enqueue(batch.matrix, drv._tenant_column(batch), stamp, not_before)


def queued(drv) -> list:
    """An ``OnlineEmulator``'s queued ``(request, arrival_clock)`` pairs
    in FIFO order, the requests as row views of its pending table."""
    return list(zip(drv._views(drv._table), drv._table[STAMP].tolist()))


def flat_priorities(table, paths):
    """A hand-built priority table (row i: packet i's priority at its
    k-th link crossing; columns past its hops unread) as the engine's
    flat column, one priority per link position of *paths*' rows."""
    if table is None:
        return None
    return [row[k] for row, path in zip(table, paths) for k in range(len(path) - 1)]


def delay_lines(paths, inject, priorities=None):
    """*paths* with packet i entering at step ``inject[i]``, for engines
    that inject every packet at step 0: each row gets a private
    ``inject[i]``-hop delay line before its source — fresh node ids,
    crossed by no other packet — so it reaches its source at that step
    having waited nowhere.  Returns ``(rows, priorities)``, a hand-built
    priority table (:func:`flat_priorities`' *table*) getting a 0 for
    each delay hop; with *inject* ``None``, the inputs unchanged.

    One ordering differs from an injection at step k, which lands after
    that step's arrivals: a delay-line packet lands *among* them, in the
    order its line's links activate — row order among the lines, since
    every line starts at step 0 and never waits.  A scenario whose state
    depends on that order builds it with its rows or line lengths.
    """
    if inject is None:
        return paths, priorities
    next_id = max((max(row) for row in paths), default=-1) + 1
    rows = []
    for row, k in zip(paths, inject):
        rows.append([*range(next_id, next_id + k), *row])
        next_id += k
    if priorities is not None:
        priorities = [[0] * k + list(row) for row, k in zip(priorities, inject)]
    return rows, priorities
