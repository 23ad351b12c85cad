"""``tools/residue_census.py``: what it counts, and that it leaves the
engine as it found it."""

import dataclasses

import pytest
from conftest import forced_run_lane

from repro.emulation import LeveledEmulator
from repro.pram.trace import RequestColumns
from repro.routing import FastPathEngine, fast_engine, fast_phases, fast_scalar
from repro.routing.fast_phases import Replies, peak_node_load
from repro.topology import DAryButterflyLeveled, StarLogicalLeveled
from tools.residue_census import Census, counting, lane_rows


def fan_in(census_kwargs=None):
    """Three same-key packets onto one idle link at injection, under the
    census: one residue of three, two absorptions, then one solo step —
    after which nothing waits, and a free-flow jump takes the last."""
    with counting(Census(), **(census_kwargs or {})) as census:
        stats = FastPathEngine().run(
            [[0, 1, 2]] * 3, num_nodes=3, max_steps=9, combine_groups=[7, 7, 7]
        )
    return census, stats


def test_census_counts_a_fan_in_and_restores_the_engine(monkeypatch):
    # a 3-packet run takes the scalar lane, whose arrival phase is not
    # enqueue: the vector lane is forced to count the residue
    monkeypatch.setattr(fast_scalar, "SCALAR_RUN_MAX", 0)
    enqueue, run = fast_phases.enqueue, FastPathEngine.run
    free_flow = fast_engine.free_flow
    census, stats = fan_in()
    assert (census.steps, census.phases) == ([stats.steps], 2) == ([2], 2)
    assert (census.residues, census.absorptions, census.skipped) == ([3], 2, 1)
    row = census.row("fan-in")
    # runs, on the scalar lane, net steps, on the scalar lane, jumped,
    # free-flow calls / misses
    assert row[1:7] == ["1", "0", "2", "0", "1", "1 / 0"]
    # population min / p50 / p90 / max, then the residue columns
    assert row[7:] == ["3", "3", "3", "3", "2", "50%", "3", "3", "3", "0%", "2"]
    assert (fast_phases.enqueue, FastPathEngine.run) == (enqueue, run)
    assert fast_engine.free_flow is free_flow


def test_census_counts_free_flow_calls_and_the_ones_that_skip_nothing(monkeypatch):
    """Two packets flow alone into node 3, where both take link (3, 4):
    the free-flow call after step 1 meets at offset 1 and lands where it
    started (a miss); the one after the first delivery, with one packet
    left, jumps to its delivery."""
    monkeypatch.setattr(fast_scalar, "SCALAR_RUN_MAX", 0)
    with counting(Census()) as census:
        stats = FastPathEngine().run([[0, 2, 3, 4], [1, 5, 3, 4]], num_nodes=6, max_steps=9)
    assert (stats.steps, stats.max_queue, census.skipped) == (4, 2, 1)
    assert (census.flow_calls, census.flow_misses) == (2, 1)
    assert census.row("meet")[5:7] == ["1", "2 / 1"]


def test_the_population_columns_span_the_runs():
    """min / p50 / p90 / max of the packets per run: a lane boundary
    that sits between two workloads' ranges moves none of their runs."""
    census = Census()
    census.populations, census.scalar, census.steps = [3, 9, 5, 7], [True] * 4, [1] * 4
    assert census.row("spread")[7:11] == ["3", "6", "8.4", "9"]


def test_census_counts_the_scalar_lane_and_times_both():
    run_max = fast_scalar.SCALAR_RUN_MAX
    census, _ = fan_in({"keep_calls": True})
    row = census.row("fan-in")
    assert row[1:12] == ["1", "1", "2", "2", "0", "0 / 0", "3", "3", "3", "3", "0"]
    ((name, bucket, runs, vector_ms, scalar_ms, speedup),) = lane_rows("fan-in", census)
    assert (name, bucket, runs) == ("fan-in", "1-16", "1")
    assert float(vector_ms) >= 0 and float(scalar_ms) >= 0 and speedup.endswith("x")
    assert fast_scalar.SCALAR_RUN_MAX == run_max  # restored after the replays


def test_a_scalar_runs_reply_is_replayed_interning_on_the_vector_lane(monkeypatch):
    """A scalar-lane request run leaves no link ids, so its reply run —
    recorded as a ``Replies`` population of that run's arrays — carries
    none: ``--lanes`` replays it on the vector lane by interning its own
    links, in the steps the unit took, and on the scalar lane from the
    request's own hop keys."""
    net = StarLogicalLeveled(4)
    emulator = LeveledEmulator(
        net, 4 * net.column_size, mode="crcw", seed=5, engine="fast"
    )
    reads = [(pid, pid % 3) for pid in range(net.column_size)]
    with counting(Census(), keep_calls=True) as census:
        emulator.emulate_step(RequestColumns.of(reads=reads))
    assert census.scalar == [True, True]
    (_, _, request), (_, reply_args, reply) = census.calls
    assert request.get("links") is None
    (replies,) = reply_args
    assert isinstance(replies, Replies) and "links" not in reply
    assert replies.requests.links is None and replies.requests.slot_keys
    assert replies.requests.absorbed.size  # the reply run has spawn triggers
    interned = []
    inner = fast_phases.link_tables

    def spy(paths, links, num_nodes):
        interned.append(links is None)
        return inner(paths, links, num_nodes)

    monkeypatch.setattr(fast_phases, "link_tables", spy)
    rows = lane_rows("crcw", census)
    assert [row[2] for row in rows] == ["2"]
    # three vector replays of each run, each interning; none on the scalar lane
    assert interned == [True] * 6


def test_lanes_compares_every_stat_of_the_replays(monkeypatch):
    """``--lanes`` checks lane parity on every field of ``RoutingStats``:
    a scalar replay whose derived ``max_node_load`` is off while its
    steps agree fails, naming the field."""
    census, stats = fan_in({"keep_calls": True})
    assert census.results == [stats] and lane_rows("fan-in", census)
    finish = fast_scalar.finish

    def off_by_one(s, t):
        arrays = finish(s, t)
        return dataclasses.replace(arrays, max_node_load=peak_node_load(arrays) + 1)

    monkeypatch.setattr(fast_scalar, "finish", off_by_one)
    with pytest.raises(RuntimeError, match="max_node_load 1 / 1 / 2"):
        lane_rows("fan-in", census)


def vector_request_small_reply():
    """One CRCW step on the vector lane whose request run has 160
    packets (150 writes and ten reads) while its reply run — ten reads
    and whatever combined into them — is small, under the census."""
    net = DAryButterflyLeveled(2, 6)
    emulator = LeveledEmulator(
        net, 4 * net.column_size, mode="crcw", seed=3, engine="fast"
    )
    reads = [(pid, pid % 2) for pid in range(10)]
    writes = [(pid % net.column_size, 7 + pid % 40, pid) for pid in range(150)]
    with forced_run_lane("vector"), counting(Census(), keep_calls=True) as census:
        emulator.emulate_step(RequestColumns.of(reads=reads, writes=writes))
    return census


def test_lanes_replays_a_reply_population_through_both_layouts(monkeypatch):
    """``--lanes`` hands each replay the reply run's ``Replies`` as the
    unit did: the vector replay lays it out in arrays on the request's
    link ids, the scalar replay in lists off the request's arrays, and
    a replay whose stats differ from the unit's fails."""
    census = vector_request_small_reply()
    assert census.scalar == [False, False] and census.populations[0] == 160
    (replies,) = census.calls[1][1]
    assert isinstance(replies, Replies) and replies.requests.links is not None
    built = []
    reply_run, reply_layout = fast_scalar.reply_run, fast_phases.reply_layout

    def lists(*args, **kwargs):
        built.append("lists")
        return reply_run(*args, **kwargs)

    def arrays(*args, **kwargs):
        built.append("arrays")
        return reply_layout(*args, **kwargs)

    monkeypatch.setattr(fast_scalar, "reply_run", lists)
    monkeypatch.setattr(fast_engine, "reply_layout", arrays)
    rows = lane_rows("crcw", census)
    # one run per bucket, each replayed through both lanes
    assert [row[1:3] for row in rows] == [["1-16", "1"], ["129-256", "1"]]
    assert built == ["arrays"] * 3 + ["lists"] * 3

    def reordered(replies, forest, **kwargs):
        # the hosts' replies in the opposite order: the same replies, in
        # another stats order
        flipped = Replies(replies.requests, replies.hosts[::-1])
        return reply_run(flipped, fast_scalar.forest_rows(flipped, 1 << 30), **kwargs)

    monkeypatch.setattr(fast_scalar, "reply_run", reordered)
    with pytest.raises(RuntimeError, match="scalar stats differ: delays"):
        lane_rows("crcw", census)
