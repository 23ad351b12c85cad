"""``tools/residue_census.py``: what it counts, and that it leaves the
engine as it found it."""

import dataclasses

import pytest

from repro.emulation import LeveledEmulator
from repro.pram.trace import RequestColumns
from repro.routing import FastPathEngine, fast_phases, fast_scalar
from repro.routing.fast_phases import peak_node_load
from repro.topology import StarLogicalLeveled
from tools.residue_census import Census, counting, lane_rows


def fan_in(census_kwargs=None):
    """Three same-key packets onto one idle link at injection, under the
    census: one residue of three, two absorptions, then two solo steps."""
    with counting(Census(), **(census_kwargs or {})) as census:
        stats = FastPathEngine(combine=True).run(
            [[0, 1, 2]] * 3, num_nodes=3, max_steps=9, combine_groups=[7, 7, 7]
        )
    return census, stats


def test_census_counts_a_fan_in_and_restores_the_engine(monkeypatch):
    # a 3-packet run takes the scalar lane, whose arrival phase is not
    # enqueue: the vector lane is forced to count the residue
    monkeypatch.setattr(fast_scalar, "SCALAR_RUN_MAX", 0)
    enqueue, run = fast_phases.enqueue, FastPathEngine.run
    census, stats = fan_in()
    assert (census.steps, census.phases) == ([stats.steps], 2) == ([2], 2)
    assert (census.residues, census.absorptions) == ([3], 2)
    row = census.row("fan-in")
    # runs, on the scalar lane, net steps, on the scalar lane
    assert row[1:5] == ["1", "0", "2", "0"]
    # population p50 / p90 / max, then the residue columns
    assert row[5:] == ["3", "3", "3", "2", "50%", "3", "3", "3", "0%", "2"]
    assert (fast_phases.enqueue, FastPathEngine.run) == (enqueue, run)


def test_census_counts_the_scalar_lane_and_times_both():
    run_max = fast_scalar.SCALAR_RUN_MAX
    census, _ = fan_in({"keep_calls": True})
    assert census.row("fan-in")[1:9] == ["1", "1", "2", "2", "3", "3", "3", "0"]
    ((name, bucket, runs, vector_ms, scalar_ms, speedup),) = lane_rows("fan-in", census)
    assert (name, bucket, runs) == ("fan-in", "1-16", "1")
    assert float(vector_ms) >= 0 and float(scalar_ms) >= 0 and speedup.endswith("x")
    assert fast_scalar.SCALAR_RUN_MAX == run_max  # restored after the replays


def test_a_scalar_runs_reply_is_replayed_interning_on_the_vector_lane(monkeypatch):
    """A scalar-lane request run leaves no link ids, so its reply run is
    recorded with ``links=None``: ``--lanes`` replays it on the vector
    lane by interning its own links, in the steps the unit took."""
    net = StarLogicalLeveled(4)
    emulator = LeveledEmulator(
        net, 4 * net.column_size, mode="crcw", seed=5, engine="fast"
    )
    reads = [(pid, pid % 3) for pid in range(net.column_size)]
    with counting(Census(), keep_calls=True) as census:
        emulator.emulate_step(RequestColumns.of(reads=reads))
    assert census.scalar == [True, True]
    (_, _, request), (_, _, reply) = census.calls
    assert request.get("links") is None and reply["links"] is None
    assert reply["spawn_plan"] is not None
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
