"""``tools/residue_census.py``: what it counts, and that it leaves the
engine as it found it."""

from repro.routing import FastPathEngine, fast_phases, fast_scalar
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
