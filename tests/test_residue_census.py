"""``tools/residue_census.py``: what it counts, and that it leaves the
engine as it found it."""

from repro.routing import FastPathEngine, fast_phases
from tools.residue_census import Census, counting


def test_census_counts_a_fan_in_and_restores_the_engine():
    enqueue, run = fast_phases.enqueue, FastPathEngine.run
    with counting(Census()) as census:
        # three same-key packets onto one idle link at injection: one
        # residue of three, two absorptions; then two solo steps
        stats = FastPathEngine(combine=True).run(
            [[0, 1, 2]] * 3, num_nodes=3, max_steps=9, combine_groups=[7, 7, 7]
        )
    assert (census.net_steps, census.phases) == (stats.steps, 2) == (2, 2)
    assert (census.residues, census.absorptions) == ([3], 2)
    row = census.row("fan-in")
    assert row[3:] == ["50%", "3", "3", "3", "0%", "2"]
    assert (fast_phases.enqueue, FastPathEngine.run) == (enqueue, run)
