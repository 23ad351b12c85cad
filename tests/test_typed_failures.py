"""The typed errors of the last bare-raise sites in ``src/repro``.

Each subclasses ``RuntimeError`` (``except RuntimeError`` callers keep
working) and carries its diagnostics; ``docs/faults.md`` lists them.
"""

import pytest

from repro.analysis.delay_bounds import TailBoundError, routing_time_bound
from repro.pram import PRAM, PRAMStepLimitError
from repro.routing.flow_control import CreditState, EscapeDoubleBookedError


def test_a_pram_step_overrun_names_its_budget_and_live_processors():
    def program(pid, n):
        while pid:  # processor 0 halts at once, the other two never do
            yield None

    pram = PRAM(3, 1)
    pram.load(program)
    with pytest.raises(PRAMStepLimitError) as err:
        pram.run(max_steps=10)
    assert isinstance(err.value, RuntimeError)
    assert (err.value.max_steps, err.value.live_processors) == (10, 2)
    assert pram.steps_executed == 10


def test_a_double_booked_escape_buffer_names_the_link_and_both_occupants():
    fc = CreditState()
    fc.occupy(("u", "w"), "p1", ("w", "x"))
    with pytest.raises(EscapeDoubleBookedError) as err:
        fc.occupy(("u", "w"), "p2", ("w", "y"))
    assert isinstance(err.value, RuntimeError)
    assert (err.value.link, err.value.occupant, err.value.incoming) == (
        ("u", "w"), "p1", "p2",
    )
    # the standing booking is untouched
    assert fc.escape_at == {("u", "w"): "p1"}
    assert fc.escape_next == {("u", "w"): ("w", "x")}


def test_a_tail_bound_that_cannot_converge_carries_its_arguments():
    # l^2 / d = 20,000: the tail at every delta below 10,000 is bounded by 1
    with pytest.raises(TailBoundError) as err:
        routing_time_bound(200, 2, 0.01)
    assert isinstance(err.value, RuntimeError)
    assert (err.value.levels, err.value.degree, err.value.failure_prob) == (200, 2, 0.01)
