"""The typed errors of the last bare-raise and ``assert`` sites.

Each subclasses ``RuntimeError`` or, for the program oracles,
``AssertionError`` (existing ``except`` callers keep working) and
carries its diagnostics; ``docs/faults.md`` lists them.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.delay_bounds import TailBoundError, routing_time_bound
from repro.pram import PRAM, OracleMismatchError, PRAMStepLimitError, prefix_sum
from repro.routing.flow_control import CreditState, EscapeDoubleBookedError


def run_optimized(code: str) -> list[str]:
    """Run *code* under ``python -O`` (asserts stripped); its stdout words."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


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


def test_every_oracle_check_survives_python_O():
    # run every library program, then make each verifier read wrong cells:
    # under -O an ``assert`` would be stripped and the check pass silently
    code = textwrap.dedent(
        """
        from repro.pram import ALL_PROGRAM_BUILDERS, OracleMismatchError
        caught = []
        for name, build in sorted(ALL_PROGRAM_BUILDERS.items()):
            spec = build()
            pram = spec.run()
            pram.memory.read = lambda addr: -12345
            try:
                spec.verify(pram)
            except OracleMismatchError as err:
                assert err.program == name and err.got != err.expected
                caught.append(name)
        print(len(ALL_PROGRAM_BUILDERS), len(caught))
        """
    )
    assert run_optimized(code) == ["12", "12"]


def test_an_incomplete_experiment_route_survives_python_O():
    # one experiment table whose routes get a one-step budget: under -O
    # an ``assert stats.completed`` would be stripped and the row printed
    code = textwrap.dedent(
        """
        from repro.experiments import exp_leveled
        from repro.routing import RoutingTimeout

        class OneStep(exp_leveled.LeveledRouter):
            def route_permutation(self, perm, *, max_steps=None):
                return super().route_permutation(perm, max_steps=1)

        exp_leveled.LeveledRouter = OneStep
        try:
            exp_leveled.run_e1(((2, 4),), trials=1)
        except RoutingTimeout as err:
            print(err.stats.completed, err.stats.steps)
        """
    )
    assert run_optimized(code) == ["False", "1"]


def test_an_oracle_mismatch_names_the_first_differing_index():
    spec = prefix_sum([1, 2, 3, 4])
    pram = spec.run()
    pram.memory.write(2, 99)  # the scan ends in buffer A: cells 0..3
    with pytest.raises(OracleMismatchError) as err:
        spec.verify(pram)
    assert isinstance(err.value, AssertionError)
    assert (err.value.program, err.value.index) == ("prefix-sum", 2)
    assert (err.value.expected, err.value.got) == ([1, 3, 6, 10], [1, 3, 99, 10])
