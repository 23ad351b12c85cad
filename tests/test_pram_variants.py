"""PRAM variants: CRCW write-policy resolution edge cases.

`resolve_writes` is the single point where concurrent writes become one
stored value, so every policy's tie-breaking is pinned here both at the
function level (unordered writer lists, strict vs permissive COMMON)
and through the machine (full CRCW runs are deterministic across
repeats and independent of request arrival order).
"""

import pytest

from repro.pram.machine import Read, Write, run_program
from repro.pram.variants import (
    COMBINE_OPS,
    AccessMode,
    ConcurrentAccessError,
    WritePolicy,
    resolve_writes,
)


class TestResolveWrites:
    def test_single_writer_bypasses_every_policy(self):
        for policy in WritePolicy:
            assert resolve_writes([(3, "v")], policy) == "v"

    def test_needs_at_least_one_writer(self):
        with pytest.raises(ValueError):
            resolve_writes([], WritePolicy.COMMON)

    # -- COMMON ----------------------------------------------------------
    def test_common_agreeing_values(self):
        assert resolve_writes([(0, 7), (5, 7), (2, 7)], WritePolicy.COMMON) == 7

    def test_common_divergence_raises_strict(self):
        with pytest.raises(ConcurrentAccessError):
            resolve_writes([(0, 1), (1, 2)], WritePolicy.COMMON)

    def test_common_divergence_permissive_resolves_lowest_pid(self):
        """strict=False is the race-analysis pre-run path: lowest pid
        wins so the trace keeps going past the conflict being reported."""
        got = resolve_writes(
            [(4, "d"), (1, "b"), (7, "g")], WritePolicy.COMMON, strict=False
        )
        assert got == "b"

    def test_common_distinct_objects_equal_values_agree(self):
        # value agreement is by equality, not identity
        assert resolve_writes(
            [(0, 1.0), (1, 1)], WritePolicy.COMMON
        ) == 1.0

    # -- ARBITRARY / PRIORITY -------------------------------------------
    @pytest.mark.parametrize(
        "policy", [WritePolicy.ARBITRARY, WritePolicy.PRIORITY]
    )
    def test_lowest_pid_wins_regardless_of_list_order(self, policy):
        writers = [(9, "i"), (0, "a"), (4, "e")]
        assert resolve_writes(writers, policy) == "a"
        assert resolve_writes(list(reversed(writers)), policy) == "a"

    # -- COMBINE ---------------------------------------------------------
    @pytest.mark.parametrize(
        "op,values,expected",
        [
            ("sum", [3, 1, 2], 6),
            ("min", [3, 1, 2], 1),
            ("max", [3, 1, 2], 3),
            ("or", [0, 0, 1], 1),
            ("or", [0, 0, 0], 0),
            ("and", [1, 1, 1], 1),
            ("and", [1, 0, 1], 0),
        ],
    )
    def test_combine_ops(self, op, values, expected):
        writers = [(pid, v) for pid, v in enumerate(values)]
        assert resolve_writes(writers, WritePolicy.COMBINE, op) == expected

    def test_combine_is_order_insensitive(self):
        writers = [(2, 5), (0, 1), (1, 3)]
        fwd = resolve_writes(writers, WritePolicy.COMBINE, "sum")
        rev = resolve_writes(list(reversed(writers)), WritePolicy.COMBINE, "sum")
        assert fwd == rev == 9

    def test_unknown_combine_op_raises(self):
        with pytest.raises(ValueError):
            resolve_writes([(0, 1), (1, 2)], WritePolicy.COMBINE, "median")

    def test_combine_ops_registry_matches_policies_doc(self):
        assert set(COMBINE_OPS) == {"sum", "min", "max", "or", "and"}


# ---------------------------------------------------------------------------
# policies through the machine
# ---------------------------------------------------------------------------

def _all_write_pid(pid: int, nprocs: int):
    yield Write(0, pid + 10)


def _all_write_same(pid: int, nprocs: int):
    yield Write(0, 99)


class TestMachinePolicies:
    def _run(self, program, policy, *, combine_op="sum", n=8):
        return run_program(
            program,
            n,
            4,
            mode=AccessMode.CRCW,
            write_policy=policy,
            combine_op=combine_op,
        )

    def test_priority_machine_lowest_pid_wins(self):
        pram = self._run(_all_write_pid, WritePolicy.PRIORITY)
        assert pram.memory.read(0) == 10

    def test_arbitrary_machine_is_deterministic(self):
        runs = [
            self._run(_all_write_pid, WritePolicy.ARBITRARY).memory.read(0)
            for _ in range(3)
        ]
        assert runs == [10, 10, 10]

    def test_combine_machine_sums_all_writers(self):
        pram = self._run(_all_write_pid, WritePolicy.COMBINE)
        assert pram.memory.read(0) == sum(range(10, 18))

    def test_combine_machine_max(self):
        pram = self._run(
            _all_write_pid, WritePolicy.COMBINE, combine_op="max"
        )
        assert pram.memory.read(0) == 17

    def test_common_machine_accepts_agreement(self):
        pram = self._run(_all_write_same, WritePolicy.COMMON)
        assert pram.memory.read(0) == 99

    def test_common_machine_rejects_divergence(self):
        with pytest.raises(ConcurrentAccessError):
            self._run(_all_write_pid, WritePolicy.COMMON)

    def test_repeated_runs_identical_traces(self):
        def program(pid, nprocs):
            v = yield Read(pid % 2)
            yield Write(0, (v or 0) + 1)

        def snap():
            pram = run_program(
                program,
                6,
                4,
                mode=AccessMode.CRCW,
                write_policy=WritePolicy.COMBINE,
                init={0: 5, 1: 5},
            )
            return (
                pram.memory.read(0),
                [
                    list(zip(s.pids.tolist(), s.addrs.tolist(), s.values.tolist()))
                    for s in pram.trace.steps
                ],
            )

        assert snap() == snap()
