"""Tests for the PRAM program library and synthetic traces."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pram import (
    ALL_PROGRAM_BUILDERS,
    boolean_or,
    broadcast,
    find_max,
    histogram,
    hotspot_step,
    list_ranking,
    local_step_for_mesh,
    matrix_multiply,
    odd_even_sort,
    parallel_sum,
    permutation_step,
    prefix_sum,
    random_trace,
)
from repro.pram.trace import RequestColumns


class TestPrograms:
    def test_all_builders_run_and_verify(self):
        for name, builder in ALL_PROGRAM_BUILDERS.items():
            spec = builder()
            spec.run()  # verify() raises on failure

    def test_parallel_sum_values(self):
        spec = parallel_sum([2.0] * 32)
        pram = spec.run()
        assert pram.memory.read(0) == 64.0

    def test_parallel_sum_step_count_logarithmic(self):
        spec = parallel_sum(list(range(64)))
        pram = spec.run()
        # 3 PRAM steps per round, log2(64)=6 rounds
        assert pram.steps_executed == 3 * 6

    def test_parallel_sum_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            parallel_sum([1, 2, 3])

    @given(st.lists(st.integers(-100, 100), min_size=8, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_prefix_sum_property(self, values):
        prefix_sum(values).run()

    def test_broadcast_steps(self):
        spec = broadcast(32, value="hello")
        pram = spec.run()
        assert pram.steps_executed == 2 * 5

    def test_boolean_or_all_zero(self):
        boolean_or([0] * 8).run()

    def test_boolean_or_single_one(self):
        spec = boolean_or([0, 0, 1, 0])
        pram = spec.run()
        assert pram.steps_executed == 2  # O(1) CRCW trick

    def test_find_max_with_duplicates(self):
        find_max([5, 9, 9, 1]).run()

    def test_find_max_negative(self):
        find_max([-5, -2, -9]).run()

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=10))
    @settings(max_examples=20, deadline=None)
    def test_find_max_property(self, values):
        find_max(values).run()

    def test_list_ranking_chain(self):
        # 0 -> 1 -> 2 -> 3 (tail), ranks = 3,2,1,0
        pram = list_ranking([1, 2, 3, 3]).run()
        n = 4
        assert [pram.memory.read(n + i) for i in range(n)] == [3, 2, 1, 0]

    def test_list_ranking_shuffled(self):
        # list: 2 -> 0 -> 3 -> 1(tail): next[2]=0, next[0]=3, next[3]=1, next[1]=1
        list_ranking([3, 1, 0, 1]).run()

    def test_list_ranking_rejects_cycle(self):
        with pytest.raises(ValueError):
            list_ranking([1, 0])

    def test_matrix_multiply_identity(self):
        ident = [[1, 0], [0, 1]]
        a = [[2, 3], [4, 5]]
        matrix_multiply(a, ident).run()

    def test_matrix_multiply_rejects_ragged(self):
        with pytest.raises(ValueError):
            matrix_multiply([[1, 2]], [[1], [2]])

    @given(st.lists(st.integers(-20, 20), min_size=2, max_size=12))
    @settings(max_examples=20, deadline=None)
    def test_odd_even_sort_property(self, values):
        odd_even_sort(values).run()

    def test_histogram_counts(self):
        pram = histogram([1, 1, 1, 0], 2).run()
        assert pram.memory.read(4) == 1
        assert pram.memory.read(5) == 3

    def test_histogram_validates_keys(self):
        with pytest.raises(ValueError):
            histogram([5], 2)


class TestSyntheticTraces:
    def test_permutation_step_is_erew(self):
        step = permutation_step(16, 64, seed=1)
        assert step.is_erew()
        assert step.num_requests == 16

    def test_permutation_step_write_kind(self):
        step = permutation_step(8, 32, seed=2, kind="write")
        assert step.num_requests == 8 and not step.is_read.any()
        assert step.values.tolist() == list(range(8))

    def test_permutation_step_validates(self):
        with pytest.raises(ValueError):
            permutation_step(10, 5, seed=0)
        # a misspelt kind used to fall through to writes
        with pytest.raises(ValueError, match="'wirte'"):
            permutation_step(4, 16, seed=0, kind="wirte")

    def test_hotspot_step_concentrates(self):
        step = hotspot_step(64, 256, hot_addresses=1, hot_fraction=1.0, seed=4)
        assert step.max_concurrency() == 64

    def test_max_concurrency_counts_requests_not_the_address_space(self):
        # the old count — a bincount over addresses up to the largest —
        # stays the definition, wherever it can be afforded
        steps = [
            permutation_step(16, 64, seed=1),
            permutation_step(8, 32, seed=2, kind="write"),
            hotspot_step(64, 256, hot_addresses=1, hot_fraction=1.0, seed=4),
            hotspot_step(64, 256, hot_addresses=3, hot_fraction=0.5, seed=5),
        ]
        for step in steps:
            assert step.max_concurrency() == int(np.bincount(step.addrs).max())
        assert RequestColumns.of().max_concurrency() == 0 and RequestColumns.of().is_erew()
        # an address no counter array could span
        far = RequestColumns.of(
            reads=[(0, 2**40), (1, 5)],
            writes=[(2, 2**40, 1)],
        )
        assert far.max_concurrency() == 2 and not far.is_erew()
        assert RequestColumns.of(reads=[(0, 2**40)]).is_erew()

    def test_hotspot_fraction_validation(self):
        with pytest.raises(ValueError):
            hotspot_step(4, 16, hot_fraction=1.5)

    def test_local_step_respects_distance(self):
        n, d = 8, 2
        step = local_step_for_mesh(n, d, seed=5)
        assert step.num_requests == n * n
        assert step.is_read.all()
        for pid, addr in zip(step.pids.tolist(), step.addrs.tolist()):
            pr, pc = divmod(pid, n)
            ar, ac = divmod(addr, n)
            assert abs(pr - ar) + abs(pc - ac) <= d

    def test_random_trace_shape(self):
        trace = random_trace(16, 64, 5, seed=6)
        assert len(trace) == 5
        assert all(s.is_erew() for s in trace)
        assert sum(s.num_requests for s in trace.steps) == 80

    #: per generator, a digest of the columns (pids, addrs, is_read,
    #: values) it drew at seeds 0-4, recorded when the generators still
    #: built request objects: a rewrite must keep every draw
    GOLDEN_DIGESTS = {
        "hotspot": ["1c413b83292ce389", "48bf6a661720a0eb", "b1c04f2af1085539", "92bcd22cac23daa0", "ee2e223e27e791a6"],
        "local_mesh": ["e123a69063fcb03d", "b0f4b25c8e73f60d", "b751200a6278b909", "ed6b476c0e0eaf6e", "ea25b75b34c01fc7"],
        "permutation_read": ["226eaf1f7a351dae", "d96ced0edf41478d", "c4538844a6ac9448", "018677fa9a0dd647", "9e0fc95381fc1393"],
        "permutation_write": ["f85f807ba2eb3e7a", "0e41995af404f38f", "ae0dfa64b83d3d8e", "998c30b0f14fd5f2", "746b2840ffb4b5d4"],
        "random_trace_crcw": ["f6cb606405708eb1", "cec00b839716a496", "7e7811ccc4792a52", "da707a2c3b05fed4", "5ca9c38076263dbc"],
        "random_trace_erew": ["b586ef20db04803a", "f143bc111a4df5a8", "efcb85b2145ec96b", "4916078276da7ca6", "63b0a5eb99b9c9ed"],
    }  # fmt: skip

    @staticmethod
    def _digest(step) -> str:
        h = hashlib.sha256()
        for column in (step.pids, step.addrs, step.is_read):
            h.update(np.ascontiguousarray(column).astype(np.int64).tobytes())
        h.update(repr(step.values.tolist()).encode())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize("seed", range(5))
    def test_generators_draw_what_they_drew(self, seed):
        def trace_digest(trace):
            joined = "".join(self._digest(s) for s in trace.steps)
            return hashlib.sha256(joined.encode()).hexdigest()[:16]

        drawn = {
            "hotspot": self._digest(
                hotspot_step(20, 100, hot_addresses=3, hot_fraction=0.6, seed=seed)
            ),
            "local_mesh": self._digest(local_step_for_mesh(6, 3, seed)),
            "permutation_read": self._digest(permutation_step(16, 64, seed)),
            "permutation_write": self._digest(permutation_step(16, 64, seed, kind="write")),
            "random_trace_crcw": trace_digest(
                random_trace(10, 50, 4, seed, read_fraction=0.4, erew=False)
            ),
            "random_trace_erew": trace_digest(
                random_trace(10, 50, 4, seed, read_fraction=0.4, erew=True)
            ),
        }
        assert drawn == {name: digests[seed] for name, digests in self.GOLDEN_DIGESTS.items()}

    def test_random_trace_non_erew(self):
        trace = random_trace(32, 8, 3, seed=7, erew=False)
        assert any(not s.is_erew() for s in trace)
