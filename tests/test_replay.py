"""End-to-end integration: PRAM programs replayed on network emulators.

The strongest correctness statement in the reproduction: the same program
leaves identical memory on the abstract PRAM and on every emulating
network, while the emulation cost obeys the theorems.
"""

from dataclasses import replace

import pytest

from repro.emulation import LeveledEmulator, MeshEmulator, replay_program
from repro.pram.memory import SharedMemory
from repro.pram import (
    boolean_or,
    broadcast,
    histogram,
    list_ranking,
    odd_even_sort,
    parallel_sum,
    prefix_sum,
)
from repro.sharding import ShardedEmulator
from repro.topology import DAryButterflyLeveled, Mesh2D, ShuffleLeveled, StarLogicalLeveled


def leveled_emulator(net, m, *, seed=0, mode="crcw"):
    return LeveledEmulator(net, address_space=m, mode=mode, seed=seed)


class TestReplayOnLeveledNetworks:
    def test_parallel_sum_on_butterfly(self):
        spec = parallel_sum(list(range(16)))
        net = DAryButterflyLeveled(2, 4)  # 16 processors
        result = replay_program(spec, leveled_emulator(net, spec.memory_size, seed=1))
        assert result.memory_matches
        assert result.report.pram_steps == spec.run().steps_executed
        # Theorem 2.5/2.6 shape on every step
        report = result.report
        assert max(c.total_steps for c in report.costs) <= 12 * report.scale

    def test_prefix_sum_on_star_logical(self):
        spec = prefix_sum(list(range(1, 17)))  # 16 procs, 32 cells
        net = StarLogicalLeveled(4)  # 24 processors
        emu = LeveledEmulator(net, address_space=spec.memory_size, mode="crcw", intermediate="node", seed=2)
        result = replay_program(spec, emu)
        assert result.memory_matches

    def test_boolean_or_on_shuffle(self):
        spec = boolean_or([0] * 20 + [1] * 7)  # 27 procs = 3-way shuffle
        net = ShuffleLeveled(3, 3)
        result = replay_program(spec, leveled_emulator(net, spec.memory_size, seed=3))
        assert result.memory_matches
        assert result.report.pram_steps == 2  # O(1) CRCW trick survives emulation

    def test_histogram_with_combining_writes(self):
        spec = histogram([0, 1, 1, 2, 2, 2, 3, 0] * 2, 4)
        net = DAryButterflyLeveled(2, 4)
        result = replay_program(spec, leveled_emulator(net, spec.memory_size, seed=4))
        assert result.memory_matches
        assert result.report.total_combines >= 0

    def test_broadcast_on_butterfly(self):
        spec = broadcast(16, value="hi")
        net = DAryButterflyLeveled(2, 4)
        result = replay_program(spec, leveled_emulator(net, spec.memory_size, seed=5))
        assert result.memory_matches


class TestReplayOnMesh:
    def test_odd_even_sort_on_mesh(self):
        spec = odd_even_sort([5, 3, 8, 1, 9, 2, 7, 4, 6, 0, 11, 10, 15, 14, 13, 12])
        emu = MeshEmulator(Mesh2D.square(4), address_space=spec.memory_size, mode="crcw", seed=6)
        result = replay_program(spec, emu)
        assert result.memory_matches
        # final memory is the sorted array
        assert emu.memory.snapshot(0, 16) == sorted(range(16))

    def test_list_ranking_on_mesh(self):
        spec = list_ranking([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 15])
        emu = MeshEmulator(Mesh2D.square(4), address_space=spec.memory_size, mode="crcw", seed=7)
        result = replay_program(spec, emu)
        assert result.memory_matches

    def test_mesh_slowdown_within_bound(self):
        spec = parallel_sum(list(range(16)))
        emu = MeshEmulator(Mesh2D.square(4), address_space=spec.memory_size, mode="crcw", seed=8)
        result = replay_program(spec, emu)
        assert result.memory_matches
        # Theorem 3.2 flavor: each step within a liberal multiple of n
        assert max(c.total_steps for c in result.report.costs) <= 14 * 4


class TestReplayValidation:
    def test_rejects_undersized_network(self):
        spec = parallel_sum(list(range(64)))
        net = DAryButterflyLeveled(2, 4)  # only 16 processors
        with pytest.raises(ValueError):
            replay_program(spec, leveled_emulator(net, spec.memory_size))

    def test_rejects_undersized_memory(self):
        spec = prefix_sum(list(range(16)))  # needs 32 cells
        net = DAryButterflyLeveled(2, 4)
        with pytest.raises(ValueError):
            replay_program(spec, leveled_emulator(net, 16))

    def test_rejects_erew_emulator_for_concurrent_program(self):
        spec = boolean_or([1, 0, 1, 0])
        net = DAryButterflyLeveled(2, 2)
        emu = LeveledEmulator(net, address_space=spec.memory_size, mode="erew", seed=9)
        with pytest.raises(ValueError):
            replay_program(spec, emu)

    def test_slowdown_property(self):
        spec = broadcast(8)
        net = DAryButterflyLeveled(2, 3)
        result = replay_program(spec, leveled_emulator(net, spec.memory_size, seed=10))
        assert result.slowdown > 0
        assert result.cells_checked == spec.memory_size


def replay_tampered(spec, emulator, tamper):
    """``replay_program`` with *tamper(memory)* applied to the emulator's
    memory between the emulation and the check."""
    emulate = emulator.emulate_trace

    def emulate_then_tamper(trace):
        report = emulate(trace)
        tamper(emulator.memory)
        return report

    emulator.emulate_trace = emulate_then_tamper
    return replay_program(spec, emulator)


class TestMemoryVerification:
    """The check reads the cells either execution wrote — both memories
    are sparse and read 0 elsewhere — and covers all ``memory_size``."""

    #: broadcast over cells [0, 16) of a 64-cell memory
    SPEC = replace(broadcast(16, value=7), memory_size=64)

    def emulator(self, seed=11):
        return leveled_emulator(DAryButterflyLeveled(2, 4), 64, seed=seed, mode="erew")

    def test_untampered_run_matches(self):
        result = replay_tampered(self.SPEC, self.emulator(), lambda memory: None)
        assert result.memory_matches and result.cells_checked == 64

    def test_a_cell_written_by_the_emulator_only_is_a_mismatch(self):
        result = replay_tampered(
            self.SPEC, self.emulator(), lambda memory: memory.write(40, 1)
        )
        assert not result.memory_matches
        # ... unless what it wrote is what an untouched cell reads
        result = replay_tampered(
            self.SPEC, self.emulator(), lambda memory: memory.write(40, 0)
        )
        assert result.memory_matches

    def test_a_cell_written_natively_only_is_a_mismatch(self):
        emulator = self.emulator()
        emulator.emulate_trace = lambda trace: None  # the network ran nothing
        result = replay_program(self.SPEC, emulator)
        assert set(emulator.memory.touched()) == {0}  # the program's init value
        assert not result.memory_matches

    def test_a_touched_cell_that_differs_is_found(self):
        result = replay_tampered(
            self.SPEC, self.emulator(), lambda memory: memory.write(9, 8)
        )
        assert not result.memory_matches

    def test_cells_past_the_program_memory_are_not_compared(self):
        emulator = leveled_emulator(DAryButterflyLeveled(2, 4), 128, seed=11, mode="erew")
        result = replay_tampered(self.SPEC, emulator, lambda memory: memory.write(100, 1))
        assert result.memory_matches

    def sharded(self):
        net = DAryButterflyLeveled(2, 4)

        def factory(index, seed):
            return LeveledEmulator(net, 64, mode="erew", seed=seed)

        return ShardedEmulator(factory, 3, 64, seed=5)

    def test_sharded_memory_is_verified_over_the_union_of_its_shards(self):
        service = self.sharded()
        result = replay_tampered(self.SPEC, service, lambda memory: None)
        assert result.memory_matches
        assert service.memory.touched() == set(range(16))
        per_shard = [set(shard.memory.touched()) for shard in service.shards]
        assert sum(map(len, per_shard)) == 16 and max(map(len, per_shard)) < 16
        # a stray cell on one shard is seen through the facade
        result = replay_tampered(
            self.SPEC, self.sharded(), lambda memory: memory.write(40, 1)
        )
        assert not result.memory_matches

    def test_a_large_sparse_memory_is_verified_in_reads_of_touched_cells(
        self, monkeypatch
    ):
        spec = replace(self.SPEC, memory_size=1 << 20)
        emulator = leveled_emulator(
            DAryButterflyLeveled(2, 4), 1 << 20, seed=11, mode="erew"
        )
        reads = []
        read = SharedMemory.read

        def counted(memory, addr):
            reads.append(addr)
            return read(memory, addr)

        emulate = emulator.emulate_trace

        def emulate_then_count(trace):
            report = emulate(trace)
            monkeypatch.setattr(SharedMemory, "read", counted)
            return report

        emulator.emulate_trace = emulate_then_count
        result = replay_program(spec, emulator)
        assert result.memory_matches and result.cells_checked == 1 << 20
        # two reads (one a side) per cell either execution wrote
        assert sorted(reads) == sorted(list(range(16)) * 2)
