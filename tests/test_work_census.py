"""``tools/work_census.py``: the per-layer call counts are deterministic,
every call lands in a named layer, and the engine's calls split into
set-up/finish and the step loop."""

import sys

from repro.emulation import LeveledEmulator
from repro.routing import fast_scalar
from repro.topology import DAryButterflyLeveled
from repro.traffic import OnlineEmulator, PoissonArrivals, UniformKeys, WorkloadGenerator
from tools.work_census import LAYERS, LOOP, OUTSIDE, SETUP, census, layer_of

EPOCHS = 12


def small_unit():
    """A seeded online run on a 16-row butterfly: one emulated step per
    served epoch, as a ``bfly_small_steps`` unit in miniature."""
    net = DAryButterflyLeveled(2, 4)
    emu = LeveledEmulator(net, 1 << 12, mode="crcw", seed=11, engine="fast")
    source = WorkloadGenerator(
        16, arrivals=PoissonArrivals(8.0), keys=UniformKeys(1 << 12), seed=7
    )
    return lambda: OnlineEmulator(emu, source).run(EPOCHS)


def counted_twice():
    small_unit()()  # warm-up: numpy's lazy first-use calls land here
    return [census(small_unit())[1] for _ in range(2)]


def test_two_units_give_the_same_table_and_every_call_lands_in_a_layer():
    first, second = counted_twice()
    assert first.as_dict() == second.as_dict()
    assert sys.getprofile() is None  # the hook is removed after the unit
    report = first.as_dict()
    assert report["steps"] == EPOCHS  # every epoch served one step
    for kind in ("numpy", "python"):
        assert set(report[kind]) == {*LAYERS, OUTSIDE}
        assert report[kind][OUTSIDE] == 0
    numpy = report["numpy"]
    for layer in ("driver + telemetry", "emulation", "router + topology", SETUP, "hashing"):
        assert numpy[layer] > 0, layer
    assert numpy["sharding"] == numpy["obs"] == 0


def test_a_vector_lane_run_counts_its_step_loop(monkeypatch):
    """On the vector lane the phases make numpy calls every step: the
    step loop's share grows with the network steps, set-up's does not."""
    scalar = census(small_unit())[1]
    monkeypatch.setattr(fast_scalar, "SCALAR_RUN_MAX", 0)
    vector = census(small_unit())[1]
    assert vector.numpy[LOOP] > 10 * max(scalar.numpy[LOOP], 1)
    assert vector.numpy[OUTSIDE] == 0


def test_layers_follow_the_module_and_helpers_defer_to_their_caller():
    assert layer_of("repro.traffic.driver") == "driver + telemetry"
    assert layer_of("repro.routing.router") == "router + topology"
    assert layer_of("repro.topology.compiled") == "router + topology"
    assert layer_of("repro.routing.fast_phases") == "engine"
    assert layer_of("repro.apps.programs") == "pram"
    assert layer_of("repro.util.rng") is None
    assert layer_of("repro.faults.runtime") is None
    assert layer_of("numpy") is None
