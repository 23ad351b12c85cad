"""Online traffic subsystem: generators, driver, telemetry.

Pins the three contracts ISSUE 5 calls out:

* **seed stability** — every workload generator is a pure function of
  its seed: same seed, bit-identical request stream;
* **engine independence** — an online run on ``engine="fast"`` matches
  ``engine="reference"`` epoch for epoch (steps, sojourns, counters);
* **conservation** — admission-queue carry-over under saturation never
  loses or duplicates a request, with either overflow policy;

plus the dispatch-history guarantee: online epochs stay on the
vectorized batch / constrained-batch engine modes, never silently the
reference engine.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import batch_of, queued
from repro.emulation import LeveledEmulator, MeshEmulator
from repro.topology import DAryButterflyLeveled, Mesh2D
from repro.traffic import (
    BurstyArrivals,
    DeterministicArrivals,
    HotspotKeys,
    OnlineEmulator,
    PoissonArrivals,
    RequestBatch,
    TrafficReport,
    TrafficRequest,
    UniformKeys,
    WorkloadGenerator,
    ZipfKeys,
)
from repro.traffic.generators import RID

SPACE = 256

ARRIVALS = {
    "deterministic": lambda: DeterministicArrivals(5.5),
    "poisson": lambda: PoissonArrivals(6.0),
    "bursty": lambda: BurstyArrivals(
        9.0, 1.0, p_exit_on=0.3, p_exit_off=0.4
    ),
}

KEYS = {
    "uniform": lambda: UniformKeys(SPACE),
    "zipf": lambda: ZipfKeys(SPACE, exponent=1.2),
    "hotspot": lambda: HotspotKeys(SPACE, hot_addresses=3, hot_fraction=0.7),
}


def _flatten(stream):
    return [r for epoch in stream for r in epoch]


class TestGeneratorSeedStability:
    @pytest.mark.parametrize("arrival_name", sorted(ARRIVALS))
    @pytest.mark.parametrize("key_name", sorted(KEYS))
    def test_same_seed_identical_stream(self, arrival_name, key_name):
        def build():
            return WorkloadGenerator(
                16,
                arrivals=ARRIVALS[arrival_name](),
                keys=KEYS[key_name](),
                read_fraction=0.75,
                seed=42,
            )

        a = _flatten(build().stream(25))
        b = _flatten(build().stream(25))
        assert a == b  # TrafficRequest is a frozen dataclass: field equality
        assert len(a) > 0

    def test_stream_is_replayable_on_one_generator(self):
        wl = WorkloadGenerator(
            8, arrivals=PoissonArrivals(4.0), keys=UniformKeys(SPACE), seed=3
        )
        assert _flatten(wl.stream(10)) == _flatten(wl.stream(10))

    def test_stream_prefix_stable_across_horizons(self):
        """The first k epochs do not depend on how far the stream runs."""
        wl1 = WorkloadGenerator(
            8, arrivals=DeterministicArrivals(3), keys=UniformKeys(SPACE), seed=5
        )
        wl2 = WorkloadGenerator(
            8, arrivals=DeterministicArrivals(3), keys=UniformKeys(SPACE), seed=5
        )
        assert wl1.stream(30)[:10] == wl2.stream(10)

    def test_different_seeds_differ(self):
        def build(seed):
            return WorkloadGenerator(
                16,
                arrivals=PoissonArrivals(6.0),
                keys=UniformKeys(SPACE),
                seed=seed,
            )

        assert _flatten(build(1).stream(20)) != _flatten(build(2).stream(20))

    def test_rids_unique_and_monotone(self):
        wl = WorkloadGenerator(
            16, arrivals=PoissonArrivals(7.0), keys=ZipfKeys(SPACE), seed=11
        )
        reqs = _flatten(wl.stream(20))
        rids = [r.rid for r in reqs]
        assert rids == list(range(len(reqs)))


#: sha256 of the object stream the per-request generator produced (three
#: seeds x 25 epochs of Zipf keys per cell), computed at the commit before
#: ``stream`` returned column batches
OBJECT_STREAM_SHA256 = {
    ("bursty", "mixed"): "d9f2c274784810883685981c4a9cda95f8ea0c75a656a0bd7ae46c778965da60",
    ("bursty", "reads"): "89eac34f5ab749512c4c75bb36d97510f45e77b711195a3c0815231c4e0773a5",
    ("bursty", "writes"): "7bbb26928da95ef89e22b8046addc26a27cfa309d7e103f5b8ad14e74f2b0fb0",
    ("deterministic", "mixed"): "0d808e7aefc6405f35ed53685a28212bb1acebd3fd0bdce2d1cc2a59e99fcb75",
    ("deterministic", "reads"): "d4243fdeb4004a267c4ad7641bb6ff01ee2e0925ae2f3befcfc3b2651dea91e7",
    ("deterministic", "writes"): "cd3e3ac42733845c24d254f9f9a2ebaf05fe7094a99d0c06fce56332165a003e",
    ("poisson", "mixed"): "043068bdae24060979d71d7bdcc47ef92f6770b0cec5b168bb0a28ae6766682c",
    ("poisson", "reads"): "aa308d5a413beb97621ef534d2d881b354802706da1ff710c6097252ff03d419",
    ("poisson", "writes"): "027e815cba161cc53c6da8642041610b2676ff11b42525f3cae8c1eecfde34bc",
}
READ_FRACTIONS = {"reads": 1.0, "mixed": 0.6, "writes": 0.0}


class TestRequestBatch:
    @pytest.mark.parametrize("arrival_name,mix", sorted(OBJECT_STREAM_SHA256))
    def test_row_views_are_the_object_stream(self, arrival_name, mix):
        """Same draws, same order, same values: iterating the column
        batches yields request for request what the generator used to
        build one object at a time."""
        dump = []
        for seed in (3, 11, 2024):
            wl = WorkloadGenerator(
                16,
                arrivals=ARRIVALS[arrival_name](),
                keys=ZipfKeys(SPACE, exponent=1.2),
                read_fraction=READ_FRACTIONS[mix],
                seed=seed,
            )
            stream = wl.stream(25)
            assert all(isinstance(batch, RequestBatch) for batch in stream)
            dump.append([[dataclasses.astuple(r) for r in batch] for batch in stream])
        sha = hashlib.sha256(repr(dump).encode()).hexdigest()
        assert sha == OBJECT_STREAM_SHA256[arrival_name, mix]

    def test_object_surface(self):
        reqs = [
            TrafficRequest(0, 3, 9, "read", 0, tenant="b"),
            TrafficRequest(1, 2, 9, "write", 0, value=-5, tenant="a"),
            TrafficRequest(2, 1, 4, "write", 1, value=2, tenant="b"),
        ]
        batch = batch_of(reqs)
        assert len(batch) == 3 and list(batch) == reqs
        assert batch.tenants == ("b", "a")
        assert list(batch[1:]) == reqs[1:] and len(batch[:0]) == 0
        # equality is by request, not by how the tenants were indexed
        assert batch[1:] == batch_of(reqs[1:])
        assert batch != batch[:2]
        assert list(batch_of([])) == []


class TestArrivalProcesses:
    def test_deterministic_fractional_rate_accumulates(self):
        counts = DeterministicArrivals(1.5).counts(10, np.random.default_rng(0))
        assert counts.sum() == 15
        assert set(counts.tolist()) == {1, 2}

    def test_deterministic_draws_no_randomness(self):
        rng = np.random.default_rng(0)
        DeterministicArrivals(2.0).counts(5, rng)
        assert rng.integers(100) == np.random.default_rng(0).integers(100)

    def test_poisson_mean(self):
        counts = PoissonArrivals(8.0).counts(2000, np.random.default_rng(1))
        assert abs(counts.mean() - 8.0) < 0.5

    def test_bursty_tracks_stationary_mix(self):
        proc = BurstyArrivals(10.0, 1.0, p_exit_on=0.2, p_exit_off=0.2)
        counts = proc.counts(4000, np.random.default_rng(2))
        assert abs(counts.mean() - proc.mean_rate()) < 0.5

    def test_bursty_actually_bursts(self):
        proc = BurstyArrivals(20.0, 0.0, p_exit_on=0.1, p_exit_off=0.1)
        counts = proc.counts(400, np.random.default_rng(3))
        assert (counts == 0).any() and (counts >= 10).any()


class TestKeyDistributions:
    @pytest.mark.parametrize("key_name", sorted(KEYS))
    def test_draws_in_range(self, key_name):
        draws = KEYS[key_name]().draw(500, np.random.default_rng(4))
        assert draws.shape == (500,)
        assert draws.min() >= 0 and draws.max() < SPACE

    def test_zipf_rank_order(self):
        draws = ZipfKeys(SPACE, exponent=1.3).draw(
            20000, np.random.default_rng(5)
        )
        counts = np.bincount(draws, minlength=SPACE)
        assert counts[0] > counts[10] > counts[100]

    def test_hotspot_fraction(self):
        keys = HotspotKeys(SPACE, hot_addresses=2, hot_fraction=0.8)
        draws = keys.draw(20000, np.random.default_rng(6))
        hot_share = (draws < 2).mean()
        assert 0.75 < hot_share < 0.85


def _mesh_driver(engine, *, mode="crcw", capacity=None, flow="none", seed=9):
    mesh = Mesh2D.square(6)
    n = mesh.num_nodes
    em = MeshEmulator(
        mesh,
        4 * n,
        mode=mode,
        seed=5,
        engine=engine,
        node_capacity=capacity,
        flow_control=flow,
    )
    wl = WorkloadGenerator(
        n,
        arrivals=PoissonArrivals(0.8 * n),
        keys=HotspotKeys(4 * n, hot_addresses=3, hot_fraction=0.5),
        read_fraction=0.8,
        seed=seed,
    )
    return OnlineEmulator(em, wl)


def _leveled_driver(engine, *, capacity=None, flow="none", seed=9):
    net = DAryButterflyLeveled(2, 5)
    n = net.column_size
    em = LeveledEmulator(
        net,
        4 * n,
        mode="crcw",
        seed=5,
        engine=engine,
        node_capacity=capacity,
        flow_control=flow,
    )
    wl = WorkloadGenerator(
        n,
        arrivals=BurstyArrivals(1.5 * n, 0.2 * n, p_exit_on=0.3, p_exit_off=0.3),
        keys=ZipfKeys(4 * n, exponent=1.1),
        read_fraction=0.8,
        seed=seed,
    )
    return OnlineEmulator(em, wl)


EPOCH_FIELDS = (
    "arrivals",
    "dropped",
    "admitted",
    "backlog",
    "steps",
    "request_steps",
    "reply_steps",
    "rehashes",
    "combines",
    "max_queue",
    "credits_stalled",
    "clock",
    "sojourns",
    "sojourns_epochs",
)


def assert_reports_equal(a: TrafficReport, b: TrafficReport):
    """Epoch-for-epoch equality on everything except the engine modes."""
    assert a.num_epochs == b.num_epochs
    for ea, eb in zip(a.epochs, b.epochs):
        for field in EPOCH_FIELDS:
            assert getattr(ea, field) == getattr(eb, field), (
                f"epoch {ea.epoch}: {field}"
            )


class TestEngineDifferential:
    """Same-seed online runs are bit-identical across engines."""

    def test_mesh_crcw_online(self):
        assert_reports_equal(
            _mesh_driver("fast").run(15), _mesh_driver("reference").run(15)
        )

    def test_mesh_credit_online(self):
        fast = _mesh_driver("fast", capacity=3, flow="credit").run(12)
        ref = _mesh_driver("reference", capacity=3, flow="credit").run(12)
        assert_reports_equal(fast, ref)

    def test_leveled_crcw_online(self):
        assert_reports_equal(
            _leveled_driver("fast").run(15),
            _leveled_driver("reference").run(15),
        )

    def test_leveled_credit_online(self):
        fast = _leveled_driver("fast", capacity=2, flow="credit").run(12)
        ref = _leveled_driver("reference", capacity=2, flow="credit").run(12)
        assert_reports_equal(fast, ref)


class TestDispatchHistory:
    """Online epochs never fall back to the reference engine."""

    def test_mesh_online_dispatches_batch_every_epoch(self):
        report = _mesh_driver("fast").run(15)
        assert report.num_epochs == 15
        for e in report.epochs:
            assert e.run_modes, "every epoch should have routed at least one run"
            for m in e.run_modes:
                assert m == "batch", f"silent fallback to {m!r}"

    def test_mesh_credit_online_dispatches_constrained_batch(self):
        report = _mesh_driver("fast", capacity=3, flow="credit").run(12)
        flat = [m for e in report.epochs for m in e.run_modes]
        assert flat, "no routing runs recorded"
        # Requests route under capacity (constrained batch); the CRCW
        # reply fan-out intentionally runs unconstrained (plain batch).
        assert set(flat) <= {"batch-constrained", "batch"}
        assert "batch-constrained" in flat

    def test_reference_engine_reports_reference_modes(self):
        report = _mesh_driver("reference").run(6)
        flat = [m for e in report.epochs for m in e.run_modes]
        assert flat and set(flat) == {"reference"}

    def test_run_mode_counts(self):
        report = _mesh_driver("fast").run(6)
        counts = report.run_mode_counts()
        assert set(counts) == {"batch"}
        assert counts["batch"] == sum(len(e.run_modes) for e in report.epochs)


class TestAdmissionConservation:
    """Carry-over under saturation never loses or duplicates requests."""

    @staticmethod
    def _saturated_driver(overflow="defer", queue_limit=None, exclusive=False):
        mesh = Mesh2D.square(4)
        n = mesh.num_nodes
        em = MeshEmulator(mesh, 4 * n, mode="crcw", seed=5, engine="fast")
        wl = WorkloadGenerator(
            n,
            arrivals=PoissonArrivals(3.0 * n),  # 3x the admit limit
            keys=ZipfKeys(4 * n, exponent=1.2),
            seed=21,
        )
        return OnlineEmulator(
            em,
            wl,
            overflow=overflow,
            queue_limit=queue_limit,
            exclusive=exclusive,
        )

    def test_defer_conserves_requests(self):
        driver = self._saturated_driver()
        report = driver.run(12)
        assert report.total_dropped == 0
        assert (
            report.total_arrivals
            == report.total_delivered + report.final_backlog
        )
        assert report.final_backlog > 0  # genuinely saturated
        assert report.steady_state()["saturated"] == 1.0

    def test_drop_conserves_requests(self):
        driver = self._saturated_driver(overflow="drop", queue_limit=24)
        report = driver.run(12)
        assert report.total_dropped > 0
        assert (
            report.total_arrivals
            == report.total_delivered + report.total_dropped
            + report.final_backlog
        )
        assert report.final_backlog <= 24

    def test_exclusive_conserves_requests(self):
        driver = self._saturated_driver(exclusive=True)
        report = driver.run(12)
        assert (
            report.total_arrivals
            == report.total_delivered + report.final_backlog
        )

    def test_no_request_duplicated_or_lost(self):
        """Served + still-queued rids partition the generated rid set."""
        driver = self._saturated_driver(exclusive=True)
        served: list[int] = []
        original_step = driver.emulator.emulate_step

        def spy(step):
            served.extend(step.values[step.is_read == 0].tolist())
            return original_step(step)

        driver.emulator.emulate_step = spy
        # All-write workload so every admitted rid is observable.
        driver.workload.read_fraction = 0.0
        report = driver.run(12)
        waiting = [req.rid for req, _ in queued(driver)]
        all_rids = served + waiting
        assert len(all_rids) == len(set(all_rids))  # no duplicates
        assert sorted(all_rids) == list(range(report.total_arrivals))

    def test_fifo_order_without_exclusive(self):
        driver = self._saturated_driver()
        admitted: list[int] = []
        original_admit = driver._admit

        def spy():
            batch = original_admit()
            admitted.extend(batch[RID].tolist())
            return batch

        driver._admit = spy
        driver.run(8)
        assert admitted == sorted(admitted)


class TestExclusiveAdmission:
    def test_erew_defaults_to_exclusive(self):
        mesh = Mesh2D.square(4)
        n = mesh.num_nodes
        em = MeshEmulator(mesh, 4 * n, mode="erew", seed=5, engine="fast")
        wl = WorkloadGenerator(
            n,
            arrivals=PoissonArrivals(0.8 * n),
            keys=HotspotKeys(4 * n, hot_addresses=2, hot_fraction=0.6),
            seed=13,
        )
        driver = OnlineEmulator(em, wl)
        assert driver.exclusive is True
        report = driver.run(10)  # would raise inside emulate_step otherwise
        assert report.total_delivered > 0

    def test_crcw_defaults_to_inclusive(self):
        driver = _mesh_driver("fast")
        assert driver.exclusive is False

    def test_exclusive_epochs_have_unique_addresses(self):
        mesh = Mesh2D.square(4)
        n = mesh.num_nodes
        em = MeshEmulator(mesh, 4 * n, mode="erew", seed=5, engine="fast")
        wl = WorkloadGenerator(
            n,
            arrivals=DeterministicArrivals(n),
            keys=HotspotKeys(4 * n, hot_addresses=1, hot_fraction=0.5),
            seed=17,
        )
        driver = OnlineEmulator(em, wl)
        seen: list[list[int]] = []
        original_step = em.emulate_step

        def spy(step):
            seen.append(step.addrs[step.is_read != 0].tolist())
            return original_step(step)

        em.emulate_step = spy
        driver.run(8)
        for addrs in seen:
            assert len(addrs) == len(set(addrs))


class TestDriverValidation:
    def test_one_shot(self):
        driver = _mesh_driver("fast")
        driver.run(2)
        with pytest.raises(RuntimeError, match="one-shot"):
            driver.run(2)

    def test_invalid_epochs_do_not_poison_the_driver(self):
        driver = _mesh_driver("fast")
        with pytest.raises(ValueError, match="epochs"):
            driver.run(0)
        assert driver.run(2).num_epochs == 2  # still usable

    def test_queue_limit_rejected_under_defer(self):
        mesh = Mesh2D.square(4)
        em = MeshEmulator(mesh, 64, mode="crcw", seed=1)
        wl = WorkloadGenerator(
            16, arrivals=PoissonArrivals(4), keys=UniformKeys(64), seed=1
        )
        with pytest.raises(ValueError, match="defer"):
            OnlineEmulator(em, wl, queue_limit=10)

    def test_drop_requires_queue_limit(self):
        mesh = Mesh2D.square(4)
        em = MeshEmulator(mesh, 64, mode="crcw", seed=1)
        wl = WorkloadGenerator(
            16, arrivals=PoissonArrivals(4), keys=UniformKeys(64), seed=1
        )
        with pytest.raises(ValueError, match="queue_limit"):
            OnlineEmulator(em, wl, overflow="drop")

    def test_unknown_overflow_policy(self):
        mesh = Mesh2D.square(4)
        em = MeshEmulator(mesh, 64, mode="crcw", seed=1)
        wl = WorkloadGenerator(
            16, arrivals=PoissonArrivals(4), keys=UniformKeys(64), seed=1
        )
        with pytest.raises(ValueError, match="overflow"):
            OnlineEmulator(em, wl, overflow="spill")

    def test_workload_must_fit_emulator(self):
        mesh = Mesh2D.square(4)
        em = MeshEmulator(mesh, 64, mode="crcw", seed=1)
        wl = WorkloadGenerator(
            17, arrivals=PoissonArrivals(4), keys=UniformKeys(64), seed=1
        )
        with pytest.raises(ValueError, match="processors"):
            OnlineEmulator(em, wl)

    def test_workload_keys_must_fit_emulator_memory(self):
        mesh = Mesh2D.square(4)
        em = MeshEmulator(mesh, 32, mode="crcw", seed=1)
        wl = WorkloadGenerator(
            16, arrivals=PoissonArrivals(4), keys=UniformKeys(1024), seed=1
        )
        with pytest.raises(ValueError, match="memory"):
            OnlineEmulator(em, wl)


class TestTelemetry:
    @pytest.fixture(scope="class")
    def report(self):
        return _mesh_driver("fast").run(15)

    def test_percentiles_monotone(self, report):
        p = report.sojourn_percentiles()
        assert p["p50"] <= p["p95"] <= p["p99"]

    def test_a_short_tail_has_no_percentiles_and_no_trend(self, report):
        # past every epoch there is no sojourn to rank
        p = report.sojourn_percentiles(skip_epochs=report.num_epochs)
        assert all(np.isnan(v) for v in p.values())
        # one epoch has no two halves to compare: never saturated
        assert report.steady_state(skip_epochs=report.num_epochs - 1)["saturated"] == 0.0

    def test_series_lengths(self, report):
        n = report.num_epochs
        assert len(report.credits_stalled_series()) == n
        assert len(report.throughput_series(window=4)) == n

    def test_windowed_throughput_consistent_with_totals(self, report):
        full = report.throughput_series(window=report.num_epochs)[-1]
        assert full == pytest.approx(
            report.total_delivered / report.total_steps
        )

    def test_clock_is_cumulative_steps(self, report):
        assert report.epochs[-1].clock == report.total_steps

    def test_str_names_the_totals(self, report):
        text = str(report)
        p = report.sojourn_percentiles()
        assert text.startswith(f"TrafficReport(epochs={report.num_epochs}, ")
        assert f"arrivals={report.total_arrivals}" in text
        assert f"delivered={report.total_delivered}" in text
        assert f"backlog={report.final_backlog}" in text
        assert f"p99={p['p99']:.0f})" in text

    def test_sojourn_counts_match_deliveries(self, report):
        assert sum(len(e.sojourns) for e in report.epochs) == report.total_delivered

    def test_to_dict_roundtrip_totals(self, report):
        d = report.to_dict()
        assert d["total_arrivals"] == report.total_arrivals
        assert d["total_delivered"] == report.total_delivered
        assert len(d["epochs"]) == report.num_epochs
        import json

        json.dumps(d)  # must be JSON-serializable as committed baselines

    def test_steady_state_keys_stable(self, report):
        ss = report.steady_state()
        assert {
            "offered_per_epoch",
            "served_per_epoch",
            "throughput_per_step",
            "sojourn_p50",
            "sojourn_p95",
            "sojourn_p99",
            "mean_backlog",
            "final_backlog",
            "dropped",
            "credits_stalled",
            "saturated",
        } <= set(ss)

    def test_idle_epochs_recorded(self):
        mesh = Mesh2D.square(4)
        n = mesh.num_nodes
        em = MeshEmulator(mesh, 4 * n, mode="crcw", seed=5, engine="fast")
        wl = WorkloadGenerator(
            n,
            arrivals=BurstyArrivals(
                2.0 * n, 0.0, p_exit_on=0.5, p_exit_off=0.5, start_on=False
            ),
            keys=UniformKeys(4 * n),
            seed=2,
        )
        report = OnlineEmulator(em, wl).run(12)
        idle = [e for e in report.epochs if e.admitted == 0]
        assert idle, "expected at least one idle epoch from the off state"
        for e in idle:
            assert e.steps == 0 and e.run_modes == ()


class TestSteadyStateSaturation:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_overload_saturates_and_light_load_does_not(self, seed):
        def steady(rate_frac):
            rng = np.random.default_rng(seed)
            mesh = Mesh2D.square(4)
            n = mesh.num_nodes
            em = MeshEmulator(
                mesh, 4 * n, mode="crcw", seed=rng, engine="fast"
            )
            wl = WorkloadGenerator(
                n,
                arrivals=PoissonArrivals(rate_frac * n),
                keys=UniformKeys(4 * n),
                seed=rng,
            )
            return OnlineEmulator(em, wl).run(10).steady_state()

        light, overloaded = steady(0.5), steady(2.0)
        assert light["throughput_per_step"] > 0
        assert not light["saturated"]
        assert overloaded["saturated"]
