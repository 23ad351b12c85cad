"""Smoke + shape tests for the experiment suite (small parameters)."""

import pytest

from repro.experiments import ALL_EXPERIMENTS, all_figures, run_sweep
from repro.experiments.exp_figures import (
    figure1_leveled_template,
    figure2_star_graphs,
    figure3_star_logical,
    figure4_two_way_shuffle,
    figure5_mesh_slices,
)
from repro.experiments.exp_emulation import (
    _networks,
    run_e6,
    run_e6_combining_ablation,
    run_e6_crcw,
    run_e10,
)
from repro.experiments.exp_hash import (
    run_e5,
    run_e5_degree_ablation,
    run_e11_cor31,
    run_e11_cor32,
    run_e11_cor33,
)
from repro.experiments.exp_leveled import run_e1, run_e4
from repro.experiments.exp_mesh import (
    run_e7,
    run_e7_discipline_ablation,
    run_e7_queue_variant,
    run_e7_slice_ablation,
    run_e8,
    run_e9,
    run_linear_primitive,
)
from repro.experiments.exp_shuffle import run_e3, run_e3_relation, run_e12
from repro.experiments.exp_star import run_e2, run_e2_ablation, run_e2_logical
from repro.util.tables import Table


class TestHarness:
    def test_run_sweep_reproducible(self):
        def trial(rng, *, x):
            return {"v": float(rng.integers(100)) + x}

        rows1 = run_sweep(trial, [{"x": 1}, {"x": 2}], trials=3, seed=5)
        rows2 = run_sweep(trial, [{"x": 1}, {"x": 2}], trials=3, seed=5)
        assert rows1[0].samples == rows2[0].samples
        assert rows1[1].mean("v") != rows1[0].mean("v")

    def test_row_aggregates(self):
        def trial(rng, *, x):
            return {"v": x}

        rows = run_sweep(trial, [{"x": 3}], trials=4, seed=1)
        assert rows[0].mean("v") == 3
        assert rows[0].max("v") == 3


class TestExperimentTables:
    def test_registry_complete(self):
        # every experiment id from DESIGN.md §4 is runnable
        expected = {
            "E1", "E2", "E2c", "E2d", "E3", "E3b", "E4", "E5", "E5b",
            "E6", "E6b", "E6c", "E7", "E7b", "E7c", "E7d", "E7e", "E8", "E9",
            "E10", "E11a", "E11b", "E11c", "E12",
        }
        assert expected <= set(ALL_EXPERIMENTS)

    def test_e1_small(self):
        table = run_e1(settings=((2, 3), (2, 4)), trials=1, seed=1)
        assert isinstance(table, Table)
        assert len(table.rows) == 2
        assert "Theorem 2.1" in table.render()

    def test_e2_small(self):
        table = run_e2(ns=(4,), trials=1, seed=2)
        assert len(table.rows) == 1

    def test_e3_small(self):
        table = run_e3(settings=((2, 3),), trials=1, seed=3)
        assert len(table.rows) == 1

    def test_e5_bound_dominates(self):
        table = run_e5(settings=((256, 16, 6),), trials=15, seed=4)
        # row cells: M N S gamma measured bound bits
        measured = float(table.rows[0][4])
        bound = float(table.rows[0][5])
        assert measured <= bound + 0.1

    def test_e7_small(self):
        table = run_e7(ns=(8,), trials=1, seed=5)
        time_over_n = float(table.rows[0][2])
        assert time_over_n < 4.0

    def test_linear_primitive_small(self):
        table = run_linear_primitive(ns=(32,), trials=1, seed=6)
        assert float(table.rows[0][1]) <= 64  # time
        assert float(table.rows[0][2]) <= 2.0  # time/n near 1


def column(table: Table, header: str) -> list[float]:
    """The cells under *header*, as numbers."""
    i = table.columns.index(header)
    return [float(row[i]) for row in table.rows]


def cells(table: Table, header: str) -> list[str]:
    """The cells under *header*, as rendered."""
    i = table.columns.index(header)
    return [row[i] for row in table.rows]


class TestAblationsAndCorollaries:
    """The remaining registered experiments at small parameters: each
    table has its rows and reads the way its paper claim says."""

    def test_e2_ablation_randomization_costs_path_length(self):
        table = run_e2_ablation(n=4, trials=1, seed=1)
        assert cells(table, "workload") == ["random", "random", "adversarial", "adversarial"]
        time = column(table, "time(mean)")
        # Valiant's detour routes twice as far as the greedy path here
        assert time[0] >= time[1] and time[2] >= time[3]

    def test_e2_logical_has_two_levels_per_symbol(self):
        table = run_e2_logical(ns=(4,), trials=1, seed=2)
        assert column(table, "levels(max)") == [2 * (4 - 1)]
        assert column(table, "time/2L(mean)")[0] < 3

    def test_e3_relation_routes_in_order_n(self):
        table = run_e3_relation(settings=((2, 3),), trials=1, seed=3)
        assert len(table.rows) == 1
        assert column(table, "time/n(mean)")[0] < 10

    def test_e4_relation_time_scales_with_h_times_2l(self):
        table = run_e4(settings=((2, 3, 2),), trials=1, seed=4)
        assert len(table.rows) == 1
        assert column(table, "time/(h*2L)(mean)")[0] <= 2

    def test_e5_degree_ablation_constant_polynomial_piles_up(self):
        table = run_e5_degree_ablation(m=256, n_modules=16, trials=4, seed=5)
        assert column(table, "S") == [1, 2, 4, 8, 16]
        worst = column(table, "worst_max_load")
        # S = 1 sends every address to one module; S >= 2 spreads them
        assert worst[0] == 16
        assert all(w < 16 for w in worst[1:])

    def test_e6_time_is_a_small_multiple_of_the_diameter(self):
        table = run_e6(
            settings=(("star", 4), ("shuffle", 2), ("butterfly", 3)), trials=1, seed=6
        )
        assert column(table, "N(max)") == [24, 4, 8]
        assert column(table, "diam(2L)(max)") == [12, 4, 6]
        assert all(r < 4 for r in column(table, "time/diam(mean)"))
        assert column(table, "rehashes(max)") == [0, 0, 0]

    def test_e6_crcw_hot_spot_combines(self):
        table = run_e6_crcw(
            settings=(("butterfly", 3), ("star", 4), ("shuffle", 2)), trials=1, seed=7
        )
        assert all(c > 0 for c in column(table, "combines(mean)"))
        assert all(r < 4 for r in column(table, "time/diam(mean)"))

    def test_e6_networks_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="torus"):
            _networks("torus", 3)

    def test_e6_combining_ablation_serializes_without_combining(self):
        table = run_e6_combining_ablation(size=3, trials=1, seed=8)
        assert cells(table, "combining") == ["True", "False"]
        on, off = column(table, "time(mean)")
        assert on < off
        assert column(table, "combines(mean)")[1] == 0

    def test_e8_mesh_step_within_its_bound(self):
        table = run_e8(ns=(8,), trials=1, seed=9)
        time = column(table, "time(mean)")[0]
        assert time <= column(table, "bound(4n+o)(mean)")[0]
        assert time == column(table, "request(mean)")[0] + column(table, "reply(mean)")[0]

    def test_e9_local_requests_beat_the_global_step(self):
        table = run_e9(deltas=(2, 4), n=8, trials=1, seed=10)
        for time, bound, glob in zip(
            column(table, "time(mean)"),
            column(table, "bound(6d+o)(mean)"),
            column(table, "global_4n(mean)"),
        ):
            assert time <= bound and time < glob

    def test_e10_ours_beats_karlin_upfal(self):
        table = run_e10(n=8, trials=1, seed=11)
        assert cells(table, "scheme") == [
            "ours", "karlin-upfal", "ranade-butterfly", "leveled-butterfly",
        ]
        ours, ku = column(table, "time(mean)")[:2]
        assert ours < ku

    def test_e11_cor31_max_load_tracks_the_reference(self):
        table = run_e11_cor31(ns=(64,), trials=2, seed=12)
        assert column(table, "max_load(max)")[0] <= 2 * column(table, "reference(mean)")[0]

    def test_e11_cor32_max_load_under_the_bound(self):
        table = run_e11_cor32(ns=(8,), trials=2, seed=13)
        assert column(table, "max_load(max)")[0] <= column(table, "bound(mean)")[0]

    def test_e11_cor33_collection_load_is_order_log_n(self):
        table = run_e11_cor33(ns=(64,), trials=2, seed=14)
        assert column(table, "log2N(mean)") == [6]
        assert column(table, "collection_load(max)")[0] <= 4 * 6

    def test_e12_valiant_never_beats_algorithm_2_3(self):
        table = run_e12(ns=(2, 3), trials=1, seed=15)
        assert column(table, "N(max)") == [4, 27]
        assert all(r >= 1 for r in column(table, "ratio(mean)"))

    def test_e7_discipline_ablation_stays_near_2n(self):
        table = run_e7_discipline_ablation(n=8, trials=1, seed=16)
        assert cells(table, "discipline") == ["furthest_first", "fifo"]
        assert all(r < 3 for r in column(table, "time/n(mean)"))

    def test_e7_slice_ablation_full_height_slice_is_slowest(self):
        table = run_e7_slice_ablation(n=8, trials=1, seed=17)
        heights = column(table, "slice_rows")
        assert heights[0] == 1 and heights[-1] == 8
        assert len(set(heights)) == len(heights)
        time = column(table, "time(mean)")
        assert time[-1] == max(time)

    def test_e7_queue_variant_caps_node_load(self):
        table = run_e7_queue_variant(n=8, trials=1, seed=18)
        assert cells(table, "cap") == ["None", "8", "4"]
        loads = column(table, "max_node_load(max)")
        assert loads[1] <= 8 and loads[2] <= 4
        assert all(r < 3 for r in column(table, "time/n(mean)"))


class TestFigures:
    def test_figure1_contains_unique_path(self):
        out = figure1_leveled_template()
        assert "unique path" in out
        assert "level 0" in out

    def test_figure2_matches_paper_labels(self):
        out = figure2_star_graphs()
        assert "3-star: 6 nodes" in out
        assert "4-star: 24 nodes" in out
        assert "ABC" in out

    def test_figure3_stages(self):
        out = figure3_star_logical()
        assert "stage 1" in out and "stage 2" in out

    def test_figure4_shuffle_edges(self):
        out = figure4_two_way_shuffle()
        # node 01 -> 00, 10 (shift right, insert front digit)
        assert "01 -> 00, 10" in out or "01 -> 10, 00" in out

    def test_figure5_slices_cover_mesh(self):
        out = figure5_mesh_slices(16)
        assert "slice 0: rows 0.." in out
        assert "16x16" in out

    def test_all_figures_concatenates(self):
        out = all_figures()
        for marker in ("Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5"):
            assert marker in out
