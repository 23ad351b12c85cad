"""E6/E10 — emulation slowdowns (Theorems 2.5/2.6) and baselines.

E6: PRAM-step emulation cost, normalized by network diameter, on the
star's logical network, the n-way shuffle, and generic leveled networks —
for EREW traces and CRCW hot spots (combining).

E10: our mesh emulator vs Karlin–Upfal 4-phase vs the Ranade-style
butterfly machinery, on identical workloads; plus the paper's cited
constants for context.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.theory import karlin_upfal_phase_ratio, ranade_mesh_constant
from repro.emulation.karlin_upfal import KarlinUpfalMeshEmulator
from repro.emulation.leveled import LeveledEmulator
from repro.emulation.mesh import MeshEmulator
from repro.emulation.ranade import RanadeEmulator
from repro.experiments.harness import require_completed, rows_to_table, run_sweep
from repro.pram.trace import RequestColumns, hotspot_step, permutation_step
from repro.topology.leveled import (
    DAryButterflyLeveled,
    ShuffleLeveled,
    StarLogicalLeveled,
)
from repro.topology.mesh import Mesh2D
from repro.util.tables import Table


def _networks(kind: str, size):
    if kind == "star":
        return StarLogicalLeveled(size), "node"
    if kind == "shuffle":
        return ShuffleLeveled.n_way(size), "coin"
    if kind == "butterfly":
        return DAryButterflyLeveled(2, size), "coin"
    raise ValueError(kind)


def run_e6(
    settings=(("star", 4), ("star", 5), ("shuffle", 3), ("butterfly", 5), ("butterfly", 7)),
    *,
    trials: int = 3,
    seed=51,
) -> Table:
    def trial(rng, *, kind: str, size: int) -> dict:
        net, mode = _networks(kind, size)
        m = 8 * net.column_size
        emu = LeveledEmulator(net, address_space=m, intermediate=mode, seed=rng)
        step = permutation_step(net.column_size, m, seed=rng)
        cost = emu.emulate_step(step)
        return {
            "N": net.column_size,
            "diam(2L)": emu.scale,
            "time": cost.total_steps,
            "time/diam": cost.total_steps / emu.scale,
            "rehashes": cost.rehashes,
        }

    grid = [{"kind": k, "size": s} for k, s in settings]
    rows = run_sweep(trial, grid, trials=trials, seed=seed)
    return rows_to_table(
        rows,
        ["kind", "size"],
        [
            ("N", "max"),
            ("diam(2L)", "max"),
            ("time", "mean"),
            ("time/diam", "mean"),
            ("rehashes", "max"),
            ("time", "max"),
        ],
        title="E6  Theorems 2.5/2.6 + Cor 2.3-2.6: one EREW PRAM step in Õ(diameter)",
        caption=(
            "Emulation cost normalized by the 2L round-trip stays a small "
            "constant across network families and sizes — the paper's "
            "sub-logarithmic emulation (star: 2L = 4(n-1) ≪ log₂ n!)."
        ),
    )


def run_e6_crcw(
    settings=(("butterfly", 5), ("star", 4), ("shuffle", 3)),
    *,
    trials: int = 3,
    seed=52,
) -> Table:
    def trial(rng, *, kind: str, size: int) -> dict:
        net, mode = _networks(kind, size)
        m = 8 * net.column_size
        emu = LeveledEmulator(net, address_space=m, intermediate=mode, mode="crcw", seed=rng)
        step = hotspot_step(net.column_size, m, hot_addresses=1, hot_fraction=1.0, seed=rng)
        cost = emu.emulate_step(step)
        return {
            "N": net.column_size,
            "time": cost.total_steps,
            "time/diam": cost.total_steps / emu.scale,
            "combines": cost.combines,
        }

    grid = [{"kind": k, "size": s} for k, s in settings]
    rows = run_sweep(trial, grid, trials=trials, seed=seed)
    return rows_to_table(
        rows,
        ["kind", "size"],
        [
            ("N", "max"),
            ("time", "mean"),
            ("time/diam", "mean"),
            ("combines", "mean"),
            ("time", "max"),
            ("time/diam", "max"),
        ],
        title="E6b  Theorem 2.6: CRCW hot spot (all N processors read one cell)",
        caption=(
            "Combining keeps the hot-spot step at Õ(diameter) — without it "
            "the module's link alone would need N steps."
        ),
    )


def run_e6_combining_ablation(size: int = 5, *, trials: int = 3, seed=53) -> Table:
    """Hot-spot cost with combining on vs off (off = requests serialized)."""

    def trial(rng, *, combining: bool) -> dict:
        net = DAryButterflyLeveled(2, size)
        m = 8 * net.column_size
        step = hotspot_step(net.column_size, m, hot_addresses=1, hot_fraction=1.0, seed=rng)
        if combining:
            emu = LeveledEmulator(net, address_space=m, mode="crcw", seed=rng)
            cost = emu.emulate_step(step)
            return {"time": cost.total_steps, "combines": cost.combines}
        # control: route the same hot-spot requests with combining disabled
        from repro.hashing.family import HashFamily
        from repro.routing.leveled_router import LeveledRouter

        h = HashFamily(m, net.column_size, 2 * net.num_levels).sample(rng)
        router = LeveledRouter(net, seed=rng)
        stats = router.route(
            step.pids.tolist(),
            [int(h(addr)) for addr in step.addrs.tolist()],
            max_steps=100 * net.num_levels + 4 * net.column_size,
        )
        require_completed(stats)
        return {"time": 2 * stats.steps, "combines": 0}  # + symmetric replies

    rows = run_sweep(
        trial, [{"combining": True}, {"combining": False}], trials=trials, seed=seed
    )
    return rows_to_table(
        rows,
        ["combining"],
        [("time", "mean"), ("combines", "mean")],
        title="E6c  Ablation: combining on/off for an N-reader hot spot",
        caption="Without combining the hot module serializes ~N packets.",
    )


def run_e10(n: int = 16, *, trials: int = 3, seed=54) -> Table:
    """Ours vs Karlin–Upfal on the same mesh; Ranade machinery on its
    butterfly; paper-cited constants for context."""

    def _loaded_step(rng, rows_: int, m: int, h: int) -> RequestColumns:
        addrs = rng.choice(m, size=h * rows_, replace=False).tolist()
        return RequestColumns.of(reads=[(i % rows_, a) for i, a in enumerate(addrs)])

    def trial(rng, *, scheme: str) -> dict:
        if scheme in ("ours", "karlin-upfal"):
            mesh = Mesh2D.square(n)
            m = 4 * n * n
            step = permutation_step(n * n, m, seed=rng)
            cls = MeshEmulator if scheme == "ours" else KarlinUpfalMeshEmulator
            emu = cls(mesh, address_space=m, seed=rng)
            cost = emu.emulate_step(step)
            return {"time": cost.total_steps, "norm_const": cost.total_steps / n}
        # Ranade merge machinery vs our leveled emulator on the SAME
        # loaded EREW step and matched butterfly substrates, both
        # normalized by the 2k diameter (load h requests per processor).
        k, h = 6, 6
        rows_ = 1 << k
        m = 16 * rows_
        step = _loaded_step(rng, rows_, m, h)
        if scheme == "ranade-butterfly":
            emu = RanadeEmulator(k, address_space=m, seed=rng)
            cost = emu.emulate_step(step)
            return {"time": cost.total_steps, "norm_const": cost.total_steps / emu.scale}
        lev = LeveledEmulator(DAryButterflyLeveled(2, k), m, seed=rng)
        cost = lev.emulate_step(step)
        return {"time": cost.total_steps, "norm_const": cost.total_steps / lev.scale}

    rows = run_sweep(
        trial,
        [
            {"scheme": "ours"},
            {"scheme": "karlin-upfal"},
            {"scheme": "ranade-butterfly"},
            {"scheme": "leveled-butterfly"},
        ],
        trials=trials,
        seed=seed,
    )
    table = rows_to_table(
        rows,
        ["scheme"],
        [("time", "mean"), ("norm_const", "mean")],
        title="E10  §1/§3.3: constant-factor comparison of emulation schemes",
    )
    table.set_caption(
        "Mesh rows (unit load): ours ≈ 4·n vs Karlin–Upfal ≈ 8·n "
        f"(predicted ratio {karlin_upfal_phase_ratio():.0f}).  Butterfly "
        "rows (load 6 requests/processor, same workload): the Ranade "
        "merge machinery's time/diameter constant exceeds the direct "
        "leveled emulator's; the paper cites "
        f"≈{ranade_mesh_constant():.0f} for Ranade's bound on the mesh."
    )
    return table
