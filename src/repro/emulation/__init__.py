"""PRAM emulation engines: the paper's algorithms plus baselines.

* :class:`LeveledEmulator` — Theorems 2.5/2.6 (star, shuffle, generic
  leveled networks), with hashing, combining, and rehash-on-timeout.
* :class:`MeshEmulator` — Theorem 3.2's 4n + o(n) two-phase scheme and
  Theorem 3.3's 6δ + o(δ) locality mode.
* :class:`KarlinUpfalMeshEmulator` — the 4-phase ≈ 8n baseline.
* :class:`RanadeEmulator` — merge-forwarding butterfly baseline with the
  large hidden constant the paper argues against.
"""

from repro.emulation.base import (
    EmulationReport,
    Emulator,
    ReplyCountError,
    RequestRoutingError,
    StepCost,
)
from repro.emulation.combining import (
    ReplySpawner,
    build_replies,
    make_reply,
    reply_next_hop,
    reverse_path_of,
)
from repro.emulation.karlin_upfal import KarlinUpfalMeshEmulator
from repro.emulation.leveled import LeveledEmulator
from repro.emulation.mesh import MeshEmulator, locality_slice_rows
from repro.emulation.ranade import RanadeEmulator
from repro.emulation.replay import ReplayResult, configure_emulator_for, replay_program

__all__ = [
    "EmulationReport",
    "Emulator",
    "KarlinUpfalMeshEmulator",
    "LeveledEmulator",
    "MeshEmulator",
    "RanadeEmulator",
    "ReplayResult",
    "ReplyCountError",
    "ReplySpawner",
    "RequestRoutingError",
    "StepCost",
    "build_replies",
    "configure_emulator_for",
    "replay_program",
    "locality_slice_rows",
    "make_reply",
    "reply_next_hop",
    "reverse_path_of",
]
