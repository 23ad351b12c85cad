"""Engine wall-time profile: per-dispatch-mode and per-phase buckets.

The routing engines advance a virtual clock; this profile answers the
orthogonal question of where *real* time goes while they do it.  Two
bucket families:

* **modes** — wall seconds per dispatch mode (``"reference"``,
  ``"batch"``, ``"batch-constrained"``), one sample per engine run;
* **phases** — wall seconds per step-loop phase: ``"transmission"``
  (links send), ``"arrival"`` (packets place/enqueue), ``"escape"``
  (the credit flow-control escape subphase), ``"combining"`` (CRCW
  absorption: the reference engine's per-arrival combine lookup, the
  fast engine's absorb pass over a step's contended residue — a packet
  alone on an idle link books none); and, on the fast engine, the two
  edges of a run: ``"setup"`` (everything before the first step — path
  normalisation, link interning, the spawn plan's trigger tables, a
  reply population's layout) and
  ``"finish"`` (everything after the last — absorption roots, stats).

Phase buckets are disjoint: time attributed to ``combining`` or
``escape`` is subtracted from the enclosing ``arrival`` /
``transmission`` measurement, so the step-loop buckets sum to
(approximately) the engines' total step-loop time and, with ``setup``
and ``finish``, to the fast engine's mode totals.  All accumulation is
guarded by the observer being attached — with the default
:class:`NullObserver`, the engines never read the wall clock at all.
"""

from __future__ import annotations

__all__ = ["PhaseProfile"]

#: canonical phase vocabulary (engines may add none or all per run)
PHASES = ("transmission", "arrival", "escape", "combining", "setup", "finish")


class PhaseProfile:
    """Accumulates wall seconds into mode and phase buckets."""

    def __init__(self) -> None:
        self.mode_seconds: dict[str, float] = {}
        self.phase_seconds: dict[str, float] = {}
        self.runs = 0

    def add_mode(self, mode: str, seconds: float) -> None:
        """Attribute one whole engine run to dispatch mode *mode*."""
        self.mode_seconds[mode] = self.mode_seconds.get(mode, 0.0) + seconds
        self.runs += 1

    def add_phase(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def phase_total(self, phase: str) -> float:
        return self.phase_seconds.get(phase, 0.0)

    def to_dict(self) -> dict:
        """Deterministically ordered JSON-ready view."""
        return {
            "runs": self.runs,
            "modes": {k: self.mode_seconds[k] for k in sorted(self.mode_seconds)},
            "phases": {
                k: self.phase_seconds[k] for k in sorted(self.phase_seconds)
            },
        }
