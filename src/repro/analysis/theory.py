"""Closed-form predictions from the paper, for predicted-vs-measured tables.

Every theorem's claim is encoded as a reference curve so experiments can
print "claimed bound" next to "measured" and EXPERIMENTS.md can record the
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# ---- network facts (§2.3.4, §2.3.5, §1) -----------------------------------

def star_diameter(n: int) -> int:
    """⌊3(n-1)/2⌋ (Akers-Harel-Krishnamurthy, quoted in §2.3.4)."""
    return (3 * (n - 1)) // 2


def star_nodes(n: int) -> int:
    return math.factorial(n)


def sublogarithmic_gap(n: int) -> float:
    """diameter / log2(N) of the n-star: < 1 and shrinking — the
    property that makes Theorem 2.6 beat O(log N) emulations."""
    return star_diameter(n) / math.log2(star_nodes(n))


# ---- claimed time bounds ---------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """A theorem's quantitative claim: measured <= constant * scale + slack."""

    name: str
    constant: float
    #: o(·) slack expressed as slack_coeff * scale**slack_power
    slack_coeff: float = 0.0
    slack_power: float = 0.75

    def bound(self, scale: float) -> float:
        return self.constant * scale + self.slack_coeff * scale**self.slack_power


#: Theorem 3.1 — each mesh routing phase: 2n + o(n)
MESH_ROUTING_CLAIM = Claim("Theorem 3.1 (2n + o(n))", 2.0, slack_coeff=6.0)
#: Theorem 3.2 — EREW step on the mesh: 4n + o(n)
MESH_EMULATION_CLAIM = Claim("Theorem 3.2 (4n + o(n))", 4.0, slack_coeff=12.0)
#: Theorem 3.3 — locality: 6δ + o(δ)
MESH_LOCALITY_CLAIM = Claim("Theorem 3.3 (6d + o(d))", 6.0, slack_coeff=12.0)
#: §3.4.1 — linear array with furthest-first: n' + o(n)
LINEAR_ARRAY_CLAIM = Claim("§3.4.1 (n' + o(n))", 1.0, slack_coeff=6.0)


def ranade_mesh_constant() -> float:
    """The paper's quoted constant for Ranade's technique on the mesh
    (§1, §3: 'The underlying constant is roughly 100')."""
    return 100.0


def karlin_upfal_phase_ratio() -> float:
    """KU uses 4 routing phases to our 2 (§3.3): predicted time ratio 2."""
    return 2.0


# ---- shape checking --------------------------------------------------------

def flatness(values: list[float], *, tolerance: float = 0.35) -> bool:
    """True when a sequence of normalized times has no growth trend beyond
    *tolerance* (relative increase from the first to the last element).

    Used to assert "time / diameter stays bounded" across a size sweep.
    """
    lo = min(values)
    if lo <= 0:
        raise ValueError("normalized times must be positive")
    return values[-1] <= values[0] * (1 + tolerance) or values[-1] <= max(values[:-1])


def fitted_constant(scales: list[float], times: list[float]) -> float:
    """Least-squares slope of time vs scale — the measured leading
    constant (e.g. ≈4 for Theorem 3.2)."""
    from repro.util.stats import linear_fit

    a, _b = linear_fit(scales, times)
    return a
