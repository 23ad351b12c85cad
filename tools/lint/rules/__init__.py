"""Rule registry: one class per hand-maintained invariant.

Rule catalog (docs/static_analysis.md has the long-form version):

* REPRO001 ``seeded-rng`` — no unseeded/global RNG in ``src/repro``.
* REPRO002 ``wall-clock`` — no wall-clock calls in the deterministic core.
* REPRO003 ``unordered-iter`` — no order-sensitive iteration over sets
  in hot-path modules.
* REPRO004 — retired (``stat-parity``: both engines now build their
  ``RoutingStats`` through one constructor); the id is not reused.
* REPRO005 ``event-kind-order`` — fault code honors the canonical
  ``EVENT_KINDS`` tuple (vocabulary + sort order).
* REPRO006 ``hash-placement`` — ``PolynomialHash`` is constructed only
  inside ``hashing/`` and ``sharding/`` (placement stays centralized).
* REPRO007 ``metric-names`` — observability metric names are
  snake_case and each name registers exactly one metric kind.
* REPRO008 ``emulator-contract`` — the serving front end reads the
  ``Emulator`` service contract; no ``getattr`` / ``hasattr`` probes.
* REPRO009 ``front-end-columns`` — served-path modules (driver,
  sharding, the emulators' shared pipeline) construct no
  ``TrafficRequest``, and the fast engine's two modules no ``Packet``.
* REPRO010 ``bare-raise`` — no bare ``RuntimeError`` / ``AssertionError``
  raise and no ``assert`` statement in ``src/repro``: failures are
  typed subclasses, and no check is stripped by ``python -O``.
"""

from __future__ import annotations

from tools.lint.rules.bare_raise import BareRaiseRule
from tools.lint.rules.emulator_contract import EmulatorContractRule
from tools.lint.rules.engine_parity import EventKindOrderRule
from tools.lint.rules.front_end_columns import FrontEndColumnsRule
from tools.lint.rules.hash_placement import HashPlacementRule
from tools.lint.rules.metric_names import MetricNamesRule
from tools.lint.rules.seeded_rng import SeededRngRule
from tools.lint.rules.unordered_iter import UnorderedIterRule
from tools.lint.rules.wall_clock import WallClockRule

ALL_RULES = [
    SeededRngRule,
    WallClockRule,
    UnorderedIterRule,
    EventKindOrderRule,
    HashPlacementRule,
    MetricNamesRule,
    EmulatorContractRule,
    FrontEndColumnsRule,
    BareRaiseRule,
]

__all__ = [
    "ALL_RULES",
    "BareRaiseRule",
    "EmulatorContractRule",
    "EventKindOrderRule",
    "FrontEndColumnsRule",
    "HashPlacementRule",
    "MetricNamesRule",
    "SeededRngRule",
    "UnorderedIterRule",
    "WallClockRule",
]
