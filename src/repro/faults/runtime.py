"""Runtime interpretation of fault specs: liveness, remaps, link views.

:class:`FaultState` is the emulator-side object.  It distinguishes the
**truth** (which modules are dead at virtual step *t*, per the
schedule) from what the emulation layer has **detected**
(``known_dead``):

* Static faults (:class:`~repro.faults.plan.FaultPlan`) are known from
  step 0 — the static-fault model assumes the fault set is given — so
  they are remapped out of the address hash immediately.
* A scheduled *kill* is invisible until a request actually aims at the
  dead module: the attempt fails fast (no routing steps — the module's
  home switch NACKs), the emulator *acknowledges* the kill, folds the
  module into the remap, and rehashes (the paper's §2.1 recovery path).
* A *revive* is visible at the next emulated step (the module
  re-registers): ``refresh`` drops it from ``known_dead`` and the
  remap sends its addresses home again.

Remapping is deterministic and engine-independent: a dead module's
addresses move to the next live module id (cyclically), so both
engines see identical destinations and differential tests stay
bit-identical.

Link faults never reroute — a down link simply refuses to transmit, so
queued packets wait exactly like a zero-credit link (counted in the
new ``fault_stalls`` stat).  :class:`LinkFaultView` resolves "is this
wire blocked at global step t?" in the consuming engine's own key
space via a router-supplied translation.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterable

import numpy as np

from repro.faults.plan import (
    EVENT_KINDS,
    FaultConfigError,
    FaultEvent,
    FaultPlan,
    FaultSchedule,
)

__all__ = ["FaultState", "LinkFaultTimeline", "LinkFaultView"]


def _remap_array(n: int, dead: frozenset[int], what: str) -> np.ndarray:
    """id -> serving id: identity for live ids, next live id (cyclic)
    for dead ones."""
    remap = np.arange(n, dtype=np.int64)
    if not dead:
        return remap
    live = np.array(
        sorted(set(range(n)) - dead), dtype=np.int64
    )
    if live.size == 0:
        raise FaultConfigError(f"all {n} {what}s dead — nothing left to serve")
    for m in sorted(dead):
        i = int(np.searchsorted(live, m))
        remap[m] = int(live[i]) if i < live.size else int(live[0])
    return remap


class LinkFaultTimeline:
    """Piecewise-constant link state over virtual time.

    Built from a schedule's link events; queried through per-engine
    :class:`LinkFaultView` objects.  A link has two orthogonal
    attributes: *down* (``link_down``/``link_up``) and a slowdown
    *period* (``slow_link``/``restore_link``; the link transmits only
    at global steps ``t % period == 0``).
    """

    def __init__(self, events: Iterable[FaultEvent]) -> None:
        events = list(events)
        # state per link: [down: bool, period: int | None]
        state: dict[tuple, list] = {}
        steps = sorted({e.step for e in events})
        self._starts: list[int] = []
        #: per segment: (down link specs frozenset, ((spec, period), ...))
        self._segments: list[tuple[frozenset, tuple]] = []
        by_step: dict[int, list[FaultEvent]] = {}
        for e in events:
            by_step.setdefault(e.step, []).append(e)
        # segment 0 covers [0, first_event_step): no faults
        if not steps or steps[0] > 0:
            self._starts.append(0)
            self._segments.append((frozenset(), ()))
        for s in steps:
            for e in sorted(by_step[s], key=lambda e: EVENT_KINDS.index(e.kind)):
                cur = state.setdefault(e.target, [False, None])
                if e.kind == "link_down":
                    cur[0] = True
                elif e.kind == "link_up":
                    cur[0] = False
                elif e.kind == "slow_link":
                    cur[1] = e.period
                elif e.kind == "restore_link":
                    cur[1] = None
            down = frozenset(k for k, (d, _p) in state.items() if d)
            slow = tuple(
                sorted(
                    (k, p)
                    for k, (d, p) in state.items()
                    if p is not None and not d
                )
            )
            self._starts.append(s)
            self._segments.append((down, slow))

    def segment_at(self, t: int) -> tuple[frozenset, tuple]:
        """(down specs, slow (spec, period) pairs) in force at step t."""
        i = bisect_right(self._starts, t) - 1
        return self._segments[max(i, 0)]

    def view(self, translate: Callable[[tuple], tuple]) -> "LinkFaultView":
        """Engine-facing view; ``translate(spec)`` yields engine keys."""
        return LinkFaultView(self, translate)


class LinkFaultView:
    """Per-engine resolution of the timeline into engine link keys.

    ``parts_at(t)`` returns ``(static, extra)``: *static* is a
    frozenset of keys down for the whole current segment — **identity
    stable** within a segment, so engines may cache derived structures
    on ``static is last_static`` — and *extra* is the (usually empty)
    tuple of keys blocked at exactly this step by a slow-link phase.
    """

    def __init__(
        self, timeline: LinkFaultTimeline, translate: Callable[[tuple], tuple]
    ) -> None:
        self._timeline = timeline
        self._translate = translate
        self._last_seg: tuple | None = None
        self._last: tuple[frozenset, tuple] = (frozenset(), ())

    def parts_at(self, t: int) -> tuple[frozenset, tuple]:
        seg = self._timeline.segment_at(t)
        if seg is not self._last_seg:
            down, slow = seg
            static = frozenset(
                k for spec in sorted(down) for k in self._translate(spec)
            )
            slow_keys = tuple(
                (tuple(self._translate(spec)), period) for spec, period in slow
            )
            self._last_seg = seg
            self._last = (static, slow_keys)
        static, slow_keys = self._last
        if not slow_keys:
            return static, ()
        extra = tuple(
            k for keys, period in slow_keys if t % period for k in keys
        )
        return static, extra


class FaultState:
    """Mutable runtime fault state shared by an emulator's phases."""

    def __init__(
        self,
        spec: FaultPlan | FaultSchedule | None,
        *,
        num_modules: int,
        num_processors: int,
    ) -> None:
        if spec is None:
            spec = FaultSchedule()
        if isinstance(spec, FaultPlan):
            spec = FaultSchedule(plan=spec)
        if not isinstance(spec, FaultSchedule):
            raise TypeError(
                f"faults must be a FaultPlan or FaultSchedule, got {type(spec)!r}"
            )
        self.schedule = spec
        self.num_modules = int(num_modules)
        self.num_processors = int(num_processors)
        plan = spec.plan
        for m in plan.dead_modules:
            if m >= self.num_modules:
                raise FaultConfigError(f"dead module {m} out of range")
        for p in plan.dead_processors:
            if p >= self.num_processors:
                raise FaultConfigError(f"dead processor {p} out of range")
        self._static_dead = frozenset(plan.dead_modules)
        self.dead_processors = frozenset(plan.dead_processors)
        self._proc_remap = _remap_array(
            self.num_processors, self.dead_processors, "processor"
        )
        # truth snapshots: dead-module set after each distinct event step
        self._truth_steps: list[int] = []
        self._truth_sets: list[frozenset[int]] = []
        cur = set(self._static_dead)
        for e in spec.module_events:
            if not isinstance(e.target, int) or e.target >= self.num_modules:
                raise FaultConfigError(f"module event target {e.target!r} out of range")
            if e.kind == "kill_module":
                cur.add(e.target)
            else:
                cur.discard(e.target)
            if len(cur) >= self.num_modules:
                raise FaultConfigError(
                    f"schedule kills all {self.num_modules} modules at step {e.step}"
                )
            if self._truth_steps and self._truth_steps[-1] == e.step:
                self._truth_sets[-1] = frozenset(cur)
            else:
                self._truth_steps.append(e.step)
                self._truth_sets.append(frozenset(cur))
        #: what the emulation layer has detected (drives the remap)
        self.known_dead: frozenset[int] = self._static_dead
        self._remap = _remap_array(self.num_modules, self.known_dead, "module")
        link_events = spec.link_events
        self.link_timeline: LinkFaultTimeline | None = (
            LinkFaultTimeline(link_events) if link_events else None
        )

    # -- flags ----------------------------------------------------------
    @property
    def has_module_faults(self) -> bool:
        return bool(self._static_dead or self._truth_steps)

    @property
    def has_processor_faults(self) -> bool:
        return bool(self.dead_processors)

    @property
    def has_link_faults(self) -> bool:
        return self.link_timeline is not None

    # -- module liveness ------------------------------------------------
    def dead_modules_at(self, step: int) -> frozenset[int]:
        """Ground truth: modules dead at virtual step ``step``."""
        i = bisect_right(self._truth_steps, step) - 1
        if i < 0:
            return self._static_dead
        return self._truth_sets[i]

    def undetected_dead(self, step: int) -> frozenset[int]:
        return self.dead_modules_at(step) - self.known_dead

    def refresh(self, step: int) -> frozenset[int]:
        """Make revives visible: drop modules that are alive again at
        ``step`` from ``known_dead``.  Returns the revived set."""
        revived = self.known_dead - self.dead_modules_at(step)
        if revived:
            self.known_dead = self.known_dead - revived
            self._remap = _remap_array(self.num_modules, self.known_dead, "module")
        return revived

    def acknowledge(self, step: int) -> frozenset[int]:
        """Detect: fold every module actually dead at ``step`` into
        ``known_dead`` (and the remap).  Returns the newly detected set."""
        newly = self.undetected_dead(step)
        if newly:
            self.known_dead = self.known_dead | newly
            self._remap = _remap_array(self.num_modules, self.known_dead, "module")
        return newly

    # -- remaps ---------------------------------------------------------
    def map_modules(self, modules: np.ndarray) -> np.ndarray:
        """Vectorized module remap under the *detected* fault set."""
        return self._remap[modules]

    def map_processors(self, pids: np.ndarray) -> np.ndarray:
        return self._proc_remap[pids]

    # -- annotations ----------------------------------------------------
    def events_between(self, lo: int, hi: int) -> list[str]:
        """Schedule events with ``lo <= step < hi``, as stable labels
        (telemetry annotations on the epoch series)."""
        out = [
            e.describe()
            for e in self.schedule.events
            if lo <= e.step < hi
        ]
        out.sort()
        return out
