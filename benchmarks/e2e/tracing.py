"""Layer attribution from outside the program.

A traced unit installs timing wrappers around the public entry point of
each layer (`ENTRY_POINTS`), all from this directory; spans inside the
program are a later change.  Each call becomes a :class:`Span` (name,
layer, start, end, the span that caused it, and the emulated-step id
every span of one epoch / PRAM step shares); wrappers also read work
counts off what the call returned.  Spans stay in memory and are written
as Chrome trace-event JSON when the run ends.

A layer's self time is its spans' duration minus the part their child
spans cover, so the layers of one timed region sum to its wall time and
what is left on the root span is the unattributed share.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.emulation import LeveledEmulator, MeshEmulator, replay
from repro.emulation.base import Emulator
from repro.hashing.family import PolynomialHash
from repro.pram.machine import PRAM
from repro.routing.fast_engine import FastPathEngine
from repro.routing.leveled_router import LeveledRouter
from repro.routing.mesh_router import MeshRouter
from repro.sharding import MultiTenantWorkload, ShardedEmulator
from repro.traffic import OnlineEmulator, WorkloadGenerator
from repro.traffic.telemetry import TrafficReport

import workloads

#: the layer of the root span that brackets one timed region
ROOT_LAYER = "timed"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    #: id of the span that caused this one (-1 for the root)
    parent: int
    #: ordinal of the emulated step this span belongs to (None outside one)
    step: int | None


class Tracer:
    """In-memory span and count recorder for one timed region."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []
        self._steps = 0

    @contextmanager
    def span(self, name: str, layer: str, *, starts_step: bool = False):
        parent = self._stack[-1] if self._stack else None
        step = parent.step if parent is not None else None
        if starts_step and step is None:
            step = self._steps
            self._steps += 1
        span = Span(len(self.spans), name, layer, perf_counter(), 0.0,
                    parent.id if parent is not None else -1, step)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = perf_counter()

    def inside(self, layer: str) -> bool:
        """Is a span of *layer* open above the current one?"""
        return any(s.layer == layer for s in self._stack[:-1])


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> duration minus the duration of its direct children."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += own[s.id]
    return out


def tail_percentile(n_samples: int) -> float:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = 50.0
    for pct, one_in in ((90.0, 10), (99.0, 100), (99.9, 1000)):
        if n_samples >= 10 * one_in:
            best = pct
    return best


def chrome_trace(spans: list[Span], workload: str) -> dict:
    """Chrome trace-event JSON (open in https://ui.perfetto.dev)."""
    origin = spans[0].start if spans else 0.0
    return {
        "displayTimeUnit": "ms",
        "otherData": {"workload": workload},
        "traceEvents": [
            {
                "name": f"{s.layer}:{s.name}",
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": s.id, "parent": s.parent, "step": s.step},
            }
            for s in spans
        ],
    }


def write_chrome_trace(spans: list[Span], workload: str, path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans, workload), fh)


# ---- what each wrapper reads off the call it timed --------------------------
# (tracer, the bound object or None, the return value)


def _count_stream(tracer, _self, stream) -> None:
    # a multi-tenant stream calls one generator per tenant: count once
    if not tracer.inside("traffic.generators"):
        tracer.counts["traffic.generators.requests"] += sum(len(b) for b in stream)


def _count_step(tracer, _self, cost) -> None:
    tracer.counts["emulation.rehashes"] += cost.rehashes
    tracer.counts["emulation.combines"] += cost.combines
    tracer.counts["emulation.requests"] += cost.requests


def _count_engine_run(tracer, _self, stats) -> None:
    c = tracer.counts
    c["routing.fast_engine.net_steps"] += stats.steps
    c["routing.fast_engine.packets"] += stats.total_packets
    c["routing.fast_engine.packet_hops"] += sum(stats.hops)
    c["routing.fast_engine.credits_stalled"] += stats.credits_stalled
    c["routing.fast_engine.constrained_runs"] += stats.run_mode == "batch-constrained"


def _count_pram(tracer, pram, _trace) -> None:
    tracer.counts["pram.steps"] += pram.steps_executed


#: (owner, attribute, layer, starts an emulated step?, count reader)
ENTRY_POINTS = (
    (WorkloadGenerator, "stream", "traffic.generators", False, _count_stream),
    (MultiTenantWorkload, "stream", "traffic.generators", False, _count_stream),
    (OnlineEmulator, "run", "traffic.driver", False, None),
    (TrafficReport, "steady_state", "traffic.telemetry", False, None),
    (TrafficReport, "to_dict", "traffic.telemetry", False, None),
    (ShardedEmulator, "emulate_step", "sharding", True, None),
    (MeshEmulator, "emulate_step", "emulation", True, _count_step),
    (LeveledEmulator, "emulate_step", "emulation", True, _count_step),
    (Emulator, "emulate_trace", "emulation", False, None),
    (MeshRouter, "route", "routing.router", False, None),
    (LeveledRouter, "route_packets", "routing.router", False, None),
    (PolynomialHash, "map", "hashing", False, None),
    (FastPathEngine, "run", "routing.fast_engine", False, _count_engine_run),
    (PRAM, "run", "pram", False, _count_pram),
    (replay, "replay_program", "emulation.replay", False, None),
    # the application harness is called from the benchmark's own module
    (workloads, "build_app_inputs", "apps", False, None),
    (workloads, "build_emulator", "apps", False, None),
)


def _wrap(tracer: Tracer, func, name, layer, starts_step, reader, is_method):
    def traced(*args, **kwargs):
        with tracer.span(name, layer, starts_step=starts_step):
            result = func(*args, **kwargs)
            if reader is not None:
                reader(tracer, args[0] if is_method else None, result)
        return result

    traced.__wrapped__ = func
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every entry point for the duration of the block, then restore
    the originals (also when the block raises)."""
    originals = []
    try:
        for owner, attr, layer, starts_step, reader in ENTRY_POINTS:
            func = owner.__dict__[attr]
            originals.append((owner, attr, func))
            setattr(owner, attr, _wrap(tracer, func, attr, layer, starts_step, reader,
                                       is_method=isinstance(owner, type)))
        yield tracer
    finally:
        for owner, attr, func in originals:
            setattr(owner, attr, func)


def is_installed() -> bool:
    return any(hasattr(owner.__dict__[attr], "__wrapped__")
               for owner, attr, *_ in ENTRY_POINTS)


# ---- spans + counts -> the per-layer metrics --------------------------------


#: layer -> the per-layer metric that reports its self time; together
#: they cover the timed region (what is left is `budget.unattributed_share`)
LAYER_SELF_METRIC = {
    "traffic.generators": "traffic.generators.stream_s",
    "traffic.driver": "traffic.driver.self_s",
    "traffic.telemetry": "traffic.telemetry.report_s",
    "sharding": "sharding.self_s",
    "emulation": "emulation.self_s",
    # replay_program's self time: the cell-by-cell memory check (plus
    # pushing the program's initial memory into the emulator)
    "emulation.replay": "emulation.replay.verify_s",
    "pram": "pram.run_s",
    "apps": "apps.build_s",
    "hashing": "hashing.map_s",
    "routing.router": "routing.router.self_s",
    "routing.fast_engine": "routing.fast_engine.run_s",
}


def layer_metrics(tracer: Tracer, profile, outcome, compile_s: float) -> dict[str, float]:
    """Every span- or count-derived per-layer metric of one traced unit.

    Times are raw host seconds of this unit; the caller rescales them.
    `profile` is the product's own `PhaseProfile` (engine phase split),
    `outcome` the unit's :class:`workloads.Outcome`.
    """
    spans, counts = tracer.spans, tracer.counts
    layer = layer_self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        calls[s.layer] += 1
    root = spans[0]
    wall = root.end - root.start
    steps_ms = [
        (s.end - s.start) * 1e3
        for s in spans
        if s.layer == "emulation" and s.name == "emulate_step"
    ]
    tail_pct = tail_percentile(len(steps_ms))
    engine_s = layer["routing.fast_engine"]
    runs = calls["routing.fast_engine"]
    net_steps = counts["routing.fast_engine.net_steps"]
    hops = counts["routing.fast_engine.packet_hops"]
    requests = counts["emulation.requests"]
    fallback = sum(n for mode, n in outcome.run_modes.items()
                   if mode not in workloads.VECTORIZED_MODES)
    out = {metric: layer[name] for name, metric in LAYER_SELF_METRIC.items()}
    out |= {
        "traffic.generators.requests": counts["traffic.generators.requests"],
        "sharding.shard_steps": len(steps_ms) if calls["sharding"] else 0,
        "emulation.steps": len(steps_ms),
        "emulation.step_ms_p50": float(np.percentile(steps_ms, 50)),
        "emulation.step_ms_tail": float(np.percentile(steps_ms, tail_pct)),
        "emulation.step_tail_pct": tail_pct,
        "emulation.rehashes": counts["emulation.rehashes"],
        "emulation.combining_hit_rate": counts["emulation.combines"] / requests if requests else 0.0,
        "pram.steps": counts["pram.steps"],
        "hashing.map_calls": calls["hashing"],
        "routing.router.calls": calls["routing.router"],
        "routing.fast_engine.runs": runs,
        "routing.fast_engine.net_steps": net_steps,
        "routing.fast_engine.packets": counts["routing.fast_engine.packets"],
        "routing.fast_engine.packet_hops": hops,
        "routing.fast_engine.us_per_net_step": engine_s / net_steps * 1e6 if net_steps else 0.0,
        "routing.fast_engine.ns_per_packet_hop": engine_s / hops * 1e9 if hops else 0.0,
        "routing.fast_engine.batch_constrained_share":
            counts["routing.fast_engine.constrained_runs"] / runs if runs else 0.0,
        "routing.fast_engine.credits_stalled": counts["routing.fast_engine.credits_stalled"],
        "routing.fast_engine.fallback_runs": fallback,
        "topology.compiled.compile_s": compile_s,
        "budget.unattributed_share": layer[ROOT_LAYER] / wall,
    }
    for phase in ("arrival", "transmission", "combining", "escape"):
        out[f"routing.fast_engine.{phase}_s"] = profile.phase_total(phase)
    out.update(outcome.layer_counts)
    return out


#: Layer metrics that tell the workloads apart: non-zero on exactly the
#: named workloads, zero on every other.  A workload that stops reaching
#: the layer it was chosen for, or starts reaching one it was chosen to
#: bypass, no longer measures what its "why" says.
_ALL = frozenset(w.name for w in workloads.WORKLOADS)
NONZERO_ONLY_ON = {
    "routing.fast_engine.escape_s": {"bfly_credit_bursty"},
    "routing.fast_engine.batch_constrained_share": {"bfly_credit_bursty"},
    "routing.fast_engine.combining_s": _ALL - {"mesh_erew_hot"},
    "emulation.replay.verify_s": {"apps_replay"},
    "pram.run_s": {"apps_replay"},
    "apps.build_s": {"apps_replay"},
    "sharding.self_s": {"sharded_tenants"},
    "traffic.driver.self_s": _ALL - {"apps_replay"},
}
MAX_UNATTRIBUTED_SHARE = 0.05


def layer_problems(workload: str, values: dict[str, float]) -> list[str]:
    """What a traced run's per-layer metrics say is wrong (empty = fine)."""
    problems = []
    for name, where in NONZERO_ONLY_ON.items():
        if (values[name] != 0) != (workload in where):
            problems.append(f"{name} = {values[name]:g}, expected "
                            f"{'non-zero' if workload in where else '0'} on {workload}")
    share = values["budget.unattributed_share"]
    if share > MAX_UNATTRIBUTED_SHARE:
        problems.append(f"budget.unattributed_share = {share:.3f} > {MAX_UNATTRIBUTED_SHARE}")
    return problems
