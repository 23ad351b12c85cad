"""Census of the fixed work an emulated step does, layer by layer.

A served step's cost is the paper's network steps plus the fixed calls
each layer makes around them — array passes whose count does not depend
on the batch.  This tool counts those calls on the e2e workloads: per
workload of ``benchmarks/e2e/workloads.py`` (imported read-only), it
runs one warm-up unit, then one seed-*S* unit under ``sys.setprofile``,
and prints per emulated step (outermost ``emulate_step`` call):

- **numpy C-calls** — every ``c_call`` profile event of a numpy function
  (``np.empty``, ``np.asarray``, ...) or of a method of a numpy object
  (``ndarray.tolist``, ``Generator.random``, ...).  Ufunc calls —
  operators included — and the C functions numpy dispatches through
  ``__array_function__`` (``np.concatenate``, ``np.bincount``, ...)
  raise no profile event in CPython, so they are not counted: the count
  is the calls the profiler sees, the same ones every unit.
- **repro Python calls** — every ``call`` event of a function defined
  in ``repro``.

Each call is attributed to the nearest ``repro`` frame on the stack
(a numpy call made inside a numpy Python wrapper belongs to the
``repro`` function that called the wrapper), and that frame's module to
a layer (:func:`layer_of`): driver + telemetry, emulation, router +
topology, engine set-up/finish, engine step loop, hashing, pram,
sharding, obs.  ``repro.util`` and ``repro.faults`` are helpers:
their calls belong to whoever called them.  A call with no attributable
``repro`` frame lands in ``outside``, which reads 0 on every workload.

The counts are deterministic — two units of the same seed give the same
table — so a change that cuts a fixed pass shows as a smaller count on
the layer that made it, whatever the machine's speed.

Run:  python tools/work_census.py [--workload NAME ...] [--seed 7] [--json F]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
if str(ROOT / "benchmarks" / "e2e") not in sys.path:
    sys.path.append(str(ROOT / "benchmarks" / "e2e"))

import workloads  # noqa: E402  (benchmarks/e2e, read-only)

SETUP = "engine set-up/finish"
LOOP = "engine step loop"
OUTSIDE = "outside"
LAYERS = (
    "driver + telemetry", "emulation", "router + topology", SETUP, LOOP,
    "hashing", "pram", "sharding", "obs",
)  # fmt: skip

#: ``repro`` package (or module) -> layer; the longest prefix wins
PACKAGES = {
    "repro.traffic": "driver + telemetry",
    "repro.emulation": "emulation",
    "repro.routing": "router + topology",
    "repro.topology": "router + topology",
    "repro.hashing": "hashing",
    "repro.pram": "pram",
    "repro.apps": "pram",
    "repro.sharding": "sharding",
    "repro.obs": "obs",
}
#: helper packages: a call in them belongs to their caller's layer
HELPERS = ("repro.util", "repro.faults")
#: the engine's modules; a call in them is set-up/finish or step loop
ENGINE = frozenset(
    f"repro.routing.{m}"
    for m in (
        "fast_engine", "fast_phases", "fast_scalar", "metrics", "engine",
        "flow_control", "queues",
    )
)  # fmt: skip
#: the engine functions whose frames are the step loop
STEP_LOOP = frozenset({"_run_batch", "run_steps"})
#: engine functions a step loop calls that set a run up or finish it
SETUP_FINISH = frozenset({"finish", "_stats_of", "stats_from_arrays", "_start"})


def layer_of(module: str) -> str | None:
    """The layer of a ``repro`` module (``None`` outside ``repro`` and in
    a helper package); the engine's modules read ``"engine"``, which
    :func:`attribute` splits by the stack."""
    if not module.startswith("repro.") or module.startswith(HELPERS):
        return None
    if module in ENGINE:
        return "engine"
    best = ""
    for prefix in PACKAGES:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return PACKAGES.get(best, OUTSIDE)


class Census:
    """Calls per layer, counted by a ``sys.setprofile`` hook."""

    def __init__(self) -> None:
        self.numpy = dict.fromkeys((*LAYERS, OUTSIDE), 0)
        self.python = dict.fromkeys((*LAYERS, OUTSIDE), 0)
        self.steps = 0
        self._depth = 0  # open ``emulate_step`` frames
        self._codes: dict = {}  # code object -> layer or None
        self._owners: dict = {}  # type of a C method's owner -> numpy's?

    def _code_layer(self, code, frame) -> str | None:
        layer = self._codes.get(code, 0)
        if layer == 0:
            layer = self._codes[code] = layer_of(frame.f_globals.get("__name__", ""))
        return layer

    def attribute(self, frame) -> str:
        """The layer of the nearest ``repro`` frame at or above *frame*."""
        while frame is not None:
            layer = self._code_layer(frame.f_code, frame)
            if layer == "engine":
                return self._engine_part(frame)
            if layer is not None:
                return layer
            frame = frame.f_back
        return OUTSIDE

    def _engine_part(self, frame) -> str:
        """Set-up/finish or step loop: the innermost engine frame named in
        ``SETUP_FINISH`` or ``STEP_LOOP`` decides (a step loop's own
        body is the loop); none, set-up/finish."""
        while frame is not None:
            code = frame.f_code
            layer = self._code_layer(code, frame)
            if layer is not None and layer != "engine":
                break
            if layer == "engine":
                if code.co_name in SETUP_FINISH:
                    return SETUP
                if code.co_name in STEP_LOOP:
                    return LOOP
            frame = frame.f_back
        return SETUP

    def _is_numpy(self, fn) -> bool:
        owner = getattr(fn, "__self__", None)
        if owner is None or isinstance(owner, ModuleType):
            return (getattr(fn, "__module__", None) or "").startswith("numpy")
        kind = type(owner)
        hit = self._owners.get(kind)
        if hit is None:
            hit = self._owners[kind] = kind.__module__.startswith("numpy")
        return hit

    def hook(self, frame, event, arg) -> None:
        if event == "c_call":
            if self._is_numpy(arg):
                self.numpy[self.attribute(frame)] += 1
        elif event == "call":
            code = frame.f_code
            layer = self._code_layer(code, frame)
            if layer is None:
                return
            self.python[self.attribute(frame)] += 1
            if code.co_name == "emulate_step":
                self._depth += 1
                if self._depth == 1:
                    self.steps += 1
        elif event == "return" and frame.f_code.co_name == "emulate_step":
            if self._code_layer(frame.f_code, frame) is not None:
                self._depth -= 1

    def per_step(self, counts: dict) -> dict:
        return {k: v / max(self.steps, 1) for k, v in counts.items()}

    def as_dict(self) -> dict:
        return {"steps": self.steps, "numpy": dict(self.numpy), "python": dict(self.python)}


def census(fn) -> tuple[object, Census]:
    """``fn()``'s result and the calls it made, under the hook."""
    counted = Census()
    sys.setprofile(counted.hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counted


def census_of(workload, seed: int) -> Census:
    """One warm-up unit, then one counted unit, of *workload*."""
    workload.prepare(seed, None).timed()
    prepared = workload.prepare(seed, None)
    return census(prepared.timed)[1]


def table(title: str, rows: list[tuple[str, Census]], kind: str) -> list[str]:
    """Markdown lines: one row per workload, per emulated step."""
    columns = ("workload", "steps", "total", *LAYERS, OUTSIDE)
    lines = [f"{title}", "", "| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
    for name, c in rows:
        per = c.per_step(getattr(c, kind))
        cells = [name, str(c.steps), f"{sum(per.values()):.1f}"]
        cells += [f"{per[layer]:.1f}" for layer in (*LAYERS, OUTSIDE)]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def main(argv=None) -> int:
    names = [w.name for w in workloads.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", type=Path, help="write the raw counts here")
    args = parser.parse_args(argv)
    chosen = [w for w in workloads.WORKLOADS if w.name in (args.workload or names)]
    rows = []
    for workload in chosen:
        rows.append((workload.name, census_of(workload, args.seed)))
        print(f"counted {workload.name}", file=sys.stderr, flush=True)
    print(f"seed {args.seed}, calls per emulated step\n")
    print("\n".join(table("numpy C-calls", rows, "numpy")))
    print()
    print("\n".join(table("repro Python calls", rows, "python")))
    if args.json is not None:
        payload = {"seed": args.seed, "workloads": {n: c.as_dict() for n, c in rows}}
        args.json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 1 if any(c.numpy[OUTSIDE] or c.python[OUTSIDE] for _, c in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
