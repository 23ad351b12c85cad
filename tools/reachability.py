"""Reachability audit: which functions of ``src/repro`` does anything run?

Every function of the package (found by ``ast``: module functions,
methods, nested functions) is classified by two traced sets of entry
points, each entry run in its own subprocess under a temporary
``sitecustomize.py`` that installs ``sys.setprofile`` and
``threading.setprofile`` and, at exit, writes the ``(file, qualname)``
of every code object it saw called:

- **served** — reached by the served set: one ``--seconds 1 --trace 1``
  unit of each e2e workload (``benchmarks/e2e/run.py``, run read-only
  from a temporary copy), the five seeded ``bench_*.py`` gates,
  ``bench_engine_scaling.py --quick``, the paper-claims suite, the
  examples and the doc snippets;
- **tests-only** — reached by tier-1 (``pytest``) and nothing served;
- **unreached** — reached by neither.

A function is matched on ``(path, qualname)``, never on a line number:
decorators move ``co_firstlineno``.  Two definitions with one qualname
(a property's getter and setter) are one entry.

A function that is not served is *kept* by rule when it is a dunder or
an abstract stub (reason f), or by the ``KEEP`` table below (reasons
a-e, see ``REASONS``).  ``--check`` exits 1 on any unreached function
outside rule f and on any tests-only function that is neither kept by
rule nor on ``KEEP``.

The JSON report maps each function (``module:qualname``) to its status,
its line count and its keep reason, with the counts per status.

Run:  python tools/reachability.py [--check] [--out PATH]
          [--src DIR] [--served=ARGS ...] [--tests=ARGS ...]

``--served`` / ``--tests`` replace the default entry sets; each ARGS is
the argument list of one Python interpreter, split like a shell line
(``--served='examples/quickstart.py'``, ``--tests='-m pytest -q'``).
The full audit traces tier-1 too, so it costs a few minutes.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SRC = REPO_ROOT / "src" / "repro"

REASONS = {
    "a": "safety code: invariant checks, validation, failure and retry paths",
    "b": "the reference engine's path",
    "c": "an oracle that tests compare served code against",
    "d": "a member of the Emulator service contract",
    "e": "the analysis bounds ROADMAP item 8(b) is to call",
    "f": "a dunder or an abstract stub (kept by rule)",
}

#: tests-only functions that stay, each with its reason (a-e above);
#: rule f (dunders, abstract stubs) needs no entry
KEEP = {
    # (a) safety code: invariant checks, validation, failure and retry paths
    "repro.routing.fast_phases:check_invariants": "a",
    "repro.routing.fast_phases:_check_loads": "a",
    "repro.emulation.base:Emulator._failure": "a",
    "repro.obs:NullObserver.flight_tail": "a",  # what _failure reads unobserved
    "repro.emulation.leveled:LeveledEmulator._check_link_spec": "a",
    "repro.routing.leveled_router:LeveledRouter._fault_keys": "a",
    "repro.traffic.driver:OnlineEmulator._requeue_failed": "a",
    "repro.traffic.driver:OnlineEmulator._views": "a",  # dead-letter row views
    "repro.traffic.driver:OnlineEmulator._fast_forward": "a",  # backoff wait
    # the recovery half of the fault vocabulary beside kill_module / link_down
    "repro.faults.plan:FaultSchedule.revive_module": "a",
    "repro.faults.plan:FaultSchedule.restore_link": "a",
    "repro.faults.plan:FaultSchedule.slow_link": "a",
    # (b) the reference engine's path
    "repro.topology.hypercube:Hypercube.neighbors": "b",
    "repro.topology.hypercube:Hypercube.route_next": "b",
    "repro.topology.mesh:LinearArray.neighbors": "b",
    "repro.topology.mesh:LinearArray.route_next": "b",
    "repro.topology.mesh:Mesh2D.neighbors": "b",
    "repro.topology.shuffle:DWayShuffle.neighbors": "b",
    "repro.topology.shuffle:DWayShuffle.route_next": "b",
    "repro.topology.leveled:ShuffleLeveled.out_neighbors": "b",
    "repro.topology.leveled:ShuffleLeveled.unique_next": "b",
    "repro.routing.queues:FurthestFirstQueue.peek": "b",
    "repro.routing.linear:_FurthestFirstLine._priority": "b",
    "repro.routing.linear:_FurthestFirstLine._reference_options": "b",
    # caller-built packets' combine keys, on either engine
    "repro.routing.packet:combine_groups_of": "b",
    # (c) oracles that tests compare served code against
    "repro.topology.base:Topology.distance": "c",
    "repro.topology.base:Topology.bfs_distance": "c",
    "repro.topology.hypercube:Hypercube.distance": "c",
    "repro.topology.mesh:LinearArray.distance": "c",
    "repro.topology.mesh:Mesh2D.distance": "c",
    "repro.topology.shuffle:DWayShuffle.distance": "c",
    "repro.topology.star:StarGraph.distance": "c",
    "repro.topology.star:star_distance_to_identity": "c",
    # the per-level walk the closed-form butterfly passes are checked against
    "repro.topology.leveled:DAryButterflyLeveled.unique_next_batch": "c",
    "repro.util.primes:primes_below": "c",
    "repro.pram.programs:boolean_or.<locals>.verify": "c",
    "repro.pram.programs:broadcast.<locals>.verify": "c",
    "repro.pram.programs:find_max.<locals>.verify": "c",
    "repro.pram.programs:list_ranking.<locals>.verify": "c",
    "repro.pram.programs:matrix_multiply.<locals>.verify": "c",
    "repro.pram.programs:parallel_sum.<locals>.verify": "c",
    "repro.pram.programs:prefix_sum.<locals>.verify": "c",
    # (d) the Emulator service contract
    "repro.emulation.ranade:RanadeEmulator.n_processors": "d",
    "repro.sharding.service:ShardedEmulator.combine_op": "d",
    "repro.sharding.service:ShardedEmulator.write_policy": "d",
    "repro.sharding.service:ShardedEmulator.serving_modules": "d",
    "repro.sharding.service:ShardedMemory.read": "d",
    "repro.sharding.service:ShardedMemory.write": "d",
    "repro.sharding.service:ShardedMemory.touched": "d",
    # (e) the bounds ROADMAP item 8(b) measures tails against
    "repro.analysis.delay_bounds:_links_of": "e",
    "repro.analysis.delay_bounds:is_nonrepeating": "e",
    "repro.analysis.delay_bounds:per_level_delay_pgf_coeff": "e",
    "repro.analysis.delay_bounds:queue_line_check": "e",
    "repro.analysis.delay_bounds:routing_time_bound": "e",
    "repro.analysis.delay_bounds:total_delay_tail": "e",
    "repro.util.stats:binomial_tail": "e",
    "repro.util.stats:chernoff_upper": "e",
    "repro.util.stats:hoeffding_poisson_tail": "e",
    "repro.util.stats:poisson_tail": "e",
}

#: the profiler every traced interpreter starts with
SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_OUT = os.environ["REACHABILITY_OUT"]
_seen = set()


def _profile(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)


@atexit.register
def _dump():
    sys.setprofile(None)
    rows = sorted({(os.path.realpath(c.co_filename), getattr(c, "co_qualname", c.co_name))
                   for c in list(_seen)})
    with open(os.path.join(_OUT, "%d.json" % os.getpid()), "w") as f:
        json.dump(rows, f)


sys.setprofile(_profile)
threading.setprofile(_profile)
'''


@dataclass
class Function:
    module: str
    qualname: str
    path: str
    lines: int
    #: rule f applies: a dunder, or a body that is only a stub
    by_rule: bool

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    decorators = {ast.unparse(d).rsplit(".", 1)[-1] for d in node.decorator_list}
    if decorators & {"abstractmethod", "overload"}:
        return True
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and stmt.value.value is Ellipsis:
            continue
        if isinstance(stmt, ast.Raise) and stmt.exc is not None \
                and "NotImplementedError" in ast.unparse(stmt.exc):
            continue
        return False
    return True


def inventory(src: Path) -> dict[str, Function]:
    """Every function defined under the package directory *src*, by key."""
    src = src.resolve()
    found: dict[str, Function] = {}

    def walk(node: ast.AST, module: str, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                lines = child.end_lineno - child.lineno + 1
                by_rule = (child.name.startswith("__") and child.name.endswith("__")) \
                    or _is_stub(child)
                fn = Function(module, qualname, str(path), lines, by_rule)
                old = found.get(fn.key)
                if old is not None:  # a property's setter, a conditional definition
                    fn.lines += old.lines
                    fn.by_rule = old.by_rule and by_rule
                found[fn.key] = fn
                walk(child, module, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, path, prefix + child.name + ".")
            else:
                walk(child, module, path, prefix)

    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        walk(ast.parse(path.read_text(), str(path)), module, path, "")
    return found


def _e2e_checkout(tmp: Path) -> Path:
    """A copy of ``benchmarks/e2e`` beside a link to ``src``, so traced
    runs write their outputs there and leave the benchmark's files alone."""
    root = tmp / "checkout"
    shutil.copytree(REPO_ROOT / "benchmarks" / "e2e", root / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    (root / "benchmarks" / "e2e" / "results").mkdir()
    (root / "src").symlink_to(REPO_ROOT / "src", target_is_directory=True)
    return root


def default_served(tmp: Path) -> list[list[str]]:
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    run_py = str(_e2e_checkout(tmp) / "benchmarks" / "e2e" / "run.py")
    served = [[run_py, "--workload", w["name"], "--seed", "7", "--seconds", "1", "--trace", "1"]
              for w in manifest["workloads"]]
    for bench in ("traffic", "faults", "sharding", "apps", "obs"):
        served.append([f"benchmarks/bench_{bench}.py", "--out", str(tmp / f"BENCH_{bench}.json")])
    served.append(["benchmarks/bench_engine_scaling.py", "--quick", "--no-gate",
                   "--out", str(tmp / "BENCH_quick.json")])
    claims = sorted(str(p.relative_to(REPO_ROOT))
                    for p in (REPO_ROOT / "benchmarks").glob("bench_*.py"))
    served.append(["-m", "pytest", *claims, "-q", "-p", "no:cacheprovider",
                   "--benchmark-disable"])
    served.append(["tools/run_examples.py"])
    served.append(["tools/run_doc_snippets.py"])
    return served


DEFAULT_TESTS = [["-m", "pytest", "-q", "-p", "no:cacheprovider"]]


def trace(commands: list[list[str]], src: Path, tmp: Path, label: str) -> set[tuple[str, str]]:
    """``(realpath, qualname)`` of every function the commands called
    under *src*; exits if a command fails (its trace would be partial)."""
    hook = tmp / f"hook_{label}"
    out = tmp / f"calls_{label}"
    hook.mkdir()
    out.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(hook), str(src.resolve().parent), env.get("PYTHONPATH", "")) if p)
    env["REACHABILITY_OUT"] = str(out)
    for args in commands:
        print(f"[{label}] python {shlex.join(args)}", file=sys.stderr, flush=True)
        proc = subprocess.run([sys.executable, *args], cwd=REPO_ROOT, env=env,
                              stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            sys.exit(f"reachability: entry point failed (exit {proc.returncode}): "
                     f"python {shlex.join(args)}")
    root = str(src.resolve()) + os.sep
    called = set()
    for dump in out.glob("*.json"):
        called.update((path, qualname) for path, qualname in json.loads(dump.read_text())
                      if path.startswith(root))
    return called


def classify(functions: dict[str, Function], served: set, tests: set) -> dict:
    """The report: each function's status and keep reason, the counts,
    and the functions ``--check`` rejects."""
    report: dict = {"counts": {}, "lines": {}, "functions": {}, "rejected": []}
    for key, fn in sorted(functions.items()):
        site = (fn.path, fn.qualname)
        status = "served" if site in served else "tests-only" if site in tests else "unreached"
        keep = None
        if status != "served":
            keep = "f" if fn.by_rule else KEEP.get(key) if status == "tests-only" else None
            if keep is None:
                report["rejected"].append(key)
        report["functions"][key] = {"status": status, "lines": fn.lines, "keep": keep}
        report["counts"][status] = report["counts"].get(status, 0) + 1
        report["lines"][status] = report["lines"].get(status, 0) + fn.lines
    report["stale_keep"] = sorted(k for k in KEEP if report["functions"].get(k, {})
                                  .get("status") == "served")
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=DEFAULT_SRC,
                    help="package directory to audit (default src/repro)")
    ap.add_argument("--served", action="append", metavar="ARGS",
                    help="a served entry point (replaces the default set; repeatable)")
    ap.add_argument("--tests", action="append", metavar="ARGS",
                    help="a tests entry point (replaces tier-1; repeatable)")
    ap.add_argument("--out", type=Path, help="write the JSON report here (default: stdout)")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on an unreached or tests-only function that is not kept")
    args = ap.parse_args(argv)

    functions = inventory(args.src)
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp_name:
        tmp = Path(tmp_name)
        served_cmds = [shlex.split(a) for a in args.served] if args.served else default_served(tmp)
        tests_cmds = [shlex.split(a) for a in args.tests] if args.tests else DEFAULT_TESTS
        served = trace(served_cmds, args.src, tmp, "served")
        tests = trace(tests_cmds, args.src, tmp, "tests")
    report = {"src": str(args.src), "reasons": REASONS, **classify(functions, served, tests)}

    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    counts = report["counts"]
    print(f"{len(functions)} functions: " + ", ".join(
        f"{counts.get(s, 0)} {s} ({report['lines'].get(s, 0)} lines)"
        for s in ("served", "tests-only", "unreached")), file=sys.stderr)
    for key in report["stale_keep"]:
        print(f"note: KEEP entry {key} is served now", file=sys.stderr)
    if args.check and report["rejected"]:
        for key in report["rejected"]:
            print(f"not kept: {key} ({report['functions'][key]['status']})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
