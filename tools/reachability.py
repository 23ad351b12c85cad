"""Reachability audit: which functions of ``src/repro``, and which
branch arms inside them, does anything run?

Two sets of entry points are traced, each entry in its own subprocess
under a temporary ``sitecustomize.py`` that installs ``sys.settrace``
and ``threading.settrace``, :data:`WORKERS` subprocesses at a time.
The hook follows line events only in frames whose code lies under
``--src`` and, at exit, writes the lines each code object ran to
``<pid>.json`` in its set's directory, so concurrent entries never
share a file:

- **served** — reached by the served set: one ``--seconds 1 --trace 1``
  unit of each e2e workload (``benchmarks/e2e/run.py``, run read-only
  from a temporary copy), the six seeded ``bench_*.py`` gates
  (``bench_paper.py``, the paper's claims, among them),
  ``bench_engine_scaling.py --quick``, the examples and the doc
  snippets;
- **tests-only** — reached by tier-1 (``pytest``) and nothing served;
- **unreached** — reached by neither.

Every function of the package (found by ``ast``: module functions,
methods, nested functions) gets a status: it ran if a code object
starting on its first line (its first decorator's, or its ``def``)
ran a line.  It is keyed ``module:qualname``, never by a line number;
two definitions with one qualname (a property's getter and setter)
are one entry.

Inside a served function the unit of verdict is the **arm**: the body
of an ``if`` / ``elif`` / ``else`` / ``except`` / try-``else`` / ``match
case``.  An arm ran if any line of its body (its header's lines
excepted) ran.  It is keyed by its function's key and its
``ast.unparse``d header (``pkg.mod:f | if x is None:``, ``... | else of
if x is None:``, a ``#2`` suffix on a repeated header), never by a line
number.

A function that is not served is *kept* by rule when it is a dunder or
an abstract stub (reason f), or by the ``KEEP`` table below (reasons
a-e and g, see ``REASONS``).  An arm that is not served is kept by rule when
its last statement is a ``raise`` (reason a), or by a ``KEEP`` entry
under its arm key.  ``--check`` exits 1 on any unreached function
outside rule f, on any tests-only function that is neither kept by
rule nor on ``KEEP``, and on any unkept arm.

The JSON report maps each function (``module:qualname``) and each arm
of a served function to its status, its line count and its keep
reason, with the counts per status.  Verdicts map traced line numbers
onto the sources as they were read before the trace, so the run hashes
every ``*.py`` under ``--src`` before and after: if any changed, it
names them, writes no report and exits 2.

Run:  python tools/reachability.py [--check] [--out PATH]
          [--src DIR] [--served=ARGS ...] [--tests=ARGS ...]

``--served`` / ``--tests`` replace the default entry sets; each ARGS is
the argument list of one Python interpreter, split like a shell line
(``--served='examples/quickstart.py'``, ``--tests='-m pytest -q'``).
Line tracing is slow: the full audit takes five to seven minutes on two
cores, most of it ``bench_engine_scaling.py --quick``, which therefore
starts first.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SRC = REPO_ROOT / "src" / "repro"
#: traced entry points run at once: the cores of a CI runner
WORKERS = 2

REASONS = {
    "a": "safety code: invariant checks, validation, failure and retry paths",
    "b": "the reference engine's path",
    "c": "an oracle that tests compare served code against",
    "d": "a member of the Emulator service contract",
    "e": "the analysis bounds ROADMAP item 8(b) is to call",
    "f": "a dunder or an abstract stub (kept by rule)",
    "g": "a run field's value no served path reads, worked out on first read",
}

#: tests-only functions, and non-served arms of served functions, that
#: stay, each with its reason (a-e, g above); rule f (dunders, abstract
#: stubs) and arms ending in ``raise`` need no entry
KEEP = {
    # (a) safety code: invariant checks, validation, failure and retry paths
    # the one run checker (repro.routing.run_view), its three producers
    # and the queue read the reference producer makes
    "repro.routing.run_view:check": "a",
    "repro.routing.run_view:_check_log": "a",
    "repro.routing.run_view:_check_conservation": "a",
    "repro.routing.run_view:reference": "a",
    "repro.routing.run_view:vector": "a",
    "repro.routing.run_view:scalar": "a",
    "repro.routing.run_view:_itineraries": "a",
    "repro.routing.run_view:_plain": "a",
    "repro.routing.queues:FIFOQueue.in_service_order": "a",
    "repro.routing.queues:FurthestFirstQueue.in_service_order": "a",
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
    "repro.analysis.delay_bounds:_delivered_traces": "e",
    "repro.analysis.delay_bounds:is_nonrepeating": "e",
    "repro.analysis.delay_bounds:per_level_delay_pgf_coeff": "e",
    "repro.analysis.delay_bounds:queue_line_check": "e",
    "repro.analysis.delay_bounds:routing_time_bound": "e",
    "repro.analysis.delay_bounds:total_delay_tail": "e",
    "repro.util.stats:binomial_tail": "e",
    "repro.util.stats:chernoff_upper": "e",
    "repro.util.stats:hoeffding_poisson_tail": "e",
    "repro.util.stats:poisson_tail": "e",
    # the per-packet metrics queue_line_check reads off reference packets
    "repro.routing.packet:Packet.delay": "e",
    "repro.routing.packet:Packet.delivered": "e",
    "repro.routing.packet:Packet.latency": "e",
    # (g) a list-built reply run's itineraries (RunArrays.paths), deferred
    "repro.routing.fast_scalar:reply_paths": "g",
    # ---- arms of served functions, keyed "function | header" ----------
    # (a) the race detector's verdicts, and the address scan's soundness
    # (names bound in the body) and tractability boundary
    "repro.analysis.races:ConflictChecker.check_step | if wr and rd:": "a",
    "repro.analysis.races:classify_program | if violations:": "a",
    "repro.analysis.races:classify_program | else of elif analysis.minimal_mode is spec.mode:":
        "a",
    "repro.analysis.races:find_violations | elif r.kind is ConflictKind.WRITE_WRITE and "
    "write_policy is WritePolicy.COMMON and (not r.values_agree):": "a",
    "repro.analysis.races:_affine_pid_coeff | if left is None or right is None:": "a",
    "repro.analysis.races:scan_program_addresses | except (OSError, TypeError, SyntaxError):":
        "a",
    "repro.analysis.races:scan_program_addresses | if func is None or not func.args.args:": "a",
    "repro.analysis.races:scan_program_addresses | elif isinstance(node, ast.For):": "a",
    "repro.analysis.races:scan_program_addresses | elif node.target is not None:": "a",
    "repro.analysis.races:scan_program_addresses.<locals>.classify | "
    "if isinstance(sub, ast.Name) and sub.id in local_names:": "a",
    "repro.analysis.races:scan_program_addresses.<locals>.classify | if affine is None:": "a",
    # (a) the request phase's retry of a wedged credit run (section 2.1)
    # and the fault vocabulary's recovery half
    "repro.emulation.base:Emulator._route_requests | except DeadlockError as exc:": "a",
    "repro.emulation.base:Emulator._route_requests | if wedged:": "a",
    "repro.faults.plan:FaultEvent.__post_init__ | if self.kind == 'slow_link':": "a",
    "repro.faults.runtime:FaultState.__init__ | else of if e.kind == 'kill_module':": "a",
    "repro.faults.runtime:FaultState.refresh | if revived:": "a",
    "repro.faults.runtime:LinkFaultTimeline.__init__ | elif e.kind == 'slow_link':": "a",
    "repro.faults.runtime:LinkFaultTimeline.__init__ | elif e.kind == 'restore_link':": "a",
    "repro.traffic.driver:OnlineEmulator.run | except RehashStormError as exc:": "a",
    "repro.traffic.driver:OnlineEmulator.run | else of if batch.shape[1]:": "a",
    "repro.traffic.driver:OnlineEmulator.run | if not n_served and self.backlog:": "a",
    "repro.traffic.driver:OnlineEmulator._admit | if self.request_timeout is not None:": "a",
    "repro.traffic.driver:OnlineEmulator._admit | else of if live is None:": "a",
    "repro.traffic.driver:OnlineEmulator._admit | else of if live is None: #2": "a",
    # (a) the flight recorder's feed, whose tail rides on every typed error
    "repro.obs:Observer.record | if self.recorder is not None:": "a",
    "repro.pram.machine:PRAM.step | if obs is not None and obs.recorder is not None:": "a",
    "repro.pram.machine:PRAM.run | if self.observer is not None:": "a",
    "repro.routing.fast_engine:FastPathEngine.run | if _obs is not None:": "a",
    "repro.routing.fast_engine:FastPathEngine._run_batch | if rec is not None:": "a",
    "repro.routing.fast_phases:free_flow | if rec is not None:": "a",
    "repro.sharding.service:ShardedEmulator.emulate_step | if not err.flight_tail:": "a",
    # (a) link faults on a capacity run
    "repro.routing.fast_phases:advance_escapes | if f_flags is not None and f_flags[nl]:": "a",
    "repro.routing.fast_phases:classify_constrained | if s.f_any:": "a",
    "repro.routing.fast_phases:classify_constrained | if nb:": "a",
    "repro.routing.fast_phases:classify_constrained | if can is not None:": "a",
    # (a) the peak an invariant-checked drive reads off a capacity run
    "repro.routing.fast_phases:peak_node_load | if arrays.max_node_load is not None:": "a",
    # (a) degenerate input: empty, halted, too small or unenveloped
    "repro.routing.fast_phases:peak_node_load | if not seen.size:": "a",
    "repro.pram.machine:PRAM.load | except StopIteration:": "a",
    "repro.pram.machine:PRAM.step | if self.live_processors == 0:": "a",
    "repro.pram.trace:RequestColumns.max_concurrency | if not self.num_requests:": "a",
    "repro.traffic.telemetry:TrafficReport._tenant_table | if not self.epochs:": "a",
    "repro.traffic.telemetry:TrafficReport.sojourn_percentiles | if not samples:": "a",
    "repro.traffic.telemetry:TrafficReport._is_saturated | if len(tail) < 2:": "a",
    "repro.routing.mesh_router:default_slice_rows | if n <= 2:": "a",
    "repro.util.primes:is_prime | if n < 2:": "a",
    "repro.util.primes:next_prime | if n <= 2:": "a",
    "repro.hashing.loads:lemma22_bound | if gamma < delta:": "a",
    "repro.hashing.loads:lemma22_bound | if s_size < gamma:": "a",
    "repro.obs.schema:schema_of | if not isinstance(env, dict):": "a",
    # (b) the reference engine's rules: capacity under a service rate,
    # profiling
    "repro.routing.engine:SynchronousEngine.run | if prof is not None: #2": "b",
    "repro.routing.engine:transmit_serialized | "
    "if held(r, key) or (r.capacity is not None and stalled(r, key)):": "b",
    "repro.routing.engine:advance_escapes | if prof is not None:": "b",
    "repro.routing.engine:absorb | if prof is not None:": "b",
    # (b) the routers' hop-by-hop rules and the reference queues
    "repro.routing.fast_engine:resolve_engine_mode | if env in ('fast', 'reference'):": "b",
    "repro.routing.greedy:GreedyRouter._next_hop | if p.state is not None:": "b",
    "repro.routing.greedy:GreedyRouter._next_hop | if p.node == p.state:": "b",
    "repro.routing.greedy:GreedyRouter._next_hop | else of if p.node == p.state:": "b",
    "repro.routing.leveled_router:LeveledRouter._next_hop | else of if p.state is not None:":
        "b",
    "repro.routing.leveled_router:LeveledRouter._next_hop | "
    "else of elif self.intermediate == 'coin':": "b",
    # coin flips on a network of mixed out-degree are the reference's
    "repro.routing.leveled_router:LeveledRouter._draw | "
    "if not (self.net.uniform_out_degree and len(sources)):": "b",
    "repro.routing.leveled_router:LeveledRouter._compile | if draw is None:": "b",
    "repro.routing.mesh_router:MeshRouter._reference_options | if self.discipline == 'fifo':":
        "b",
    "repro.topology.star:StarGraph.route_next | if cur == dest:": "b",
    "repro.routing.queues:_index_build | if key is not None:": "b",
    "repro.routing.queues:_index_remove | if key is None:": "b",
    # (b) the reference spawn rule's position-0 cascade, on the fast
    # engine too
    "repro.routing.fast_phases:SpawnTables.fire | if kc >= 0 and self.trig_at_start[kc]:": "b",
    # (c) the shuffle's ablation baseline
    "repro.routing.shuffle_router:ShuffleRouter._draw | if not self.randomized:": "c",
    "repro.routing.shuffle_router:ShuffleRouter._states | if inters is None:": "c",
    # (d) the Emulator contract: any step (writes, no requests), any double
    "repro.emulation.ranade:RanadeEmulator.emulate_step | else of if is_read:": "d",
    "repro.sharding.service:merge_costs | if not costs:": "d",
    "repro.emulation.base:Emulator.serving_modules | if self.hash is None:": "d",
}

#: the tracer every traced interpreter starts with: line events of the
#: frames whose code lies under REACHABILITY_SRC, nothing from the rest
SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_OUT = os.environ["REACHABILITY_OUT"]
_SRC = os.environ["REACHABILITY_SRC"]
_hits = set()
_ours = {}


def _line(frame, event, arg, _add=_hits.add):
    if event == "line":
        _add((frame.f_code, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    ours = _ours.get(code)
    if ours is None:
        ours = _ours[code] = os.path.realpath(code.co_filename).startswith(_SRC)
    return _line if ours else None


@atexit.register
def _dump():
    sys.settrace(None)
    lines = {}
    for code, line in list(_hits):
        lines.setdefault(code, set()).add(line)
    rows = [(os.path.realpath(c.co_filename), c.co_firstlineno, sorted(ls))
            for c, ls in lines.items()]
    with open(os.path.join(_OUT, "%d.json" % os.getpid()), "w") as f:
        json.dump(rows, f)


sys.settrace(_call)
threading.settrace(_call)
'''


@dataclass
class Arm:
    function: str
    #: the ``ast.unparse``d header, made unique within its function
    header: str
    path: str
    #: the lines of its body that no header shares
    body: frozenset[int]
    lines: int
    #: its last statement is a ``raise``: kept by rule (reason a)
    raises: bool

    @property
    def key(self) -> str:
        return f"{self.function} | {self.header}"


@dataclass
class Function:
    module: str
    qualname: str
    path: str
    lines: int
    #: rule f applies: a dunder, or a body that is only a stub
    by_rule: bool
    #: the first line of each definition's code object
    starts: set[int] = field(default_factory=set)
    arms: list[Arm] = field(default_factory=list)

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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
_TRIES = (ast.Try, getattr(ast, "TryStar", ast.Try))  # except* is 3.11+


def _span(*nodes: ast.AST | None) -> set[int]:
    return {line for node in nodes if node is not None
            for line in range(node.lineno, node.end_lineno + 1)}


def _arms(fn: ast.FunctionDef | ast.AsyncFunctionDef, source: list[str]):
    """``(header, header lines, body)`` of every arm in *fn*'s own body
    (nested functions and classes hold their own), in source order."""
    found: list[tuple[str, set[int], list[ast.stmt]]] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, _SCOPES):
            return
        if isinstance(node, ast.If):
            keyword = "if"
            while True:
                header = f"{keyword} {ast.unparse(node.test)}:"
                found.append((header, {node.lineno} | _span(node.test), node.body))
                for stmt in node.body:
                    visit(stmt)
                orelse = node.orelse
                if len(orelse) == 1 and isinstance(orelse[0], ast.If) \
                        and source[orelse[0].lineno - 1].lstrip().startswith("elif"):
                    node, keyword = orelse[0], "elif"
                    continue
                if orelse:
                    found.append((f"else of {header}", set(), orelse))
                    for stmt in orelse:
                        visit(stmt)
                return
        if isinstance(node, _TRIES):
            star = "*" if type(node).__name__ == "TryStar" else ""
            for handler in node.handlers:
                header = f"except{star}" \
                    + (f" {ast.unparse(handler.type)}" if handler.type else "") \
                    + (f" as {handler.name}" if handler.name else "") + ":"
                found.append((header, {handler.lineno} | _span(handler.type), handler.body))
            if node.orelse:
                found.append((f"else of {header}", set(), node.orelse))
        elif isinstance(node, ast.match_case):
            header = f"case {ast.unparse(node.pattern)}" \
                + (f" if {ast.unparse(node.guard)}" if node.guard else "") + ":"
            found.append((header, _span(node.pattern, node.guard), node.body))
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in fn.body:
        visit(stmt)
    return sorted(found, key=lambda arm: arm[2][0].lineno)


def inventory(src: Path) -> dict[str, Function]:
    """Every function defined under the package directory *src*, by key,
    with the arms of its own body."""
    src = src.resolve()
    found: dict[str, Function] = {}

    def walk(node: ast.AST, module: str, path: Path, source: list[str], prefix: str) -> None:
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
                    fn.starts, fn.arms = old.starts, old.arms
                fn.starts.add(min([child.lineno] + [d.lineno for d in child.decorator_list]))
                seen = {arm.header for arm in fn.arms}
                for header, header_lines, body in _arms(child, source):
                    unique, n = header, 1
                    while unique in seen:
                        n += 1
                        unique = f"{header} #{n}"
                    seen.add(unique)
                    span = _span(*body)
                    # a one-line arm (``if x: y``) has no line of its
                    # own: it is judged by its header's
                    fn.arms.append(Arm(fn.key, unique, str(path),
                                       frozenset(span - header_lines or span),
                                       body[-1].end_lineno - body[0].lineno + 1,
                                       isinstance(body[-1], ast.Raise)))
                found[fn.key] = fn
                walk(child, module, path, source, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, path, source, prefix + child.name + ".")
            else:
                walk(child, module, path, source, prefix)

    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        text = path.read_text()
        walk(ast.parse(text, str(path)), module, path, text.splitlines(), "")
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
    """The served entry points, the longest traced run first."""
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    run_py = str(_e2e_checkout(tmp) / "benchmarks" / "e2e" / "run.py")
    served = [["benchmarks/bench_engine_scaling.py", "--quick", "--no-gate",
               "--out", str(tmp / "BENCH_quick.json")]]
    served += [[run_py, "--workload", w["name"], "--seed", "7", "--seconds", "1", "--trace", "1"]
               for w in manifest["workloads"]]
    for bench in ("paper", "traffic", "faults", "sharding", "apps", "obs"):
        served.append([f"benchmarks/bench_{bench}.py", "--out", str(tmp / f"BENCH_{bench}.json")])
    served.append(["tools/run_examples.py"])
    served.append(["tools/run_doc_snippets.py"])
    return served


DEFAULT_TESTS = [["-m", "pytest", "-q", "-p", "no:cacheprovider"]]


#: what a trace holds: the lines each code object under --src ran,
#: keyed ``(realpath, first line)``
Hits = dict[tuple[str, int], set[int]]


def trace(entries: dict[str, list[list[str]]], src: Path, tmp: Path) -> dict[str, Hits]:
    """The lines each set's commands (``{label: commands}``) ran under
    *src*, per code object.  Every command runs in its own traced
    interpreter, :data:`WORKERS` at a time, started in the order given;
    exits if one fails (its trace would be partial)."""
    hook = tmp / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(hook), str(src.resolve().parent), env.get("PYTHONPATH", "")) if p)
    env["REACHABILITY_SRC"] = str(src.resolve()) + os.sep

    def run(label: str, args: list[str]) -> str | None:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
                              env=dict(env, REACHABILITY_OUT=str(tmp / f"lines_{label}")))
        print(f"[{label}] {time.perf_counter() - start:5.0f} s  python {shlex.join(args)}",
              file=sys.stderr, flush=True)
        if proc.returncode != 0:
            return (f"reachability: entry point failed (exit {proc.returncode}): "
                    f"python {shlex.join(args)}")
        return None

    for label in entries:
        (tmp / f"lines_{label}").mkdir()
    with ThreadPoolExecutor(WORKERS) as pool:
        runs = [pool.submit(run, label, args)
                for label, commands in entries.items() for args in commands]
        for done in as_completed(runs):
            if failed := done.result():
                pool.shutdown(cancel_futures=True)
                sys.exit(failed)
    hits: dict[str, Hits] = {label: {} for label in entries}
    for label, found in hits.items():
        for dump in (tmp / f"lines_{label}").glob("*.json"):
            for path, first, lines in json.loads(dump.read_text()):
                found.setdefault((path, first), set()).update(lines)
    return hits


def _by_file(hits: Hits) -> dict[str, set[int]]:
    lines: dict[str, set[int]] = {}
    for (path, _), ran in hits.items():
        lines.setdefault(path, set()).update(ran)
    return lines


def classify(functions: dict[str, Function], served: Hits, tests: Hits) -> dict:
    """The report: each function's and each served function's arms'
    status and keep reason, the counts, and the keys ``--check`` rejects."""
    report: dict = {"counts": {}, "lines": {}, "functions": {},
                    "arm_counts": {}, "arm_lines": {}, "arms": {}, "rejected": []}
    served_lines, tests_lines = _by_file(served), _by_file(tests)

    def tally(kind: str, key: str, status: str, lines: int, keep: str | None) -> None:
        if status != "served" and keep is None:
            report["rejected"].append(key)
        report[kind][key] = {"status": status, "lines": lines, "keep": keep}
        counts, totals = (report["counts"], report["lines"]) if kind == "functions" \
            else (report["arm_counts"], report["arm_lines"])
        counts[status] = counts.get(status, 0) + 1
        totals[status] = totals.get(status, 0) + lines

    for key, fn in sorted(functions.items()):
        sites = [(fn.path, first) for first in fn.starts]
        status = "served" if any(site in served for site in sites) else \
            "tests-only" if any(site in tests for site in sites) else "unreached"
        keep = None
        if status != "served":
            keep = "f" if fn.by_rule else KEEP.get(key) if status == "tests-only" else None
        tally("functions", key, status, fn.lines, keep)
        if status != "served":
            continue
        for arm in fn.arms:
            status = "served" if arm.body & served_lines.get(arm.path, set()) else \
                "tests-only" if arm.body & tests_lines.get(arm.path, set()) else "unreached"
            keep = None
            if status != "served":
                keep = "a" if arm.raises else KEEP.get(arm.key)
            tally("arms", arm.key, status, arm.lines, keep)
    report["rejected"].sort()
    report["stale_keep"] = sorted(
        k for k in KEEP if (report["functions"].get(k) or report["arms"].get(k) or {})
        .get("status") == "served")
    return report


def source_hashes(src: Path) -> dict[str, str]:
    """The sha256 of every ``*.py`` under *src*, by path."""
    return {str(path): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(src.rglob("*.py"))}


def changed_sources(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """The paths added, removed or edited between two
    :func:`source_hashes`."""
    return sorted(path for path in before.keys() | after.keys()
                  if before.get(path) != after.get(path))


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
                    help="exit 1 on a function or arm that is not served and not kept")
    args = ap.parse_args(argv)

    # traced line numbers are mapped onto the sources read here: an edit
    # during the run would turn the verdicts into noise
    hashes = source_hashes(args.src)
    functions = inventory(args.src)
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp_name:
        tmp = Path(tmp_name)
        served_cmds = [shlex.split(a) for a in args.served] if args.served else default_served(tmp)
        tests_cmds = [shlex.split(a) for a in args.tests] if args.tests else DEFAULT_TESTS
        hits = trace({"served": served_cmds, "tests": tests_cmds}, args.src, tmp)
    if changed := changed_sources(hashes, source_hashes(args.src)):
        for path in changed:
            print(f"changed during the run: {path}", file=sys.stderr)
        print("reachability: sources changed while they were traced; no report written",
              file=sys.stderr)
        return 2
    report = {"src": str(args.src), "reasons": REASONS,
              **classify(functions, hits["served"], hits["tests"])}

    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    for what, counts, lines in (("functions", report["counts"], report["lines"]),
                                ("arms of served functions", report["arm_counts"],
                                 report["arm_lines"])):
        print(f"{sum(counts.values())} {what}: " + ", ".join(
            f"{counts.get(s, 0)} {s} ({lines.get(s, 0)} lines)"
            for s in ("served", "tests-only", "unreached")), file=sys.stderr)
    for key in report["stale_keep"]:
        print(f"note: KEEP entry {key} is served now", file=sys.stderr)
    if args.check and report["rejected"]:
        for key in report["rejected"]:
            entry = report["functions"].get(key) or report["arms"][key]
            print(f"not kept: {key} ({entry['status']})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
