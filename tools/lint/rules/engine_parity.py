"""REPRO004 / REPRO005: keep the two engines and the fault layer in sync.

The differential tests prove the reference and fast engines agree on
the runs they exercise; these rules prove the *code* cannot silently
drift on the axes the tests don't enumerate:

* REPRO004 ``stat-parity`` — the reference engine reports through
  ``collect_stats(packets, ...)``, the fast engine through the
  array-backed ``stats_from_arrays(...)``; every stat keyword passed in
  ``routing/engine.py`` must also be passed in ``routing/fast_engine.py``
  (and vice versa), every keyword must exist on the constructor it is
  passed to, and the two constructors must take the same keywords.
  Adding a counter to one engine only now fails lint instead of
  surfacing as a baffling differential-test diff three PRs later.
* REPRO005 ``event-kind-order`` — ``EVENT_KINDS`` in ``faults/plan.py``
  stays a tuple literal of unique strings (it *is* the same-step
  ordering contract), every ``.kind`` string comparison in ``faults/``
  uses vocabulary from that tuple (typo guard), and every ``sorted()``
  over events whose key reads ``.kind`` ranks via ``EVENT_KINDS`` —
  never ad-hoc string order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.framework import FileContext, ProjectRule, Violation

METRICS_PATH = "src/repro/routing/metrics.py"
ENGINE_PATHS = ("src/repro/routing/engine.py", "src/repro/routing/fast_engine.py")
PLAN_PATH = "src/repro/faults/plan.py"


def _routing_stats_fields(ctx: FileContext) -> set[str]:
    """Names of RoutingStats dataclass fields (AnnAssign in class body)."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef) and node.name == "RoutingStats":
            fields: set[str] = set()
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    fields.add(stmt.target.id)
            return fields
    return set()


#: the functions that assemble a RoutingStats, by engine of use
STAT_CONSTRUCTORS = ("collect_stats", "stats_from_arrays")


def _constructor_params(ctx: FileContext) -> dict[str, tuple[int, set[str]]]:
    """``{name: (line, keyword-only parameter names)}`` of the stat
    constructors defined in metrics.py (the packets / per-packet arrays
    they count are positional and not part of the contract)."""
    found: dict[str, tuple[int, set[str]]] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.FunctionDef) and node.name in STAT_CONSTRUCTORS:
            found[node.name] = (node.lineno, {a.arg for a in node.args.kwonlyargs})
    return found


def _stat_call_sites(ctx: FileContext) -> list[tuple[int, str, frozenset[str]]]:
    """(line, callee, kwarg-name set) per stats-assembling call site."""
    sites: list[tuple[int, str, frozenset[str]]] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = None
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        if callee not in (*STAT_CONSTRUCTORS, "RoutingStats"):
            continue
        if any(kw.arg is None for kw in node.keywords):
            continue  # **kwargs call: not statically checkable
        names = frozenset(kw.arg for kw in node.keywords if kw.arg is not None)
        sites.append((node.lineno, callee, names))
    return sites


class StatParityRule(ProjectRule):
    id = "REPRO004"
    title = "engine stat parity: both engines assign the same RoutingStats fields"
    scopes = ("src/repro/routing",)

    def check_project(
        self, files: dict[str, FileContext]
    ) -> Iterator[Violation]:
        metrics = files.get(METRICS_PATH)
        engines = {p: files.get(p) for p in ENGINE_PATHS}
        if metrics is None or any(v is None for v in engines.values()):
            return  # partial lint invocation: nothing to cross-check

        fields = _routing_stats_fields(metrics)
        constructors = _constructor_params(metrics)
        if not fields or "collect_stats" not in constructors:
            yield Violation(
                self.id,
                METRICS_PATH,
                1,
                0,
                "could not locate RoutingStats fields / collect_stats "
                "parameters — the stat-parity contract has no anchor",
            )
            return
        legal = {name: params for name, (_, params) in constructors.items()}
        legal["RoutingStats"] = fields
        if "stats_from_arrays" in constructors:
            line, array_params = constructors["stats_from_arrays"]
            drift = array_params ^ constructors["collect_stats"][1]
            if drift:
                yield Violation(
                    self.id,
                    METRICS_PATH,
                    line,
                    0,
                    f"stats_from_arrays and collect_stats disagree on {sorted(drift)} "
                    "— both engines' constructors must take the same stat keywords",
                )

        unions: dict[str, frozenset[str]] = {}
        first_line: dict[str, int] = {}
        for path, ctx in engines.items():
            assert ctx is not None
            sites = _stat_call_sites(ctx)
            if not sites:
                yield Violation(
                    self.id,
                    path,
                    1,
                    0,
                    "no collect_stats()/stats_from_arrays()/RoutingStats() "
                    "call site found; the engine no longer reports stats?",
                )
                continue
            union: frozenset[str] = frozenset()
            for line, callee, names in sites:
                union |= names
                unknown = names - legal.get(callee, fields)
                if unknown:
                    yield Violation(
                        self.id,
                        path,
                        line,
                        0,
                        "unknown RoutingStats field(s) "
                        f"{sorted(unknown)} passed to {callee}",
                    )
            unions[path] = union
            first_line[path] = sites[0][0]

        if len(unions) == len(ENGINE_PATHS):
            a, b = ENGINE_PATHS
            for here, there in ((a, b), (b, a)):
                gap = unions[there] - unions[here]
                if gap:
                    yield Violation(
                        self.id,
                        here,
                        first_line[here],
                        0,
                        f"stat field(s) {sorted(gap)} are set in "
                        f"{there.rsplit('/', 1)[-1]} but never here — "
                        "engines must assign identical RoutingStats fields",
                    )


class EventKindOrderRule(ProjectRule):
    id = "REPRO005"
    title = "fault events honor the canonical EVENT_KINDS tuple"
    scopes = ("src/repro/faults",)

    def _event_kinds(
        self, files: dict[str, FileContext]
    ) -> tuple[list[str] | None, list[Violation]]:
        plan = files.get(PLAN_PATH)
        if plan is None:
            return None, []
        for node in ast.walk(plan.tree):
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "EVENT_KINDS"
                for t in node.targets
            ):
                continue
            value = node.value
            if not isinstance(value, ast.Tuple):
                return None, [
                    Violation(
                        self.id,
                        PLAN_PATH,
                        node.lineno,
                        node.col_offset,
                        "EVENT_KINDS must be a tuple literal (its element "
                        "order is the same-step application contract)",
                    )
                ]
            kinds: list[str] = []
            for elt in value.elts:
                if not (
                    isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                ):
                    return None, [
                        Violation(
                            self.id,
                            PLAN_PATH,
                            elt.lineno,
                            elt.col_offset,
                            "EVENT_KINDS entries must be string literals",
                        )
                    ]
                kinds.append(elt.value)
            if len(set(kinds)) != len(kinds):
                return None, [
                    Violation(
                        self.id,
                        PLAN_PATH,
                        node.lineno,
                        node.col_offset,
                        "EVENT_KINDS contains duplicate kinds",
                    )
                ]
            return kinds, []
        return None, [
            Violation(
                self.id,
                PLAN_PATH,
                1,
                0,
                "EVENT_KINDS tuple not found in faults/plan.py",
            )
        ]

    def check_project(
        self, files: dict[str, FileContext]
    ) -> Iterator[Violation]:
        if PLAN_PATH not in files:
            return  # partial lint invocation
        kinds, problems = self._event_kinds(files)
        yield from problems
        if kinds is None:
            return
        vocab = set(kinds)

        for path, ctx in sorted(files.items()):
            for node in ast.walk(ctx.tree):
                # `x.kind == "..."` / `!=` / `in ("...", ...)` vocabulary
                if isinstance(node, ast.Compare):
                    sides = [node.left, *node.comparators]
                    if not any(
                        isinstance(s, ast.Attribute) and s.attr == "kind"
                        for s in sides
                    ):
                        continue
                    for s in sides:
                        literals: list[ast.Constant] = []
                        if isinstance(s, ast.Constant) and isinstance(
                            s.value, str
                        ):
                            literals = [s]
                        elif isinstance(s, (ast.Tuple, ast.List, ast.Set)):
                            literals = [
                                e
                                for e in s.elts
                                if isinstance(e, ast.Constant)
                                and isinstance(e.value, str)
                            ]
                        for lit in literals:
                            if lit.value not in vocab:
                                yield Violation(
                                    self.id,
                                    path,
                                    lit.lineno,
                                    lit.col_offset,
                                    f"unknown fault-event kind {lit.value!r} "
                                    f"(EVENT_KINDS = {kinds})",
                                )
                # sorted(events, key=...) must rank kinds via EVENT_KINDS
                elif isinstance(node, ast.Call):
                    if not (
                        isinstance(node.func, ast.Name)
                        and node.func.id == "sorted"
                    ):
                        continue
                    for kw in node.keywords:
                        if kw.arg != "key":
                            continue
                        key_src = ast.dump(kw.value)
                        reads_kind = "attr='kind'" in key_src
                        uses_table = "EVENT_KINDS" in key_src or any(
                            isinstance(n, ast.Name)
                            and n.id.endswith("sort_key")
                            for n in ast.walk(kw.value)
                        )
                        if reads_kind and not uses_table:
                            yield Violation(
                                self.id,
                                path,
                                node.lineno,
                                node.col_offset,
                                "event sort key reads .kind but does not "
                                "rank via EVENT_KINDS — same-step ordering "
                                "must use the canonical tuple",
                            )
