"""REPRO005 ``event-kind-order``: fault code honors one event order.

``EVENT_KINDS`` in ``faults/plan.py`` stays a tuple literal of unique
strings (it *is* the same-step ordering contract), every ``.kind``
string comparison in ``faults/`` uses vocabulary from that tuple (typo
guard), and every ``sorted()`` over events whose key reads ``.kind``
ranks via ``EVENT_KINDS`` — never ad-hoc string order.

REPRO004 ``stat-parity`` lived here too and is retired: it kept the two
engines' stat constructors taking the same keywords, and both engines
now report through the one ``metrics.stats_from_arrays``, whose stat
keywords are all required, so a counter one engine forgets is a
``TypeError`` at its first run.  The id is not reused.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.framework import FileContext, ProjectRule, Violation

PLAN_PATH = "src/repro/faults/plan.py"


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
