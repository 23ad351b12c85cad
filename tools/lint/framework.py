"""Custom AST lint framework for the repo's hand-maintained invariants.

The tier-1 suite checks *behavior*; this layer checks the structural
rules that keep behavior checkable — seeded-RNG discipline, no wall
clock in the deterministic core, no iteration over unordered sets in
hot paths, and canonical fault-event ordering.  Rules are deliberately small: each
one encodes exactly one invariant that used to live only in ROADMAP
prose or review comments.

Two rule shapes:

* :class:`FileRule` — visits one parsed file at a time (scoped by path
  prefix).
* :class:`ProjectRule` — runs once over every parsed file, for
  cross-file invariants (e.g. "every event kind a module compares
  against is in ``EVENT_KINDS``").

Suppressions: append ``# lint: ok RULE_ID [reason]`` to the offending
line.  Suppressions are per-line and per-rule; a reason is encouraged.

Run:  python -m tools.lint [--list-rules] [--rule ID ...] [paths ...]
or via pytest: tests/test_lint.py asserts the tree is clean.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: directories scanned when no explicit paths are given
DEFAULT_SCAN_DIRS = ("src/repro",)

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ok\s+([A-Z0-9, ]+)")


@dataclass(frozen=True)
class Violation:
    """One lint finding, printable as ``path:line:col: RULE message``."""

    rule: str
    path: str  #: repo-relative, forward slashes
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class FileContext:
    """A parsed source file plus the helpers rules lean on."""

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=relpath)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def suppressed(self, lineno: int, rule_id: str) -> bool:
        m = _SUPPRESS_RE.search(self.line_text(lineno))
        if not m:
            return False
        ids = {part.strip() for part in m.group(1).split(",")}
        return rule_id in ids


class Rule:
    """Base: rule id, one-line title, and the path scopes it covers."""

    id: str = ""
    title: str = ""
    #: repo-relative path prefixes this rule applies to
    scopes: tuple[str, ...] = ("src/repro",)

    def applies_to(self, relpath: str) -> bool:
        rel = relpath.replace("\\", "/")
        return any(rel.startswith(scope) for scope in self.scopes)


class FileRule(Rule):
    def check(self, ctx: FileContext) -> Iterator[Violation]:  # pragma: no cover
        raise NotImplementedError


class ProjectRule(Rule):
    def check_project(
        self, files: dict[str, FileContext]
    ) -> Iterator[Violation]:  # pragma: no cover
        raise NotImplementedError


def default_rules() -> list[Rule]:
    """One instance of every registered rule (import-time registry)."""
    from tools.lint import rules

    return [cls() for cls in rules.ALL_RULES]


def discover_files(
    root: Path = REPO_ROOT, paths: Sequence[str] | None = None
) -> list[Path]:
    """Python files to lint: explicit *paths*, else the default dirs."""
    if paths:
        out: list[Path] = []
        for p in paths:
            path = (root / p) if not Path(p).is_absolute() else Path(p)
            if path.is_dir():
                out.extend(sorted(path.rglob("*.py")))
            else:
                out.append(path)
        return out
    files: list[Path] = []
    for d in DEFAULT_SCAN_DIRS:
        files.extend(sorted((root / d).rglob("*.py")))
    return files


def run_lint(
    root: Path = REPO_ROOT,
    *,
    paths: Sequence[str] | None = None,
    rules: Iterable[Rule] | None = None,
) -> list[Violation]:
    """Lint the tree (or *paths*) and return all unsuppressed findings."""
    active = list(rules) if rules is not None else default_rules()
    file_rules = [r for r in active if isinstance(r, FileRule)]
    project_rules = [r for r in active if isinstance(r, ProjectRule)]

    contexts: dict[str, FileContext] = {}
    violations: list[Violation] = []
    for path in discover_files(root, paths):
        try:
            rel = str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            rel = str(path)
        rel = rel.replace("\\", "/")
        ctx = FileContext(rel, path.read_text())
        contexts[rel] = ctx
        for rule in file_rules:
            if not rule.applies_to(rel):
                continue
            for v in rule.check(ctx):
                if not ctx.suppressed(v.line, v.rule):
                    violations.append(v)

    for rule in project_rules:
        scoped = {
            rel: ctx for rel, ctx in contexts.items() if rule.applies_to(rel)
        }
        for v in rule.check_project(scoped):
            ctx = contexts.get(v.path)
            if ctx is not None and ctx.suppressed(v.line, v.rule):
                continue
            violations.append(v)

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


# ---------------------------------------------------------------------------
# Shared AST helpers used by several rules
# ---------------------------------------------------------------------------

def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """Dotted name of the callee, else None for computed callees."""
    return dotted_name(node.func)
