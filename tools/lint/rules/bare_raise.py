"""REPRO010: no bare ``RuntimeError`` / ``AssertionError`` raise, no ``assert``.

Every way a run can fail is a typed error that carries its diagnostics
(``docs/faults.md`` has the who-retries-what table): a caller tells a
retryable storm from a terminal bug by type and reads the fields it
needs instead of parsing a message.  A bare ``raise RuntimeError(...)``
or ``raise AssertionError(...)`` in ``src/repro`` is how an untyped
failure comes back, so it is a lint failure there.  Defining a subclass
(``class StepLimitError(RuntimeError)``) and raising that is the clean
form, and ``except RuntimeError`` callers keep working.

An ``assert`` statement is worse: ``python -O`` strips it, so the check
it carries silently stops running (an incomplete route prints a table
as if it had passed).  Every ``assert`` in ``src/repro`` is flagged; the
clean form is an ``if`` that raises a typed error.  No allow-list.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.framework import FileContext, FileRule, Violation, dotted_name

#: the exception classes that may not be raised by name in src/repro
BANNED = {"RuntimeError", "AssertionError"}


class BareRaiseRule(FileRule):
    id = "REPRO010"
    title = "no bare RuntimeError / AssertionError raise and no assert (raise a typed subclass)"
    scopes = ("src/repro",)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield Violation(
                    self.id,
                    ctx.relpath,
                    node.lineno,
                    node.col_offset,
                    "assert statement (stripped by python -O); check with "
                    "an if and raise a typed error",
                )
                continue
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = dotted_name(exc)
            if name is not None and name.split(".")[-1] in BANNED:
                yield Violation(
                    self.id,
                    ctx.relpath,
                    node.lineno,
                    node.col_offset,
                    f"bare raise of {name}; raise a typed subclass that "
                    "carries the failure's diagnostics",
                )
