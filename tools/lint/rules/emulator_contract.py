"""REPRO008: the front end reads the ``Emulator`` contract, it does not probe.

Everything the serving front end drives subclasses
:class:`repro.emulation.base.Emulator`, whose class docstring lists what
a front end may ask of any emulator (``n_processors``, ``scale``,
``mode``, ``memory``, ``observer``, ``faults``, ``virtual_clock``,
``write_policy`` / ``combine_op``, ``serving_modules`` / ``module_of``)
with class-level defaults for an emulator that has nothing to say.  A
``hasattr`` / ``getattr(x, "name", default)`` in the front end re-opens
the duck-typed side door that once made "how many processors" exist
four times and sent a shard fleet down a scalar per-request hash path
because it had no ``.hash`` — so in the front-end modules a *probe* is
a violation:

any ``hasattr(...)`` or ``getattr(...)`` call, with no allow-list (the
last one, ``replay.py``'s ``getattr(emulator, "shards", None)`` fan-out
of write semantics, became an assignment the fleet forwards itself).
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.framework import FileContext, FileRule, Violation

#: the modules that look at an emulator from the outside
FRONT_END = (
    "src/repro/traffic/driver.py",
    "src/repro/sharding/",
    "src/repro/emulation/replay.py",
    "src/repro/apps/harness.py",
)


class EmulatorContractRule(FileRule):
    id = "REPRO008"
    title = "front-end modules read Emulator attributes; no getattr/hasattr probes"
    scopes = FRONT_END

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
            ):
                continue
            name = node.args[1] if len(node.args) > 1 else None
            literal = (
                name.value
                if isinstance(name, ast.Constant) and isinstance(name.value, str)
                else None
            )
            yield Violation(
                self.id,
                ctx.relpath,
                node.lineno,
                node.col_offset,
                f"{node.func.id}() probe"
                + (f" of {literal!r}" if literal else "")
                + " in a front-end module; read the attribute — every served "
                "emulator subclasses Emulator, which declares the contract "
                "and its defaults",
            )
