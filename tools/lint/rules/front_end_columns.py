"""REPRO009: the served path runs on columns, it builds no request object.

A request is one column of a table from the generator to the
``EpochRecord``: ``WorkloadGenerator.stream`` yields ``RequestBatch``
matrices, the driver's admission is a selection on its pending table,
``emulate_step`` is handed ``RequestColumns``, a shard fleet splits
them with row-takes.  The per-request object — ``TrafficRequest`` —
still exists, as the *row view* a test or a post-mortem reads;
constructing one by name in a served-path module is how the
per-request loops come back (each one needs a loop to fill it).

Hence: no ``TrafficRequest(...)`` call in the driver, the sharding
layer, or the emulators' shared pipeline.  Row views come from
iterating a ``RequestBatch``, next to the class that builds them.

The same holds one layer down: the fast engine routes the rows of a path
matrix, on either lane, and a ``Packet`` exists only at the reference
engine's boundary (``Router._materialise``, the reference reply
packets).  Hence also: no ``Packet(...)`` / ``make_packets(...)`` call
in ``routing/fast_engine.py``, ``routing/fast_phases.py`` or
``routing/fast_scalar.py``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.framework import FileContext, FileRule, Violation, call_name

#: the modules a served request passes through
SERVED_PATH = (
    "src/repro/traffic/driver.py",
    "src/repro/sharding/",
    "src/repro/emulation/base.py",
    "src/repro/emulation/leveled.py",
    "src/repro/emulation/mesh.py",
)

REQUEST_OBJECTS = ("TrafficRequest",)

#: the fast engine's modules: its interface and both lanes
ENGINE_PATH = (
    "src/repro/routing/fast_engine.py",
    "src/repro/routing/fast_phases.py",
    "src/repro/routing/fast_scalar.py",
)

PACKET_OBJECTS = ("Packet", "make_packets")


class FrontEndColumnsRule(FileRule):
    id = "REPRO009"
    title = "served-path modules construct no per-request object, the fast engine no Packet"
    scopes = SERVED_PATH + ENGINE_PATH

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.relpath.startswith(ENGINE_PATH):
            banned, why = PACKET_OBJECTS, (
                "built in the fast engine; it routes integer columns "
                "— rows of flat paths, read back through RunArrays — and "
                "a Packet exists only on the reference engine's side "
                "(Router._materialise)"
            )
        else:
            banned, why = REQUEST_OBJECTS, (
                "built on the served path; requests are table columns here "
                "— iterate a RequestBatch for row views"
            )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is not None and name.split(".")[-1] in banned:
                yield Violation(
                    self.id,
                    ctx.relpath,
                    node.lineno,
                    node.col_offset,
                    f"{name.split('.')[-1]}(...) {why}",
                )
