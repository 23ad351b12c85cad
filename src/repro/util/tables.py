"""Plain-text table rendering for experiment output.

The paper has no numeric tables of its own (it is an analysis paper), so the
reproduction prints one table per theorem in a uniform format: a header, one
row per parameter setting, and an optional caption tying the numbers back to
the claimed bound.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


class Table:
    """Small monospace table builder.

    >>> t = Table(["n", "time"], title="demo")
    >>> t.add_row([4, 12.5])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, columns: Sequence[str], *, title: str | None = None) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = [str(c) for c in columns]
        self.title = title
        self.rows: list[list[str]] = []
        #: the cells as given to :meth:`add_row`, before rendering
        self.values: list[list[Any]] = []
        self.caption: str | None = None

    def add_row(self, values: Iterable[Any]) -> None:
        values = list(values)
        row = [self._fmt(v) for v in values]
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(row)
        self.values.append(values)

    def set_caption(self, caption: str) -> None:
        self.caption = caption

    @staticmethod
    def _fmt(v: Any) -> str:
        if isinstance(v, float):
            if abs(v) >= 1000 or (abs(v) < 0.01 and v != 0):
                return f"{v:.3g}"
            return f"{v:.3f}".rstrip("0").rstrip(".")
        return str(v)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = []
        if self.title:
            lines.append(self.title)
            lines.append("=" * max(len(self.title), len(header)))
        lines.append(header)
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if self.caption:
            lines.append("")
            lines.append(self.caption)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()
