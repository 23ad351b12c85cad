"""The PRAM's shared global memory (§1).

A flat address space of M cells with unit-time access — the abstraction
the whole paper is about making physically realizable.  Cells default to
0; reads of never-written cells are well-defined.
"""

from __future__ import annotations

from typing import Mapping


class SharedMemory:
    """M-cell shared memory with dense integer addresses."""

    def __init__(self, size: int, init: Mapping[int, object] | None = None) -> None:
        if size < 1:
            raise ValueError("memory size must be positive")
        self.size = size
        self._cells: dict[int, object] = {}
        if init is not None:
            for addr, val in init.items():
                self.write(int(addr), val)

    def _check(self, addr: int) -> None:
        if not 0 <= addr < self.size:
            raise IndexError(f"address {addr} outside [0, {self.size})")

    def read(self, addr: int):
        self._check(addr)
        return self._cells.get(addr, 0)

    def write(self, addr: int, value) -> None:
        self._check(addr)
        self._cells[addr] = value

    def touched(self):
        """The addresses ever written, as a live set-like view; every
        other cell reads 0."""
        return self._cells.keys()

    def snapshot(self, lo: int = 0, hi: int | None = None) -> list:
        """Cells [lo, hi) as a list (hi defaults to the used extent)."""
        if hi is None:
            hi = max(self._cells, default=-1) + 1
        return [self.read(a) for a in range(lo, hi)]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedMemory(size={self.size}, touched={len(self._cells)})"
