"""A library of classic PRAM programs (§1: "sorting, graph and matrix
problems, computational geometry" are the PRAM's home turf).

Each entry is a :class:`ProgramSpec` bundling the program, its machine
requirements (mode, write policy), the memory layout, and a verifier.
These serve three purposes: they exercise the PRAM semantics in tests,
they generate *realistic* memory traces for the emulation experiments,
and they are the substance of the example applications.

Memory layouts are documented per program; all use dense cells.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.pram.machine import PRAM, Read, Write, run_program
from repro.pram.variants import AccessMode, WritePolicy


class OracleMismatchError(AssertionError):
    """A program's result disagrees with its sequential oracle.

    Raised by every verifier in the program library (and the
    applications' in :mod:`repro.apps.programs`) through
    :func:`check_oracle`, an explicit ``raise`` that ``python -O``
    cannot strip the way it strips an ``assert``.  Carries
    ``program``, ``expected``, ``got`` and ``index``: the first
    position where two sequences differ (their common length when one
    is a prefix of the other), ``None`` for scalar results.  An
    ``AssertionError`` subclass, so ``except AssertionError`` callers
    keep working.
    """

    def __init__(self, program: str, expected, got) -> None:
        self.program = program
        self.expected = expected
        self.got = got
        self.index = None
        if isinstance(expected, list) and isinstance(got, list):
            self.index = next(
                (i for i, (e, g) in enumerate(zip(expected, got)) if e != g),
                min(len(expected), len(got)),
            )
        where = "" if self.index is None else f" (first difference at index {self.index})"
        super().__init__(f"{program}: got {got!r}, expected {expected!r}{where}")


def check_oracle(program: str, got, expected) -> None:
    """Raise :class:`OracleMismatchError` unless ``got == expected``."""
    if got != expected:
        raise OracleMismatchError(program, expected, got)


@dataclass
class ProgramSpec:
    """A runnable, verifiable PRAM workload."""

    name: str
    n_procs: int
    memory_size: int
    mode: AccessMode
    program: Callable
    init: dict[int, object] = field(default_factory=dict)
    write_policy: WritePolicy = WritePolicy.COMMON
    combine_op: str = "sum"
    #: verifier(pram) -> None, raises OracleMismatchError on failure
    verify: Callable[[PRAM], None] | None = None

    def run(
        self,
        *,
        max_steps: int = 100_000,
        check_races: bool | AccessMode | None = None,
    ) -> PRAM:
        pram = run_program(
            self.program,
            self.n_procs,
            self.memory_size,
            mode=self.mode,
            write_policy=self.write_policy,
            combine_op=self.combine_op,
            init=self.init,
            max_steps=max_steps,
            check_races=check_races,
        )
        if self.verify is not None:
            self.verify(pram)
        return pram


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# ---------------------------------------------------------------------------
# 1. Tree-structured parallel sum (EREW, O(log n) rounds)
# Layout: cells [0, n) = working array (destroyed); cell 0 ends as the sum.
# ---------------------------------------------------------------------------

def parallel_sum(values: Sequence[float]) -> ProgramSpec:
    n = len(values)
    if not _is_pow2(n):
        raise ValueError("parallel_sum needs a power-of-two input size")
    total = sum(values)

    def program(pid: int, nprocs: int):
        stride = 1
        while stride < n:
            if pid % (2 * stride) == 0 and pid + stride < n:
                other = yield Read(pid + stride)
                mine = yield Read(pid)
                yield Write(pid, mine + other)
            else:
                yield None
                yield None
                yield None
            stride *= 2

    def verify(pram: PRAM) -> None:
        check_oracle("parallel-sum", pram.memory.read(0), total)

    return ProgramSpec(
        name="parallel-sum",
        n_procs=n,
        memory_size=n,
        mode=AccessMode.EREW,
        program=program,
        init=dict(enumerate(values)),
        verify=verify,
    )


# ---------------------------------------------------------------------------
# 2. Prefix sums via double-buffered Hillis–Steele scan (EREW, O(log n))
# Layout: cells [0, n) buffer A, [n, 2n) buffer B; result = inclusive scan.
# ---------------------------------------------------------------------------

def prefix_sum(values: Sequence[float]) -> ProgramSpec:
    n = len(values)
    if not _is_pow2(n):
        raise ValueError("prefix_sum needs a power-of-two input size")
    import itertools

    expected = list(itertools.accumulate(values))
    rounds = n.bit_length() - 1  # log2 n

    def buf(round_idx: int) -> int:
        return 0 if round_idx % 2 == 0 else n

    def program(pid: int, nprocs: int):
        for r in range(rounds):
            src, dst = buf(r), buf(r + 1)
            stride = 1 << r
            mine = yield Read(src + pid)
            if pid >= stride:
                left = yield Read(src + pid - stride)
                yield Write(dst + pid, mine + left)
            else:
                yield None
                yield Write(dst + pid, mine)

    def verify(pram: PRAM) -> None:
        base = buf(rounds)
        got = [pram.memory.read(base + i) for i in range(n)]
        check_oracle("prefix-sum", got, expected)

    return ProgramSpec(
        name="prefix-sum",
        n_procs=n,
        memory_size=2 * n,
        mode=AccessMode.EREW,
        program=program,
        init=dict(enumerate(values)),
        verify=verify,
    )


# ---------------------------------------------------------------------------
# 3. Broadcast by recursive doubling (EREW, O(log n))
# Layout: cells [0, n); cell 0 starts with the value; all end with it.
# ---------------------------------------------------------------------------

def broadcast(n: int, value: object = 42) -> ProgramSpec:
    if not _is_pow2(n):
        raise ValueError("broadcast needs a power-of-two processor count")

    def program(pid: int, nprocs: int):
        stride = 1
        while stride < n:
            if stride <= pid < 2 * stride:
                got = yield Read(pid - stride)
                yield Write(pid, got)
            else:
                yield None
                yield None
            stride *= 2

    def verify(pram: PRAM) -> None:
        vals = [pram.memory.read(i) for i in range(n)]
        check_oracle("broadcast", vals, [value] * n)

    return ProgramSpec(
        name="broadcast",
        n_procs=n,
        memory_size=n,
        mode=AccessMode.EREW,
        program=program,
        init={0: value},
        verify=verify,
    )


# ---------------------------------------------------------------------------
# 4. Boolean OR in O(1) (CRCW-COMMON): the canonical constant-time trick.
# Layout: cells [0, n) = input bits; cell n = result (preset 0).
# ---------------------------------------------------------------------------

def boolean_or(bits: Sequence[int]) -> ProgramSpec:
    n = len(bits)
    expected = int(any(bits))

    def program(pid: int, nprocs: int):
        mine = yield Read(pid)
        if mine:
            yield Write(n, 1)
        else:
            yield None

    def verify(pram: PRAM) -> None:
        check_oracle("boolean-or", pram.memory.read(n), expected)

    return ProgramSpec(
        name="boolean-or",
        n_procs=n,
        memory_size=n + 1,
        mode=AccessMode.CRCW,
        write_policy=WritePolicy.COMMON,
        program=program,
        init=dict(enumerate(bits)),
        verify=verify,
    )


# ---------------------------------------------------------------------------
# 5. Maximum in O(1) with n² processors (CRCW-COMMON).
# Layout: [0, n) input; [n, 2n) loser flags (preset 0); cell 2n = result.
# ---------------------------------------------------------------------------

def find_max(values: Sequence[float]) -> ProgramSpec:
    n = len(values)
    expected = max(values)

    def program(pid: int, nprocs: int):
        i, j = divmod(pid, n)
        a_i = yield Read(i)
        a_j = yield Read(j)
        # mark the loser of each comparison (ties: higher index loses)
        if (a_i, -i) < (a_j, -j):
            yield Write(n + i, 1)
        else:
            yield None
        if i == 0:  # one row of processors publishes the winner
            flag = yield Read(n + j)
            if not flag:
                yield Write(2 * n, a_j)
            else:
                yield None

    def verify(pram: PRAM) -> None:
        check_oracle("find-max", pram.memory.read(2 * n), expected)

    return ProgramSpec(
        name="find-max",
        n_procs=n * n,
        memory_size=2 * n + 1,
        mode=AccessMode.CRCW,
        write_policy=WritePolicy.COMMON,
        program=program,
        init=dict(enumerate(values)),
        verify=verify,
    )


# ---------------------------------------------------------------------------
# 6. List ranking by pointer jumping (CREW, O(log n) rounds).
# Layout: [0, n) next-pointers (self-loop marks the tail);
#         [n, 2n) ranks (distance to tail).
# ---------------------------------------------------------------------------

def list_ranking(next_ptrs: Sequence[int]) -> ProgramSpec:
    n = len(next_ptrs)

    # reference ranks
    expected = [0] * n
    for i in range(n):
        r, cur = 0, i
        while next_ptrs[cur] != cur:
            cur = next_ptrs[cur]
            r += 1
            if r > n:
                raise ValueError("next_ptrs does not describe a list")
        expected[i] = r

    import math

    rounds = max(1, math.ceil(math.log2(max(2, n))))

    def program(pid: int, nprocs: int):
        # invariant: rank[i] == distance from i to next[i]
        for _ in range(rounds):
            nxt = yield Read(pid)
            if nxt != pid:
                add = yield Read(n + nxt)  # concurrent read at the tail: CREW
                mine = yield Read(n + pid)
                yield Write(n + pid, mine + add)
                jump = yield Read(nxt)  # concurrent read: CREW
                yield Write(pid, jump)
            else:
                for _ in range(5):
                    yield None  # stay in lockstep with active processors

    def verify(pram: PRAM) -> None:
        got = [pram.memory.read(n + i) for i in range(n)]
        check_oracle("list-ranking", got, expected)

    init: dict[int, object] = dict(enumerate(next_ptrs))
    for i in range(n):
        init[n + i] = 0 if next_ptrs[i] == i else 1

    return ProgramSpec(
        name="list-ranking",
        n_procs=n,
        memory_size=2 * n,
        mode=AccessMode.CREW,
        program=program,
        init=init,
        verify=verify,
    )


# ---------------------------------------------------------------------------
# 7. Matrix multiply, k² processors each owning c[i][j] (CREW, O(k) steps).
# Layout: [0, k²) = A row-major, [k², 2k²) = B, [2k², 3k²) = C.
# ---------------------------------------------------------------------------

def matrix_multiply(a: Sequence[Sequence[float]], b: Sequence[Sequence[float]]) -> ProgramSpec:
    k = len(a)
    if any(len(row) != k for row in a) or len(b) != k or any(len(r) != k for r in b):
        raise ValueError("need square matrices of equal size")
    expected = [
        [sum(a[i][r] * b[r][j] for r in range(k)) for j in range(k)] for i in range(k)
    ]

    def program(pid: int, nprocs: int):
        i, j = divmod(pid, k)
        acc = 0
        for r in range(k):
            x = yield Read(i * k + r)
            y = yield Read(k * k + r * k + j)
            acc += x * y
        yield Write(2 * k * k + i * k + j, acc)

    def verify(pram: PRAM) -> None:
        got = [
            [pram.memory.read(2 * k * k + i * k + j) for j in range(k)]
            for i in range(k)
        ]
        check_oracle("matrix-multiply", got, expected)

    init: dict[int, object] = {}
    for i in range(k):
        for j in range(k):
            init[i * k + j] = a[i][j]
            init[k * k + i * k + j] = b[i][j]

    return ProgramSpec(
        name="matrix-multiply",
        n_procs=k * k,
        memory_size=3 * k * k,
        mode=AccessMode.CREW,
        program=program,
        init=init,
        verify=verify,
    )


# ---------------------------------------------------------------------------
# 8. Odd–even transposition sort (EREW, O(n) rounds) — the paper's favorite
#    benchmark problem class (§2.2.1 mentions sorting-based routing).
# Layout: [0, n) the array, sorted ascending in place.
# ---------------------------------------------------------------------------

def odd_even_sort(values: Sequence[float]) -> ProgramSpec:
    n = len(values)
    expected = sorted(values)

    def program(pid: int, nprocs: int):
        for rnd in range(n):
            active = pid % 2 == rnd % 2 and pid + 1 < n
            if active:
                x = yield Read(pid)
                y = yield Read(pid + 1)
                if x > y:
                    yield Write(pid, y)
                    yield Write(pid + 1, x)
                else:
                    yield None
                    yield None
            else:
                for _ in range(4):
                    yield None

    def verify(pram: PRAM) -> None:
        got = [pram.memory.read(i) for i in range(n)]
        check_oracle("odd-even-sort", got, expected)

    return ProgramSpec(
        name="odd-even-sort",
        n_procs=n,
        memory_size=n,
        mode=AccessMode.EREW,
        program=program,
        init=dict(enumerate(values)),
        verify=verify,
    )


# ---------------------------------------------------------------------------
# 9. Histogram with combining writes (CRCW-COMBINE "sum").
# Layout: [0, n) keys; [n, n+k) counts.
# ---------------------------------------------------------------------------

def histogram(keys: Sequence[int], n_bins: int) -> ProgramSpec:
    n = len(keys)
    expected = [0] * n_bins
    for key in keys:
        if not 0 <= key < n_bins:
            raise ValueError(f"key {key} outside [0, {n_bins})")
        expected[key] += 1

    def program(pid: int, nprocs: int):
        key = yield Read(pid)
        yield Write(n + key, 1)

    def verify(pram: PRAM) -> None:
        got = [pram.memory.read(n + b) for b in range(n_bins)]
        check_oracle("histogram", got, expected)

    return ProgramSpec(
        name="histogram",
        n_procs=n,
        memory_size=n + n_bins,
        mode=AccessMode.CRCW,
        write_policy=WritePolicy.COMBINE,
        combine_op="sum",
        program=program,
        init=dict(enumerate(keys)),
        verify=verify,
    )


ALL_PROGRAM_BUILDERS: dict[str, Callable[[], ProgramSpec]] = {
    "parallel-sum": lambda: parallel_sum(list(range(16))),
    "prefix-sum": lambda: prefix_sum(list(range(1, 17))),
    "broadcast": lambda: broadcast(16),
    # at least two set bits so the CRCW-COMMON concurrent write actually
    # happens on the default input (keeps the race classifier's inferred
    # variant equal to the declared one, not merely over-declared)
    "boolean-or": lambda: boolean_or([0] * 13 + [1] * 3),
    "find-max": lambda: find_max([3, 1, 4, 1, 5, 9, 2, 6]),
    "list-ranking": lambda: list_ranking([1, 2, 3, 4, 5, 6, 7, 7]),
    "matrix-multiply": lambda: matrix_multiply(
        [[1, 2], [3, 4]], [[5, 6], [7, 8]]
    ),
    "odd-even-sort": lambda: odd_even_sort([5, 3, 8, 1, 9, 2, 7, 4]),
    "histogram": lambda: histogram([0, 1, 1, 2, 2, 2, 3, 0], 4),
}

# The application layer (repro.apps) contributes its data-dependent
# workloads — connected components, bisimulation, and the EREW matching
# specialization — to the same registry, so classification sweeps and
# emulation differentials cover them automatically.  apps.programs
# defers its ProgramSpec import to builder call time, which keeps this
# bottom-of-module import acyclic.
from repro.apps.programs import APP_PROGRAM_BUILDERS

ALL_PROGRAM_BUILDERS.update(APP_PROGRAM_BUILDERS)
