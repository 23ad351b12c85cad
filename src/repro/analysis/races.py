"""PRAM conflict/race analysis: infer and verify access-mode semantics.

The paper's emulation theorems are parameterized by the PRAM variant —
Theorem 2.5 emulates EREW directly, Theorem 2.6 buys CRCW via combining —
so a program that silently violates its declared :class:`AccessMode`
invalidates whichever bound it is run under.  This module turns that
contract into a checkable artifact:

* :class:`ConflictChecker` consumes :class:`~repro.pram.trace.RequestColumns`
  steps (post-hoc over a whole :class:`~repro.pram.trace.MemoryTrace`,
  or incrementally step by step as a run sanitizer) and emits structured
  :class:`RaceReport` entries — one per (step, address) conflict, naming
  the step, the address, the participating pids, and the conflict kind.
* :func:`infer_mode` reduces the reports to the *minimal* variant that
  legalizes the trace (EREW < CREW < CRCW, plus which
  :class:`WritePolicy` values remain sound for the observed writes).
* :func:`classify_program` pre-runs a :class:`~repro.pram.programs.ProgramSpec`
  on a permissive machine (mode enforcement off) and verifies the
  declared mode/policy against the inferred one — the machinery behind
  the "every library program is classified" test gate.  The registry it
  sweeps includes the application programs from :mod:`repro.apps`
  (connected components, bisimulation), whose addresses are
  data-dependent — the trace-level check is what certifies them, since
  the static scan cannot; ``BENCH_apps.json`` re-asserts the ``exact``
  verdict per benchmark row.
* :class:`SymbolicAddressScan` is the static half: it inspects the
  program's AST and proves exclusivity for address expressions that are
  affine in ``pid`` (``Read(pid + stride)``, ``Write(2 * pid, ...)``),
  flags pid-independent expressions as shared, and reports everything
  else as data-dependent.  Full symbolic execution of arbitrary Python
  generators is not tractable; the scan is advisory and the trace-level
  checker is the ground truth for a given input.

The incremental entry point is exposed on the machine itself as
``PRAM.run(check_races=...)`` (see :mod:`repro.pram.machine`).
"""

from __future__ import annotations

import ast
import enum
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.pram.trace import MemoryTrace, RequestColumns
from repro.pram.variants import AccessMode, ConcurrentAccessError, WritePolicy

__all__ = [
    "ConflictChecker",
    "ConflictKind",
    "ProgramClassification",
    "RaceError",
    "RaceReport",
    "SymbolicAddressScan",
    "TraceAnalysis",
    "classify_all_programs",
    "classify_program",
    "find_violations",
    "infer_mode",
    "mode_allows",
    "prerun_trace",
    "scan_program_addresses",
]


class ConflictKind(enum.Enum):
    """What collided at one (step, address)."""

    READ_READ = "read-read"  #: >1 concurrent readers, no writer
    READ_WRITE = "read-write"  #: >=1 reader and >=1 writer
    WRITE_WRITE = "write-write"  #: >1 concurrent writers


#: weakest AccessMode that legalizes each conflict kind
REQUIRED_MODE = {
    ConflictKind.READ_READ: AccessMode.CREW,
    ConflictKind.READ_WRITE: AccessMode.CRCW,
    ConflictKind.WRITE_WRITE: AccessMode.CRCW,
}

_MODE_RANK = {AccessMode.EREW: 0, AccessMode.CREW: 1, AccessMode.CRCW: 2}


def mode_allows(declared: AccessMode, required: AccessMode) -> bool:
    """True when *declared* is at least as permissive as *required*."""
    return _MODE_RANK[declared] >= _MODE_RANK[required]


@dataclass(frozen=True)
class RaceReport:
    """One same-step conflict at one address."""

    step: int
    addr: int
    kind: ConflictKind
    readers: tuple[int, ...] = ()
    writers: tuple[int, ...] = ()
    #: for WRITE_WRITE: did every writer carry the same value?  (If so
    #: the conflict is still COMMON-legal.)  None for other kinds.
    values_agree: bool | None = None

    @property
    def pids(self) -> tuple[int, ...]:
        """All participating processors, sorted and deduplicated."""
        return tuple(sorted(set(self.readers) | set(self.writers)))

    @property
    def required_mode(self) -> AccessMode:
        return REQUIRED_MODE[self.kind]

    def describe(self) -> str:
        parts = [f"step {self.step}: {self.kind.value} on address {self.addr}"]
        if self.readers:
            parts.append(f"readers={list(self.readers)}")
        if self.writers:
            parts.append(f"writers={list(self.writers)}")
        if self.kind is ConflictKind.WRITE_WRITE:
            parts.append(
                "values agree" if self.values_agree else "values diverge"
            )
        return " ".join(parts)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


@dataclass
class TraceAnalysis:
    """Everything the checker learned from one trace."""

    reports: list[RaceReport]
    steps_analyzed: int
    #: weakest AccessMode under which every step is legal
    minimal_mode: AccessMode
    #: True when every WRITE_WRITE conflict is value-agreeing, i.e.
    #: WritePolicy.COMMON would not raise on this trace
    common_compatible: bool

    def violations(
        self, mode: AccessMode, write_policy: WritePolicy | None = None
    ) -> list[RaceReport]:
        """Reports illegal under *mode* (and, for CRCW, *write_policy*)."""
        return find_violations(self.reports, mode, write_policy)


class RaceError(ConcurrentAccessError):
    """Raised by the ``check_races`` sanitizer; carries the reports.

    When an :class:`~repro.obs.Observer` with a flight recorder was
    attached to the raising machine, ``flight_tail`` holds the last-K
    recorded step events leading up to the race (oldest first).
    """

    #: flight-recorder tail at raise time (see repro.obs.FlightRecorder)
    flight_tail: tuple = ()

    def __init__(self, message: str, reports: Sequence[RaceReport]) -> None:
        super().__init__(message)
        self.reports = list(reports)


class ConflictChecker:
    """Detect same-step conflicts in PRAM memory traces.

    Stateless across steps: feed it :class:`RequestColumns` steps in any
    order (each carries no cross-step state) via :meth:`check_step`, or
    a whole trace via :meth:`analyze`.
    """

    def check_step(self, step_index: int, step: RequestColumns) -> list[RaceReport]:
        """All conflicts in one step, ordered by address."""
        readers: dict[int, list[int]] = {}
        writers: dict[int, list[tuple[int, object]]] = {}
        for pid, addr, is_read, value in zip(
            step.pids.tolist(),
            step.addrs.tolist(),
            step.is_read.tolist(),
            step.values.tolist(),
        ):
            if is_read:
                readers.setdefault(addr, []).append(pid)
            else:
                writers.setdefault(addr, []).append((pid, value))

        reports: list[RaceReport] = []
        for addr in sorted(set(readers) | set(writers)):
            rd = sorted(readers.get(addr, []))
            wr = writers.get(addr, [])
            wr_pids = tuple(sorted(p for p, _v in wr))
            if len(wr) > 1:
                values = {v for _p, v in wr}
                reports.append(
                    RaceReport(
                        step=step_index,
                        addr=addr,
                        kind=ConflictKind.WRITE_WRITE,
                        readers=tuple(rd),
                        writers=wr_pids,
                        values_agree=len(values) <= 1,
                    )
                )
            if wr and rd:
                reports.append(
                    RaceReport(
                        step=step_index,
                        addr=addr,
                        kind=ConflictKind.READ_WRITE,
                        readers=tuple(rd),
                        writers=wr_pids,
                    )
                )
            if len(rd) > 1 and not wr:
                reports.append(
                    RaceReport(
                        step=step_index,
                        addr=addr,
                        kind=ConflictKind.READ_READ,
                        readers=tuple(rd),
                    )
                )
        return reports

    def analyze(self, trace: Iterable[RequestColumns]) -> TraceAnalysis:
        """Scan a whole trace and summarize the minimal legal variant."""
        reports: list[RaceReport] = []
        n = 0
        for i, step in enumerate(trace):
            reports.extend(self.check_step(i, step))
            n += 1
        return TraceAnalysis(
            reports=reports,
            steps_analyzed=n,
            minimal_mode=infer_mode(reports),
            common_compatible=all(
                r.values_agree
                for r in reports
                if r.kind is ConflictKind.WRITE_WRITE
            ),
        )


def find_violations(
    reports: Iterable[RaceReport],
    mode: AccessMode,
    write_policy: WritePolicy | None = None,
) -> list[RaceReport]:
    """The subset of *reports* illegal under *mode* (plus, when the
    declared policy is COMMON, value-divergent write/write conflicts)."""
    out: list[RaceReport] = []
    for r in reports:
        if not mode_allows(mode, r.required_mode):
            out.append(r)
        elif (
            r.kind is ConflictKind.WRITE_WRITE
            and write_policy is WritePolicy.COMMON
            and not r.values_agree
        ):
            out.append(r)
    return out


def infer_mode(reports: Iterable[RaceReport]) -> AccessMode:
    """The weakest AccessMode under which every report is legal."""
    mode = AccessMode.EREW
    for r in reports:
        need = r.required_mode
        if _MODE_RANK[need] > _MODE_RANK[mode]:
            mode = need
        if mode is AccessMode.CRCW:
            break
    return mode


# ---------------------------------------------------------------------------
# ProgramSpec classification (permissive pre-run + declared-mode check)
# ---------------------------------------------------------------------------

@dataclass
class ProgramClassification:
    """Outcome of verifying one ProgramSpec against its pre-run trace."""

    name: str
    declared_mode: AccessMode
    declared_policy: WritePolicy
    inferred_mode: AccessMode
    analysis: TraceAnalysis
    #: reports illegal under the declared mode/policy (empty = sound)
    violations: list[RaceReport]
    #: "exact" (declared == inferred), "over-declared" (declared is
    #: strictly stronger than needed — legal, but the program would run
    #: under a cheaper emulation theorem), or "violation"
    verdict: str

    @property
    def ok(self) -> bool:
        return not self.violations


def prerun_trace(spec, *, max_steps: int = 100_000) -> MemoryTrace:
    """Run *spec*'s program on a permissive machine and return the trace.

    The machine runs with mode enforcement off (CRCW-shaped, the spec's
    own write policy, COMMON divergence resolved lowest-pid instead of
    raising), so even a program that would crash its declared machine
    yields a complete trace for analysis.  Reads feed the program's
    control flow exactly as on the declared machine whenever the program
    is in fact mode-sound, so for sound programs the pre-run trace *is*
    the real trace.
    """
    from repro.pram.machine import PRAM  # local import: machine imports us

    pram = PRAM(
        spec.n_procs,
        spec.memory_size,
        mode=spec.mode,
        write_policy=spec.write_policy,
        combine_op=spec.combine_op,
        init=spec.init,
        enforce_mode=False,
    )
    pram.load(spec.program)
    pram.run(max_steps=max_steps)
    return pram.trace


def classify_program(spec, *, max_steps: int = 100_000) -> ProgramClassification:
    """Pre-run *spec* and verify its declared mode against the trace."""
    trace = prerun_trace(spec, max_steps=max_steps)
    analysis = ConflictChecker().analyze(trace)
    violations = analysis.violations(spec.mode, spec.write_policy)
    if violations:
        verdict = "violation"
    elif analysis.minimal_mode is spec.mode:
        verdict = "exact"
    else:
        verdict = "over-declared"
    return ProgramClassification(
        name=spec.name,
        declared_mode=spec.mode,
        declared_policy=spec.write_policy,
        inferred_mode=analysis.minimal_mode,
        analysis=analysis,
        violations=violations,
        verdict=verdict,
    )


def classify_all_programs(
    builders: Mapping[str, Callable] | None = None,
) -> dict[str, ProgramClassification]:
    """Classify every library program (default: ``ALL_PROGRAM_BUILDERS``)."""
    if builders is None:
        from repro.pram.programs import ALL_PROGRAM_BUILDERS

        builders = ALL_PROGRAM_BUILDERS
    return {name: classify_program(build()) for name, build in builders.items()}


# ---------------------------------------------------------------------------
# Symbolic address scan (static, advisory)
# ---------------------------------------------------------------------------

class AddressClass(enum.Enum):
    """Static classification of one Read/Write address expression."""

    EXCLUSIVE = "exclusive"  #: affine in pid, nonzero coefficient
    SHARED = "shared"  #: pid-independent (same cell for every pid)
    DATA_DEPENDENT = "data-dependent"  #: depends on values read at runtime


@dataclass(frozen=True)
class AddressSite:
    """One ``Read(...)``/``Write(...)`` call site in the program source."""

    lineno: int
    op: str  #: "read" or "write"
    source: str
    klass: AddressClass


@dataclass
class SymbolicAddressScan:
    """Static audit of a program's address expressions.

    ``proves_exclusive`` is True only when *every* site is affine in
    ``pid`` with a nonzero pid coefficient — a sound (if conservative)
    proof that no two processors ever name the same address, i.e. the
    program is EREW-safe on every input regardless of control flow.
    """

    sites: list[AddressSite] = field(default_factory=list)
    #: the scan parsed the program source successfully
    parsed: bool = True

    @property
    def proves_exclusive(self) -> bool:
        return (
            self.parsed
            and bool(self.sites)
            and all(s.klass is AddressClass.EXCLUSIVE for s in self.sites)
        )

    @property
    def shared_sites(self) -> list[AddressSite]:
        return [s for s in self.sites if s.klass is AddressClass.SHARED]


def _affine_pid_coeff(node: ast.expr, pid_name: str) -> tuple[int, bool] | None:
    """(pid coefficient, exact) for an affine-in-pid expression, else None.

    Handles ``pid``, integer constants, closure names (coefficient 0 but
    *inexact* — their value is unknown, so a surrounding multiply cannot
    be proven nonzero), ``+``, and ``*`` by a pid-free left factor.
    """
    if isinstance(node, ast.Name):
        if node.id == pid_name:
            return 1, True
        return 0, False  # closure/global constant: pid-free, value unknown
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int) and not isinstance(node.value, bool):
            return 0, True
        return None
    if isinstance(node, ast.BinOp):
        left = _affine_pid_coeff(node.left, pid_name)
        right = _affine_pid_coeff(node.right, pid_name)
        if left is None or right is None:
            return None
        (lc, lex), (rc, rex) = left, right
        if isinstance(node.op, ast.Add):
            return lc + rc, lex and rex
        if isinstance(node.op, ast.Mult):
            # affine only when the left side is an exact pid-free factor
            if lc == 0 and lex:
                # an integer literal on the left scales the right
                const = _const_int(node.left)
                if const is not None and rc != 0:
                    return const * rc, rex
                return (0, lex and rex) if rc == 0 else None
            return None
        return None
    return None


def _const_int(node: ast.expr) -> int | None:
    """Literal integer value of *node*, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    return None


def scan_program_addresses(program: Callable | str) -> SymbolicAddressScan:
    """Statically classify every Read/Write address in *program*'s source.

    *program* is a program callable (source recovered via
    :func:`inspect.getsource` — so it must live in a real file) or the
    source text itself (for tooling over code that has no file, e.g.
    generated programs).

    Tractability boundary: expressions are classified EXCLUSIVE only
    when provably affine in the generator's first parameter (the pid)
    with a literal nonzero coefficient; pid-free expressions are SHARED;
    everything else — subscripts, names bound inside the function,
    calls — is DATA_DEPENDENT and left to the trace checker.
    """
    scan = SymbolicAddressScan()
    try:
        if isinstance(program, str):
            source = textwrap.dedent(program)
        else:
            source = textwrap.dedent(inspect.getsource(program))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError):
        scan.parsed = False
        return scan

    func = next(
        (
            n
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ),
        None,
    )
    if func is None or not func.args.args:
        scan.parsed = False
        return scan
    pid_name = func.args.args[0].arg

    # names assigned inside the function body are runtime values, not
    # closure constants: treat any address mentioning them as data-dependent
    local_names: set[str] = {a.arg for a in func.args.args[1:]}
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.For)):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.For):
                targets = [node.target]
            elif node.target is not None:
                targets = [node.target]
            for t in targets:
                for sub in ast.walk(t):
                    if isinstance(sub, ast.Name):
                        local_names.add(sub.id)

    def classify(addr: ast.expr) -> AddressClass:
        for sub in ast.walk(addr):
            if isinstance(sub, ast.Name) and sub.id in local_names:
                return AddressClass.DATA_DEPENDENT
        affine = _affine_pid_coeff(addr, pid_name)
        if affine is None:
            return AddressClass.DATA_DEPENDENT
        coeff, exact = affine
        if coeff != 0 and exact:
            return AddressClass.EXCLUSIVE
        if coeff == 0:
            return AddressClass.SHARED
        return AddressClass.DATA_DEPENDENT

    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("Read", "Write")
            and node.args
        ):
            addr = node.args[0]
            scan.sites.append(
                AddressSite(
                    lineno=node.lineno,
                    op=node.func.id.lower(),
                    source=ast.unparse(addr),
                    klass=classify(addr),
                )
            )
    scan.sites.sort(key=lambda s: s.lineno)
    return scan
