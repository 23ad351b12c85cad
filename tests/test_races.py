"""Race detection: ConflictChecker, mode inference, program classification.

The emulation theorems are parameterized by the PRAM variant, so a
program that silently violates its declared AccessMode invalidates the
bound it is run under.  Four layers pinned here:

* **checker** — every conflict kind (read/read, read/write,
  write/write agree + diverge) detected on hand-built traces, with the
  step, address, and pid sets named exactly;
* **inference** — reports reduce to the minimal legalizing variant
  (EREW < CREW < CRCW) and COMMON-compatibility;
* **sanitizer** — ``PRAM.run(check_races=...)`` raises a structured
  :class:`RaceError` on violations (including the portability form
  "run on CRCW, verify against EREW") and works with tracing off;
* **classification** — every library program's declared mode is
  *exact*: the permissive pre-run infers precisely the declared
  variant, neither over- nor under-declared.
"""

import pytest

from repro.analysis.races import (
    AddressClass,
    ConflictChecker,
    ConflictKind,
    RaceError,
    RaceReport,
    classify_all_programs,
    classify_program,
    find_violations,
    infer_mode,
    mode_allows,
    prerun_trace,
    scan_program_addresses,
)
from repro.pram.machine import PRAM, Read, Write, run_program
from repro.pram.programs import ALL_PROGRAM_BUILDERS, ProgramSpec, broadcast
from repro.pram.trace import MemoryTrace, RequestColumns
from repro.pram.variants import AccessMode, WritePolicy


# ---------------------------------------------------------------------------
# fixture programs (module level so inspect.getsource works for the scan)
# ---------------------------------------------------------------------------

def _racy_erew(pid: int, nprocs: int):
    """Deliberately EREW-illegal: all pids read cell 0, then all write 1."""
    v = yield Read(0)
    yield Write(1, pid + (0 * (v or 0)))


def _crew_only(pid: int, nprocs: int):
    """Concurrent read of cell 0, exclusive writes: CREW-exact."""
    v = yield Read(0)
    yield Write(1 + pid, v)


def _exclusive_prog(pid: int, nprocs: int):
    v = yield Read(pid)
    yield Write(pid + 8, v)


def _shared_read_prog(pid: int, nprocs: int):
    v = yield Read(0)
    yield Write(2 * pid + 1, v)


def _data_dependent_prog(pid: int, nprocs: int):
    idx = yield Read(pid)
    yield Write(idx, 1)


# ---------------------------------------------------------------------------
# checker on hand-built traces
# ---------------------------------------------------------------------------

class TestConflictChecker:
    def test_clean_step_has_no_reports(self):
        step = RequestColumns.of(
            reads=[(0, 0), (1, 1)],
            writes=[(2, 2, "x")],
        )
        assert ConflictChecker().check_step(0, step) == []

    def test_read_read(self):
        step = RequestColumns.of(reads=[(2, 5), (0, 5)])
        (r,) = ConflictChecker().check_step(3, step)
        assert r.kind is ConflictKind.READ_READ
        assert (r.step, r.addr) == (3, 5)
        assert r.readers == (0, 2)  # sorted
        assert r.writers == ()
        assert r.pids == (0, 2)
        assert r.required_mode is AccessMode.CREW
        assert r.values_agree is None

    def test_read_write(self):
        step = RequestColumns.of(
            reads=[(1, 9)], writes=[(4, 9, 7)]
        )
        (r,) = ConflictChecker().check_step(0, step)
        assert r.kind is ConflictKind.READ_WRITE
        assert r.readers == (1,)
        assert r.writers == (4,)
        assert r.pids == (1, 4)
        assert r.required_mode is AccessMode.CRCW

    def test_write_write_agreeing(self):
        step = RequestColumns.of(
            writes=[(3, 2, "v"), (1, 2, "v")]
        )
        (r,) = ConflictChecker().check_step(0, step)
        assert r.kind is ConflictKind.WRITE_WRITE
        assert r.writers == (1, 3)
        assert r.values_agree is True
        assert "values agree" in r.describe()

    def test_write_write_diverging(self):
        step = RequestColumns.of(
            writes=[(0, 2, "a"), (1, 2, "b")]
        )
        (r,) = ConflictChecker().check_step(0, step)
        assert r.values_agree is False
        assert "values diverge" in r.describe()

    def test_same_addr_can_carry_ww_and_rw(self):
        """Readers plus multiple writers on one cell report both kinds."""
        step = RequestColumns.of(
            reads=[(5, 1)],
            writes=[(0, 1, 1), (2, 1, 2)],
        )
        reports = ConflictChecker().check_step(7, step)
        assert {r.kind for r in reports} == {
            ConflictKind.WRITE_WRITE,
            ConflictKind.READ_WRITE,
        }
        assert all(r.step == 7 and r.addr == 1 for r in reports)

    def test_reports_ordered_by_address(self):
        step = RequestColumns.of(
            reads=[(0, 9), (1, 9)],
            writes=[(0, 4, 1), (1, 4, 1)],
        )
        reports = ConflictChecker().check_step(0, step)
        assert [r.addr for r in reports] == [4, 9]

    def test_describe_names_step_addr_pids(self):
        step = RequestColumns.of(reads=[(3, 11), (6, 11)])
        (r,) = ConflictChecker().check_step(2, step)
        text = r.describe()
        assert "step 2" in text and "address 11" in text
        assert "[3, 6]" in text

    def test_analyze_whole_trace(self):
        trace = MemoryTrace(num_processors=4, address_space=16)
        trace.steps.append(RequestColumns.of(reads=[(0, 0)]))  # clean
        trace.steps.append(
            RequestColumns.of(reads=[(0, 3), (1, 3)])
        )
        trace.steps.append(
            RequestColumns.of(writes=[(0, 5, 1), (1, 5, 1)])
        )
        analysis = ConflictChecker().analyze(trace)
        assert analysis.steps_analyzed == 3
        assert [r.step for r in analysis.reports] == [1, 2]
        assert analysis.minimal_mode is AccessMode.CRCW
        assert analysis.common_compatible  # the lone WW agrees
        kinds = [r.kind for r in analysis.reports]
        assert kinds.count(ConflictKind.READ_READ) == 1

    def test_verify_against_declared_mode(self):
        trace = MemoryTrace(num_processors=2, address_space=8)
        trace.steps.append(
            RequestColumns.of(reads=[(0, 1), (1, 1)])
        )
        checker = ConflictChecker()
        analysis = checker.analyze(trace)
        assert analysis.violations(AccessMode.CREW) == []
        bad = analysis.violations(AccessMode.EREW)
        assert len(bad) == 1 and bad[0].kind is ConflictKind.READ_READ


class TestModeInference:
    def test_mode_allows_is_rank_order(self):
        assert mode_allows(AccessMode.CRCW, AccessMode.EREW)
        assert mode_allows(AccessMode.CREW, AccessMode.CREW)
        assert not mode_allows(AccessMode.EREW, AccessMode.CREW)
        assert not mode_allows(AccessMode.CREW, AccessMode.CRCW)

    def test_infer_mode_empty_is_erew(self):
        assert infer_mode([]) is AccessMode.EREW

    def test_infer_mode_takes_maximum(self):
        rr = RaceReport(0, 0, ConflictKind.READ_READ, readers=(0, 1))
        ww = RaceReport(0, 0, ConflictKind.WRITE_WRITE, writers=(0, 1))
        assert infer_mode([rr]) is AccessMode.CREW
        assert infer_mode([rr, ww]) is AccessMode.CRCW
        assert infer_mode([ww, rr]) is AccessMode.CRCW

    def test_common_policy_flags_divergent_ww_only(self):
        agree = RaceReport(
            0, 0, ConflictKind.WRITE_WRITE, writers=(0, 1), values_agree=True
        )
        diverge = RaceReport(
            0, 1, ConflictKind.WRITE_WRITE, writers=(0, 1), values_agree=False
        )
        under_common = find_violations(
            [agree, diverge], AccessMode.CRCW, WritePolicy.COMMON
        )
        assert under_common == [diverge]
        # any other policy legalizes both
        assert (
            find_violations([agree, diverge], AccessMode.CRCW, WritePolicy.PRIORITY)
            == []
        )


# ---------------------------------------------------------------------------
# sanitizer: PRAM.run(check_races=...)
# ---------------------------------------------------------------------------

class TestRunSanitizer:
    def test_racy_erew_fixture_is_flagged(self):
        """The acceptance fixture: a deliberately racy EREW program must
        produce a RaceReport naming step, address, and pids."""
        with pytest.raises(RaceError) as exc:
            run_program(
                _racy_erew,
                4,
                8,
                mode=AccessMode.EREW,
                enforce_mode=False,
                check_races=True,
            )
        reports = exc.value.reports
        assert reports, "sanitizer must attach structured reports"
        first = reports[0]
        assert first.step == 0
        assert first.addr == 0
        assert first.kind is ConflictKind.READ_READ
        assert first.pids == (0, 1, 2, 3)
        # the concurrent write to cell 1 is flagged too
        kinds = {(r.step, r.addr, r.kind) for r in reports}
        assert (1, 1, ConflictKind.WRITE_WRITE) in kinds
        assert "step 0" in str(exc.value)

    def test_clean_run_attaches_empty_reports(self):
        pram = run_program(
            _exclusive_prog, 4, 16, mode=AccessMode.EREW, check_races=True
        )
        assert pram.race_reports == []
        assert pram.inferred_mode is AccessMode.EREW

    def test_portability_check_against_weaker_mode(self):
        """Run legally on CREW, ask: is this EREW-clean?  (No.)"""
        with pytest.raises(RaceError) as exc:
            run_program(
                _crew_only,
                4,
                8,
                mode=AccessMode.CREW,
                check_races=AccessMode.EREW,
            )
        assert all(r.kind is ConflictKind.READ_READ for r in exc.value.reports)

    def test_crew_program_passes_its_own_mode(self):
        pram = run_program(
            _crew_only, 4, 8, mode=AccessMode.CREW, check_races=True
        )
        assert pram.inferred_mode is AccessMode.CREW

    def test_sanitizer_works_without_trace_recording(self):
        pram = PRAM(
            4, 8, mode=AccessMode.CREW, record_trace=False, enforce_mode=False
        )
        pram.load(_racy_erew)
        with pytest.raises(RaceError):
            pram.run(check_races=AccessMode.EREW)
        assert pram.trace.steps == []  # tracing really was off
        assert pram.race_reports  # ... but the sanitizer still saw steps

    def test_check_races_off_by_default(self):
        pram = run_program(_racy_erew, 4, 8, enforce_mode=False)
        assert pram.race_reports is None
        assert pram.inferred_mode is None


# ---------------------------------------------------------------------------
# program classification
# ---------------------------------------------------------------------------

class TestClassification:
    def test_every_library_program_is_exact(self):
        """The gate: each ProgramSpec's declared mode is both sufficient
        (no violations) and minimal (the trace actually needs it)."""
        results = classify_all_programs()
        assert set(results) == set(ALL_PROGRAM_BUILDERS)
        for name, c in results.items():
            assert c.ok, f"{name}: {[r.describe() for r in c.violations]}"
            assert c.verdict == "exact", (
                f"{name}: declared {c.declared_mode.name}, "
                f"inferred {c.inferred_mode.name}"
            )

    def test_violation_verdict(self):
        spec = ProgramSpec(
            name="racy",
            n_procs=4,
            memory_size=8,
            mode=AccessMode.EREW,
            program=_racy_erew,
        )
        c = classify_program(spec)
        assert c.verdict == "violation"
        assert not c.ok
        assert c.inferred_mode is AccessMode.CRCW
        assert any(r.kind is ConflictKind.WRITE_WRITE for r in c.violations)

    def test_over_declared_verdict(self):
        spec = ProgramSpec(
            name="cautious",
            n_procs=4,
            memory_size=16,
            mode=AccessMode.CRCW,
            program=_exclusive_prog,
            write_policy=WritePolicy.ARBITRARY,
        )
        c = classify_program(spec)
        assert c.verdict == "over-declared"
        assert c.ok  # legal, just running under a needlessly strong theorem
        assert c.inferred_mode is AccessMode.EREW

    def test_prerun_trace_completes_for_racy_program(self):
        """The permissive machine must not raise mid-run; the trace is
        complete so every conflict is reportable."""
        spec = ProgramSpec(
            name="racy",
            n_procs=4,
            memory_size=8,
            mode=AccessMode.EREW,
            program=_racy_erew,
        )
        trace = prerun_trace(spec)
        assert len(trace.steps) == 2  # both program steps executed

    def test_prerun_matches_real_trace_for_sound_program(self):
        spec = broadcast(8)
        real = spec.run().trace
        pre = prerun_trace(spec)
        assert len(pre.steps) == len(real.steps)
        for a, b in zip(pre.steps, real.steps):
            assert [c.tolist() for c in (a.pids, a.addrs, a.is_read, a.values)] == [
                c.tolist() for c in (b.pids, b.addrs, b.is_read, b.values)
            ]


# ---------------------------------------------------------------------------
# symbolic address scan
# ---------------------------------------------------------------------------

class TestSymbolicScan:
    def test_affine_pid_addresses_prove_exclusive(self):
        scan = scan_program_addresses(_exclusive_prog)
        assert scan.parsed
        assert len(scan.sites) == 2
        assert scan.proves_exclusive
        assert [s.op for s in scan.sites] == ["read", "write"]

    def test_shared_site_blocks_the_proof(self):
        scan = scan_program_addresses(_shared_read_prog)
        assert scan.parsed
        assert not scan.proves_exclusive
        shared = scan.shared_sites
        assert len(shared) == 1 and shared[0].source == "0"
        # the affine write `2 * pid + 1` is still recognized
        write = next(s for s in scan.sites if s.op == "write")
        assert write.klass is AddressClass.EXCLUSIVE

    def test_runtime_address_is_data_dependent(self):
        scan = scan_program_addresses(_data_dependent_prog)
        write = next(s for s in scan.sites if s.op == "write")
        assert write.klass is AddressClass.DATA_DEPENDENT
        assert not scan.proves_exclusive

    def test_source_text_form(self):
        """Source text in place of a callable (code with no file)."""
        scan = scan_program_addresses(
            "def p(pid, n):\n"
            "    v = yield Read(3 * pid + 1)\n"
            "    yield Write(3 * pid + 2, v)\n"
        )
        assert scan.parsed and scan.proves_exclusive

    def test_unparseable_program_degrades_gracefully(self):
        scan = scan_program_addresses(lambda pid, n: iter(()))
        assert not scan.parsed
        assert not scan.proves_exclusive
        # no source at all (a builtin), and source that does not parse
        assert not scan_program_addresses(len).parsed
        assert not scan_program_addresses("def p(pid, n) yield").parsed

    def test_outside_the_affine_fragment_is_data_dependent(self):
        # a call folds to nothing, and neither do pid - c or pid * c
        scan = scan_program_addresses(
            "def p(pid, n):\n"
            "    v = yield Read(pid + len(XS))\n"
            "    w = yield Read(pid - 1)\n"
            "    yield Write(pid * 2, v)\n"
        )
        assert scan.parsed
        assert [s.klass for s in scan.sites] == [AddressClass.DATA_DEPENDENT] * 3

    def test_scan_agrees_with_trace_on_library_erew_programs(self):
        """Advisory static proof, where it fires, must agree with the
        trace-level ground truth."""
        for name, build in ALL_PROGRAM_BUILDERS.items():
            spec = build()
            scan = scan_program_addresses(spec.program)
            if scan.proves_exclusive:
                c = classify_program(spec)
                assert c.inferred_mode is AccessMode.EREW, name


# ---------------------------------------------------------------------------
# Application programs (repro.apps)
# ---------------------------------------------------------------------------

class TestApplicationPrograms:
    """The apps layer rides the same gates as the core library."""

    def test_registered_apps_classify_exact(self):
        from repro.apps.programs import APP_PROGRAM_BUILDERS

        for name, build in APP_PROGRAM_BUILDERS.items():
            c = classify_program(build())
            assert c.verdict == "exact", (
                f"{name}: declared {c.declared_mode.name}, "
                f"inferred {c.inferred_mode.name}"
            )

    def test_apps_merged_into_library_registry(self):
        from repro.apps.programs import APP_PROGRAM_BUILDERS

        assert set(APP_PROGRAM_BUILDERS) <= set(ALL_PROGRAM_BUILDERS)

    def test_broken_erew_components_caught_by_sanitizer(self):
        """A CRCW hooking algorithm misdeclared as EREW is exactly the
        failure mode the sanitizer exists for: the permissive machine
        completes the run, then the checker names the concurrent steps."""
        from repro.apps import broken_erew_components, gnp_graph

        spec = broken_erew_components(gnp_graph(12, 0.25, seed=7))
        assert spec.mode is AccessMode.EREW
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
        with pytest.raises(RaceError) as exc:
            pram.run(check_races=True)
        assert exc.value.reports
        assert any(
            r.kind in (ConflictKind.READ_READ, ConflictKind.WRITE_WRITE)
            for r in exc.value.reports
        )

    def test_broken_variant_stays_out_of_registry(self):
        assert "broken-erew-components" not in ALL_PROGRAM_BUILDERS

    def test_broken_variant_classifies_as_violation(self):
        from repro.apps import broken_erew_components, gnp_graph

        c = classify_program(broken_erew_components(gnp_graph(12, 0.25, seed=7)))
        assert c.verdict == "violation"
        assert not c.ok
