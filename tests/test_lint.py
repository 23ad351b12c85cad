"""The repo-invariant lint layer (tools/lint): rules, framework, gate.

Three tiers:

* **rule units** — each rule exercised on synthetic sources, both the
  violating and the idiomatic form (the fix patterns used in the tree
  must stay clean);
* **framework** — scoping, per-line suppressions, CLI exit codes;
* **gate** — ``run_lint(REPO_ROOT)`` returns nothing: the tree itself
  is the ultimate fixture, and this test is what CI's
  ``python -m tools.lint`` enforces.
"""

import importlib
import pkgutil
import subprocess
import sys
import textwrap

from tools.lint.framework import (
    REPO_ROOT,
    FileContext,
    Violation,
    default_rules,
    run_lint,
)
from tools.lint.rules.bare_raise import BareRaiseRule
from tools.lint.rules.emulator_contract import EmulatorContractRule
from tools.lint.rules.engine_parity import EventKindOrderRule
from tools.lint.rules.front_end_columns import FrontEndColumnsRule
from tools.lint.rules.hash_placement import HashPlacementRule
from tools.lint.rules.metric_names import MetricNamesRule
from tools.lint.rules.seeded_rng import SeededRngRule
from tools.lint.rules.unordered_iter import UnorderedIterRule
from tools.lint.rules.wall_clock import WallClockRule

HOT_PATH = "src/repro/routing/x.py"


def _check(rule, source: str, relpath: str = "src/repro/x.py") -> list[Violation]:
    """Run one file rule the way run_lint would (suppressions applied)."""
    ctx = FileContext(relpath, textwrap.dedent(source))
    assert rule.applies_to(relpath)
    return [v for v in rule.check(ctx) if not ctx.suppressed(v.line, v.rule)]


def _tree(tmp_path, files: dict[str, str]):
    for rel, src in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src))
    return tmp_path


# ---------------------------------------------------------------------------
# REPRO001 seeded RNG
# ---------------------------------------------------------------------------

class TestSeededRngRule:
    def test_stdlib_random_import_flagged(self):
        assert _check(SeededRngRule(), "import random\n")
        assert _check(SeededRngRule(), "from random import randint\n")

    def test_legacy_numpy_global_api_flagged(self):
        vs = _check(SeededRngRule(), "import numpy as np\nx = np.random.rand(3)\n")
        assert len(vs) == 1 and "np.random.rand" in vs[0].message

    def test_unseeded_default_rng_flagged(self):
        assert _check(SeededRngRule(), "import numpy as np\nr = np.random.default_rng()\n")
        src = "from numpy.random import default_rng\nr = default_rng()\n"
        assert _check(SeededRngRule(), src)

    def test_seeded_default_rng_clean(self):
        clean = """
            import numpy as np
            from numpy.random import default_rng
            a = np.random.default_rng(42)
            b = np.random.default_rng(None)  # explicit opt-in to entropy
            c = default_rng(seed)
            d = np.random.PCG64(7)
        """
        assert _check(SeededRngRule(), clean) == []

    def test_out_of_scope_path_skipped(self):
        assert not SeededRngRule().applies_to("benchmarks/bench_engine.py")


# ---------------------------------------------------------------------------
# REPRO002 wall clock
# ---------------------------------------------------------------------------

class TestWallClockRule:
    def test_time_module_calls_flagged(self):
        for call in ("time.time()", "time.perf_counter()", "time.sleep(1)"):
            assert _check(WallClockRule(), f"import time\nx = {call}\n"), call

    def test_from_import_alias_flagged(self):
        src = "from time import perf_counter as pc\nx = pc()\n"
        vs = _check(WallClockRule(), src)
        assert len(vs) == 1 and "perf_counter" in vs[0].message

    def test_datetime_now_flagged(self):
        src = "import datetime\nx = datetime.datetime.now()\n"
        assert _check(WallClockRule(), src)

    def test_unrelated_methods_clean(self):
        clean = """
            import time

            class Clock:
                def time(self):
                    return self.steps

            c = Clock()
            x = c.time()          # our virtual clock, not the wall clock
            y = time.strftime     # attribute access, not a clock call
        """
        assert _check(WallClockRule(), clean) == []

    def test_obs_clock_is_the_single_exemption(self):
        """The observability chokepoint may read the wall clock; the
        same source anywhere else in src/repro still fails."""
        rule = WallClockRule()
        src = "import time\nx = time.perf_counter()\n"
        assert not rule.applies_to("src/repro/obs/clock.py")
        for elsewhere in (
            "src/repro/obs/tracer.py",  # even the rest of obs/
            "src/repro/routing/engine.py",
            "src/repro/traffic/driver.py",
        ):
            assert _check(rule, src, elsewhere), elsewhere

    def test_real_obs_clock_module_would_violate_elsewhere(self):
        """The actual clock.py source is only clean because of the
        path exemption, proving the exemption is load-bearing."""
        source = (REPO_ROOT / "src/repro/obs/clock.py").read_text()
        ctx = FileContext("src/repro/routing/x.py", source)
        assert list(WallClockRule().check(ctx))


# ---------------------------------------------------------------------------
# REPRO003 unordered iteration
# ---------------------------------------------------------------------------

class TestUnorderedIterRule:
    def test_for_over_set_literal_flagged(self):
        src = "for x in {1, 2}:\n    pass\n"
        vs = _check(UnorderedIterRule(), src, HOT_PATH)
        assert len(vs) == 1 and "for loop" in vs[0].message

    def test_sorted_iteration_is_the_clean_form(self):
        src = """
            s = {1, 2, 3}
            for x in sorted(s):
                pass
            n = len(s)
            m = max(s)
            ok = 7 in s
            total = sum(v for v in s)
        """
        assert _check(UnorderedIterRule(), src, HOT_PATH) == []

    def test_annotation_marks_a_parameter_as_set(self):
        src = """
            def f(dead: frozenset[int]) -> None:
                for m in dead:
                    pass
        """
        assert _check(UnorderedIterRule(), src, HOT_PATH)

    def test_set_algebra_propagates(self):
        src = """
            a = {1}
            b = a | {2}
            for x in b - a:
                pass
        """
        assert _check(UnorderedIterRule(), src, HOT_PATH)

    def test_order_sensitive_calls_flagged(self):
        src = "s = set()\nitems = list(s)\n"
        assert _check(UnorderedIterRule(), src, HOT_PATH)
        src = "s = set()\nlabel = ','.join(s)\n"
        assert _check(UnorderedIterRule(), src, HOT_PATH)

    def test_comprehension_over_set_flagged(self):
        src = "s = {1, 2}\nout = [x + 1 for x in s]\n"
        vs = _check(UnorderedIterRule(), src, HOT_PATH)
        assert len(vs) == 1 and "comprehension" in vs[0].message

    def test_parts_at_direct_unpack(self):
        """The fast_engine fix pattern: parts_at's first slot is a set."""
        src = """
            def f(view, t):
                fstatic, fextra = view.parts_at(t)
                for u, w in fstatic:
                    pass
        """
        vs = _check(UnorderedIterRule(), src, HOT_PATH)
        assert len(vs) == 1

    def test_parts_at_two_step_unpack(self):
        """...and the two-step binding (parts = ...; a, b = parts)."""
        src = """
            def f(view, t):
                parts = view.parts_at(t)
                fstatic, fextra = parts
                for u, w in fstatic:
                    pass
                for u, w in fextra:    # slot 1 is a tuple, not a set
                    pass
        """
        vs = _check(UnorderedIterRule(), src, HOT_PATH)
        assert len(vs) == 1 and vs[0].line == 5

    def test_sorted_parts_at_unpack_clean(self):
        src = """
            def f(view, t):
                fstatic, fextra = view.parts_at(t)
                for u, w in sorted(fstatic):
                    pass
        """
        assert _check(UnorderedIterRule(), src, HOT_PATH) == []

    def test_scope_is_hot_paths_only(self):
        rule = UnorderedIterRule()
        assert rule.applies_to("src/repro/emulation/ranade.py")
        assert rule.applies_to("src/repro/faults/runtime.py")
        assert not rule.applies_to("src/repro/pram/machine.py")
        assert not rule.applies_to("src/repro/analysis/races.py")


# ---------------------------------------------------------------------------
# REPRO005 event-kind order (cross-file)
# ---------------------------------------------------------------------------

_PLAN = """
    EVENT_KINDS = ("kill_module", "revive_module", "link_down", "link_up")
"""


class TestEventKindOrderRule:
    def _lint(self, tmp_path, files):
        files.setdefault("src/repro/faults/plan.py", _PLAN)
        return run_lint(_tree(tmp_path, files), rules=[EventKindOrderRule()])

    def test_known_vocabulary_clean(self, tmp_path):
        src = """
            from repro.faults.plan import EVENT_KINDS

            def apply(events):
                for e in sorted(events, key=lambda e: EVENT_KINDS.index(e.kind)):
                    if e.kind == "kill_module":
                        pass
                    elif e.kind in ("link_down", "link_up"):
                        pass
        """
        assert self._lint(tmp_path, {"src/repro/faults/runtime.py": src}) == []

    def test_typo_in_kind_comparison_flagged(self, tmp_path):
        src = """
            def apply(e):
                return e.kind == "kill_moduel"
        """
        vs = self._lint(tmp_path, {"src/repro/faults/runtime.py": src})
        assert len(vs) == 1 and "kill_moduel" in vs[0].message

    def test_ad_hoc_kind_sort_flagged(self, tmp_path):
        src = """
            def apply(events):
                return sorted(events, key=lambda e: e.kind)
        """
        vs = self._lint(tmp_path, {"src/repro/faults/runtime.py": src})
        assert len(vs) == 1 and "EVENT_KINDS" in vs[0].message

    def test_duplicate_kind_in_tuple_flagged(self, tmp_path):
        plan = 'EVENT_KINDS = ("kill_module", "kill_module")\n'
        vs = self._lint(tmp_path, {"src/repro/faults/plan.py": plan})
        assert any("duplicate" in v.message for v in vs)

    def test_non_tuple_event_kinds_flagged(self, tmp_path):
        plan = 'EVENT_KINDS = ["kill_module", "revive_module"]\n'
        vs = self._lint(tmp_path, {"src/repro/faults/plan.py": plan})
        assert any("tuple literal" in v.message for v in vs)


# ---------------------------------------------------------------------------
# REPRO006 hash placement
# ---------------------------------------------------------------------------

class TestHashPlacementRule:
    def test_direct_construction_flagged(self):
        src = """
            from repro.hashing.family import PolynomialHash
            h = PolynomialHash([1, 2, 3], 101, 8)
        """
        vs = _check(HashPlacementRule(), src, "src/repro/emulation/x.py")
        assert len(vs) == 1 and "HashFamily" in vs[0].message

    def test_dotted_construction_flagged(self):
        src = """
            from repro.hashing import family
            h = family.PolynomialHash([1], 7, 2)
        """
        assert _check(HashPlacementRule(), src, "src/repro/emulation/x.py")

    def test_family_sample_is_the_clean_form(self):
        src = """
            from repro.hashing.family import HashFamily
            h = HashFamily(1024, 8, 4).sample(seed)
        """
        assert _check(HashPlacementRule(), src, "src/repro/emulation/x.py") == []

    def test_placement_layers_are_exempt(self):
        src = "h = PolynomialHash([1], 7, 2)\n"
        for rel in (
            "src/repro/hashing/family.py",
            "src/repro/sharding/placement.py",
        ):
            assert _check(HashPlacementRule(), src, rel) == []

    def test_pragma_escape_hatch(self):
        src = (
            "h = PolynomialHash([1], 7, 2)"
            "  # lint: ok REPRO006 adversarial-coefficients test\n"
        )
        assert _check(HashPlacementRule(), src, "src/repro/emulation/x.py") == []

    def test_non_constructor_references_clean(self):
        src = """
            from repro.hashing.family import PolynomialHash

            def f(h: PolynomialHash) -> int:
                return h(3)
        """
        assert _check(HashPlacementRule(), src, "src/repro/emulation/x.py") == []


# ---------------------------------------------------------------------------
# REPRO007 metric names
# ---------------------------------------------------------------------------

class TestMetricNamesRule:
    def _lint(self, tmp_path, files):
        return run_lint(_tree(tmp_path, files), rules=[MetricNamesRule()])

    def test_snake_case_names_clean(self, tmp_path):
        src = """
            def serve(obs, reg):
                obs.count("epochs_total")
                obs.gauge("backlog_requests", 3)
                reg.histogram("step_total_steps", 12, network="mesh")
        """
        assert self._lint(tmp_path, {"src/repro/traffic/x.py": src}) == []

    def test_bad_casing_flagged(self, tmp_path):
        src = """
            def serve(obs):
                obs.count("epochsTotal")
                obs.gauge("backlog-requests", 3)
                obs.observe("step.time", 1.0)
        """
        vs = self._lint(tmp_path, {"src/repro/traffic/x.py": src})
        assert len(vs) == 3
        assert all("snake_case" in v.message for v in vs)

    def test_kind_shadowing_across_files_flagged(self, tmp_path):
        a = 'def f(obs):\n    obs.count("backlog", 1)\n'
        b = 'def g(obs):\n    obs.gauge("backlog", 2)\n'
        vs = self._lint(
            tmp_path,
            {"src/repro/a.py": a, "src/repro/b.py": b},
        )
        assert len(vs) == 1
        v = vs[0]
        assert "one name, one kind" in v.message and "src/repro/a.py" in v.message

    def test_same_kind_reuse_is_fine(self, tmp_path):
        a = 'def f(obs):\n    obs.count("steps_total", 1)\n'
        b = 'def g(reg):\n    reg.counter("steps_total", 2)\n'
        assert self._lint(
            tmp_path, {"src/repro/a.py": a, "src/repro/b.py": b}
        ) == []

    def test_dynamic_names_out_of_scope(self, tmp_path):
        src = """
            def serve(obs, name):
                obs.count(name)
                obs.gauge(f"x_{name}", 1)
        """
        assert self._lint(tmp_path, {"src/repro/x.py": src}) == []


# ---------------------------------------------------------------------------
# REPRO008 emulator contract
# ---------------------------------------------------------------------------

class TestEmulatorContractRule:
    DRIVER = "src/repro/traffic/driver.py"

    def test_probes_flagged(self):
        src = """
            def procs(emulator):
                if hasattr(emulator, "n_processors"):
                    return emulator.n_processors
                mesh = getattr(emulator, "mesh", None)
                name = "memory"
                return getattr(emulator, name, None)
        """
        vs = _check(EmulatorContractRule(), src, self.DRIVER)
        assert [(v.line, "hasattr" in v.message) for v in vs] == [
            (3, True), (5, False), (7, False),
        ]
        assert "'mesh'" in vs[1].message

    def test_attribute_reads_are_the_clean_form(self):
        src = """
            def procs(emulator):
                procs = emulator.n_processors
                return None if procs is None else int(procs)
        """
        assert _check(EmulatorContractRule(), src, self.DRIVER) == []

    def test_computed_field_selection_is_a_probe_too(self):
        """The computed-name exemption existed for ``placement.py``'s
        lane append; the loop is gone (the split is row-takes on
        columns) and so is the exemption."""
        src = """
            for lane in ("reads", "writes"):
                getattr(sub, lane).append(req)
        """
        rel = "src/repro/sharding/placement.py"
        (v,) = _check(EmulatorContractRule(), src, rel)
        assert v.line == 3 and "getattr() probe" in v.message

    def test_scope_is_the_front_end(self):
        rule = EmulatorContractRule()
        for rel in (
            self.DRIVER,
            "src/repro/sharding/service.py",
            "src/repro/sharding/qos.py",
            "src/repro/emulation/replay.py",
            "src/repro/apps/harness.py",
        ):
            assert rule.applies_to(rel)
            assert _check(rule, "x = hasattr(emu, 'mode')\n", rel)
        for rel in (
            "src/repro/traffic/telemetry.py",
            "src/repro/emulation/base.py",
            "src/repro/obs/registry.py",
        ):
            assert not rule.applies_to(rel)

    def test_the_shards_fan_out_probe_is_flagged_like_any_other(self):
        """``replay.py`` used to be allowed this one; the fleet forwards
        ``write_policy`` / ``combine_op`` itself now."""
        rule, rel = EmulatorContractRule(), "src/repro/emulation/replay.py"
        (v,) = _check(rule, 'targets = getattr(emulator, "shards", None) or [emulator]\n', rel)
        assert "'shards'" in v.message


# ---------------------------------------------------------------------------
# REPRO009 front-end columns
# ---------------------------------------------------------------------------

class TestFrontEndColumnsRule:
    DRIVER = "src/repro/traffic/driver.py"

    def test_request_objects_built_on_the_served_path_flagged(self):
        src = """
            from repro.traffic import generators
            def build_views(batch):
                views = []
                for req, _stamp in batch:
                    views.append(TrafficRequest(0, req.pid, req.addr, "read", 0))
                return views, generators.TrafficRequest(1, 0, 0, "write", 5)
        """
        vs = _check(FrontEndColumnsRule(), src, self.DRIVER)
        assert sorted((v.line, v.message.split("(")[0]) for v in vs) == [
            (6, "TrafficRequest"), (7, "TrafficRequest"),
        ]
        assert "RequestBatch" in vs[0].message

    def test_columns_row_views_and_annotations_are_the_clean_forms(self):
        src = """
            def serve(emu, batch, table) -> "list[TrafficRequest]":
                views: list[TrafficRequest] = list(RequestBatch(table[:7], ("default",)))
                step = RequestColumns(batch[1], batch[2], batch[3], batch[5])
                isinstance(views[0], TrafficRequest)
                return views, step.reads_first()
        """
        assert _check(FrontEndColumnsRule(), src, self.DRIVER) == []

    def test_packets_built_in_the_fast_engine_flagged(self):
        src = """
            from repro.routing import packet
            def run(self, paths, packets: "list[Packet] | None" = None):
                placeholder = make_packets(paths[:, 0], paths[:, -1])
                return packet.Packet(0, 0, 1), TrafficRequest(0, 0, 0, "read", 0)
        """
        for rel in (
            "src/repro/routing/fast_engine.py",
            "src/repro/routing/fast_phases.py",
            "src/repro/routing/fast_scalar.py",
        ):
            vs = _check(FrontEndColumnsRule(), src, rel)
            assert sorted((v.line, v.message.split("(")[0]) for v in vs) == [
                (4, "make_packets"), (5, "Packet"),
            ]
        # ... and only there: the boundary modules build them by design
        for rel in ("src/repro/routing/router.py", "src/repro/routing/packet.py"):
            assert not FrontEndColumnsRule().applies_to(rel)
        assert _check(FrontEndColumnsRule(), "p = Packet(0, 0, 1)\n", self.DRIVER) == []

    def test_packets_built_on_the_scalar_lane_flagged(self):
        """The scalar lane steps lists of ints: a reply laid out as
        packet objects there is a finding, with the message naming
        where a ``Packet`` belongs."""
        src = """
            def reply_run(replies, forest):
                return [Packet(i, h, 0) for i, h in enumerate(forest)]
        """
        (v,) = _check(FrontEndColumnsRule(), src, "src/repro/routing/fast_scalar.py")
        assert (v.rule, v.line) == ("REPRO009", 3)
        assert "integer columns" in v.message and "Router._materialise" in v.message

    def test_scope_is_the_served_path(self):
        rule = FrontEndColumnsRule()
        for rel in (
            self.DRIVER,
            "src/repro/sharding/placement.py",
            "src/repro/sharding/service.py",
            "src/repro/emulation/base.py",
            "src/repro/emulation/leveled.py",
            "src/repro/emulation/mesh.py",
        ):
            assert _check(rule, "view = TrafficRequest(0, 0, 0, 'read', 0)\n", rel)
        for rel in (
            "src/repro/traffic/generators.py",  # where the row views are
            "src/repro/emulation/ranade.py",  # a baseline
            "src/repro/pram/machine.py",
        ):
            assert not rule.applies_to(rel)


# ---------------------------------------------------------------------------
# REPRO010 bare raise
# ---------------------------------------------------------------------------

class TestBareRaiseRule:
    def test_bare_raises_flagged_called_or_not_bare_or_dotted(self):
        src = """
            import builtins
            def f(x):
                if x:
                    raise RuntimeError("no")
                if x > 1:
                    raise AssertionError
                raise builtins.RuntimeError(f"x={x}") from None
        """
        vs = _check(BareRaiseRule(), src)
        assert sorted(v.line for v in vs) == [5, 7, 8]
        assert all("typed subclass" in v.message for v in vs)

    def test_every_assert_statement_flagged(self):
        """``python -O`` strips an ``assert``: a check that must run is
        an ``if`` that raises.  No allow-list, in any module."""
        src = """
            def table_row(stats, x):
                assert stats.completed
                assert x > 0, "positive"
                if not stats.completed:
                    raise RoutingTimeout(stats)
        """
        for rel in ("src/repro/experiments/exp_mesh.py", "src/repro/pram/programs.py"):
            vs = _check(BareRaiseRule(), src, rel)
            assert [v.line for v in vs] == [3, 4]
            assert all("python -O" in v.message for v in vs)

    def test_typed_subclasses_and_reraise_are_the_clean_forms(self):
        src = """
            class StepLimitError(RuntimeError):
                pass
            def f(x):
                try:
                    g()
                except RuntimeError:
                    raise
                if x:
                    raise ValueError(x)
                raise StepLimitError(x)
        """
        assert _check(BareRaiseRule(), src) == []

    def test_scope_is_the_library(self):
        rule = BareRaiseRule()
        for rel in ("src/repro/pram/machine.py", "src/repro/routing/batcher.py"):
            assert rule.applies_to(rel)
        for rel in ("tests/test_x.py", "tools/residue_census.py", "benchmarks/gate.py"):
            assert not rule.applies_to(rel)


# ---------------------------------------------------------------------------
# framework: suppressions, scoping, CLI
# ---------------------------------------------------------------------------

class TestFramework:
    def test_suppression_pragma_silences_one_line_one_rule(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "src/repro/util/shim.py": (
                    "import random  # lint: ok REPRO001 vendored shim\n"
                    "import time\n"
                    "x = time.time()\n"
                )
            },
        )
        vs = run_lint(root, rules=[SeededRngRule(), WallClockRule()])
        # the pragma kills the RNG finding but not the wall-clock one
        assert [v.rule for v in vs] == ["REPRO002"]

    def test_violation_format(self):
        v = Violation("REPRO001", "src/repro/x.py", 3, 4, "nope")
        assert v.format() == "src/repro/x.py:3:4: REPRO001 nope"

    def test_default_rules_catalog(self):
        ids = [r.id for r in default_rules()]
        # REPRO004 (stat-parity) is retired and its id not reused
        assert ids == [
            "REPRO001",
            "REPRO002",
            "REPRO003",
            "REPRO005",
            "REPRO006",
            "REPRO007",
            "REPRO008",
            "REPRO009",
            "REPRO010",
        ]

    def test_cli_clean_tree_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "lint clean" in proc.stdout

    def test_cli_flags_violations_with_exit_one(self, tmp_path):
        root = _tree(tmp_path, {"src/repro/bad.py": "import random\n"})
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "--root", str(root)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "REPRO001" in proc.stdout

    def test_cli_unknown_rule_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "--rule", "REPRO999"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_cli_list_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for rid in (
            "REPRO001",
            "REPRO002",
            "REPRO003",
            "REPRO005",
            "REPRO006",
            "REPRO007",
            "REPRO008",
            "REPRO009",
            "REPRO010",
        ):
            assert rid in proc.stdout
        assert "REPRO004" not in proc.stdout


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------

class TestTreeClean:
    def test_repo_tree_is_lint_clean(self):
        vs = run_lint(REPO_ROOT)
        assert vs == [], "\n".join(v.format() for v in vs)

    def test_every_dunder_all_export_resolves(self):
        """F822 proxy: every __all__ name in every repro module exists
        (also guards the analysis package's re-export surface)."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            mod = importlib.import_module(info.name)
            for name in getattr(mod, "__all__", ()):
                assert hasattr(mod, name), (
                    f"{info.name}.__all__ lists {name!r} but the module "
                    "does not define it"
                )
