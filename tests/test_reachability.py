"""``tools/reachability.py``: the audit's classification of functions
and arms on a tiny package, and a ``KEEP`` table that names only
functions and arms that exist."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from tools import reachability

ROOT = Path(__file__).resolve().parent.parent


#: a served function with an untaken arm ending in ``raise`` and an
#: untaken ``else``
BRANCHY = """
def branchy(x):
    if x is None:
        raise ValueError("x")
    if x > 0:
        return 1
    else:
        x = -x
        return x
"""


def _package(tmp_path: Path, source: str) -> Path:
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(textwrap.dedent(source))
    return pkg


def test_a_served_a_tested_and_a_dead_function_are_told_apart(tmp_path):
    pkg = _package(
        tmp_path,
        textwrap.dedent("""
        def served():
            return 1

        def tested():
            return 2

        def dead():
            return 3
        """) + BRANCHY,
    )
    (tmp_path / "serve.py").write_text("import pkg\npkg.served()\npkg.branchy(1)\n")
    (tmp_path / "check.py").write_text("import pkg\npkg.served()\npkg.tested()\n")
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "reachability.py"), "--check",
            "--src", str(pkg), f"--served={tmp_path / 'serve.py'}",
            f"--tests={tmp_path / 'check.py'}", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=120,
    )
    report = json.loads(out.read_text())
    statuses = {key: f["status"] for key, f in report["functions"].items()}
    assert statuses == {
        "pkg:served": "served", "pkg:tested": "tests-only", "pkg:dead": "unreached",
        "pkg:branchy": "served",
    }
    assert report["counts"] == {"served": 2, "tests-only": 1, "unreached": 1}
    # the served function's arms: the untaken raise is kept by rule, the
    # untaken else is not
    assert report["arms"] == {
        "pkg:branchy | if x is None:": {"status": "unreached", "lines": 1, "keep": "a"},
        "pkg:branchy | if x > 0:": {"status": "served", "lines": 1, "keep": None},
        "pkg:branchy | else of if x > 0:": {"status": "unreached", "lines": 2, "keep": None},
    }
    # none is a dunder, a stub or on KEEP: --check fails on all three
    assert proc.returncode == 1
    assert report["rejected"] == ["pkg:branchy | else of if x > 0:", "pkg:dead", "pkg:tested"]
    assert "not kept: pkg:dead (unreached)" in proc.stderr
    assert "not kept: pkg:branchy | else of if x > 0: (unreached)" in proc.stderr


def test_a_source_edited_during_the_trace_voids_the_report(tmp_path):
    """Traced line numbers are mapped onto the sources read before the
    trace: a served entry that rewrites a file of ``--src`` must fail
    the run, name the file and leave no report behind."""
    pkg = _package(tmp_path, "\ndef served():\n    return 1\n")
    (tmp_path / "serve.py").write_text(
        "import pkg, pathlib\npkg.served()\n"
        "path = pathlib.Path(pkg.__file__)\n"
        "path.write_text('\\n\\n' + path.read_text())\n"
    )
    (tmp_path / "check.py").write_text("import pkg\n")
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "reachability.py"), "--check",
            "--src", str(pkg), f"--served={tmp_path / 'serve.py'}",
            f"--tests={tmp_path / 'check.py'}", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert f"changed during the run: {pkg / '__init__.py'}" in proc.stderr
    assert "no report written" in proc.stderr
    assert not out.exists()


def test_changed_sources_names_added_removed_and_edited_files():
    before = {"a.py": "1", "b.py": "2", "c.py": "3"}
    after = {"a.py": "1", "b.py": "9", "d.py": "4"}
    assert reachability.changed_sources(before, after) == ["b.py", "c.py", "d.py"]
    assert reachability.changed_sources(before, dict(before)) == []


def test_an_arm_keep_entry_matches_by_header_after_the_lines_shift(tmp_path, monkeypatch):
    monkeypatch.setitem(reachability.KEEP, "pkg:branchy | else of if x > 0:", "a")
    for shift in (0, 7):
        root = tmp_path / f"shift{shift}"
        root.mkdir()
        pkg = _package(root, "\n" * shift + BRANCHY)
        (root / "serve.py").write_text("import pkg\npkg.branchy(1)\n")
        served = reachability.trace({"served": [[str(root / "serve.py")]]}, pkg, root)["served"]
        report = reachability.classify(reachability.inventory(pkg), served, {})
        assert report["arms"]["pkg:branchy | else of if x > 0:"]["keep"] == "a"
        assert report["rejected"] == []


def test_entries_that_run_at_once_keep_their_own_lines(tmp_path):
    """Two served entries and a tests entry, traced concurrently: each
    interpreter dumps its own file, and every set gets every line its
    entries ran, none of another set's."""
    pkg = _package(tmp_path, "\ndef a():\n    return 1\n\ndef b():\n    return 2\n")
    for name in ("a", "b"):
        (tmp_path / f"{name}.py").write_text(f"import pkg\npkg.{name}()\n")
    hits = reachability.trace(
        {"served": [[str(tmp_path / "a.py")], [str(tmp_path / "b.py")]],
         "tests": [[str(tmp_path / "b.py")]]},
        pkg, tmp_path,
    )  # fmt: skip
    report = reachability.classify(reachability.inventory(pkg), hits["served"], hits["tests"])
    assert report["counts"] == {"served": 2}
    assert len(list((tmp_path / "lines_served").glob("*.json"))) == 2
    tested = reachability.classify(reachability.inventory(pkg), hits["tests"], {})
    assert {k: f["status"] for k, f in tested["functions"].items()} == {
        "pkg:a": "unreached", "pkg:b": "served",
    }


def test_functions_are_keyed_by_qualname_and_stubs_kept_by_rule(tmp_path):
    pkg = _package(
        tmp_path,
        """
        import functools
        from abc import ABC, abstractmethod

        class Shape(ABC):
            @abstractmethod
            def area(self): ...

            @property
            def name(self):
                return "shape"

            @name.setter
            def name(self, value):
                pass

            def __repr__(self):
                return "Shape()"

        @functools.lru_cache
        def outer():
            def inner():
                return 0
            return inner

        def todo():
            \"\"\"Not written yet.\"\"\"
            raise NotImplementedError
        """,
    )
    found = reachability.inventory(pkg)
    assert sorted(found) == [
        "pkg:Shape.__repr__", "pkg:Shape.area", "pkg:Shape.name",
        "pkg:outer", "pkg:outer.<locals>.inner", "pkg:todo",
    ]
    by_rule = {key for key, fn in found.items() if fn.by_rule}
    assert by_rule == {"pkg:Shape.__repr__", "pkg:Shape.area", "pkg:todo"}
    # a property's getter and setter are one entry of both bodies' lines
    assert found["pkg:Shape.name"].lines == 2 + 2


def test_every_keep_entry_names_a_function_or_arm_that_exists():
    """A rename or deletion of a kept function, or an edit of a kept
    arm's header, has to update ``KEEP``."""
    found = reachability.inventory(reachability.DEFAULT_SRC)
    arms = {arm.key: arm for fn in found.values() for arm in fn.arms}
    assert not set(reachability.KEEP) - set(found) - set(arms)
    assert set(reachability.KEEP.values()) <= set("abcdeg")
    # rule f, and an arm ending in raise, need no entry
    assert not [key for key in reachability.KEEP if key in found and found[key].by_rule]
    assert not [key for key in reachability.KEEP if key in arms and arms[key].raises]
