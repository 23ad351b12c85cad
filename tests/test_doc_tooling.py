"""Doc-snippet tooling (tools/run_doc_snippets): extraction + coverage audit.

The docs promise runnable ```python fences, and CI keeps the promise by
executing them.  The weak point used to be *discovery*: a new docs page
outside the executed glob would silently skip execution.  These tests
pin the audit that closes the gap — a no-args run must fail when any
README/docs markdown file containing fences is absent from the
executed set.  The last test holds ``docs/faults.md``'s who-retries-what
table to the error classes the library defines.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

import tools.run_doc_snippets as rds


def _write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))
    return path


FENCED = """
    # Page

    ```python
    x = 1 + 1
    assert x == 2
    ```
"""

FENCELESS = """
    # Prose only

    ```text
    not python
    ```
"""


@pytest.fixture
def doc_tree(tmp_path, monkeypatch):
    monkeypatch.setattr(rds, "REPO_ROOT", tmp_path)
    # main() chdirs into REPO_ROOT; make pytest restore the cwd after
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "README.md", FENCED)
    _write(tmp_path, "docs/a.md", FENCED)
    _write(tmp_path, "docs/b.md", FENCELESS)
    return tmp_path


class TestExtractBlocks:
    def test_finds_python_fences_with_line_numbers(self):
        blocks = rds.extract_blocks(textwrap.dedent(FENCED))
        assert len(blocks) == 1
        start, source = blocks[0]
        assert "assert x == 2" in source

    def test_ignores_other_fences(self):
        assert rds.extract_blocks(textwrap.dedent(FENCELESS)) == []

    def test_unclosed_fence_raises(self):
        with pytest.raises(ValueError, match="unclosed"):
            rds.extract_blocks("```python\nx = 1\n")


class TestDiscovery:
    def test_discovery_is_recursive(self, doc_tree):
        nested = _write(doc_tree, "docs/guides/deep.md", FENCED)
        assert nested in rds.discover_documented()

    def test_coverage_flags_a_missed_fenced_page(self, doc_tree, capsys):
        nested = _write(doc_tree, "docs/guides/deep.md", FENCED)
        executed = set(rds.discover_documented()) - {nested}
        assert rds.coverage_failures(executed) == 1
        assert "docs/guides/deep.md" in capsys.readouterr().out

    def test_fenceless_pages_need_no_execution(self, doc_tree):
        executed = {doc_tree / "README.md", doc_tree / "docs/a.md"}
        assert rds.coverage_failures(executed) == 0


class TestMain:
    def test_full_run_is_green_and_audited(self, doc_tree):
        assert rds.main([]) == 0

    def test_failing_snippet_fails_the_run(self, doc_tree):
        _write(doc_tree, "docs/broken.md", """
            ```python
            raise RuntimeError("doc rot")
            ```
        """)
        assert rds.main([]) == 1

    def test_explicit_files_skip_the_audit(self, doc_tree):
        # a partial run names its files; pages left out (even fenced
        # ones) are not an error there
        _write(doc_tree, "docs/guides/deep.md", FENCED)
        assert rds.main([str(doc_tree / "docs" / "a.md")]) == 0


def test_every_error_class_has_a_row_in_the_faults_table():
    """Each ``class ...Error`` in ``src/repro`` is named in the first
    column of ``docs/faults.md``'s who-retries-what table."""
    root = Path(__file__).resolve().parent.parent
    defined = {
        node.name
        for path in (root / "src" / "repro").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name.endswith("Error")
    }
    first_cells = [
        line.split("|")[1]
        for line in (root / "docs" / "faults.md").read_text().splitlines()
        if line.startswith("| ")
    ]
    rowed = {name for cell in first_cells for name in re.findall(r"\.(\w+Error)`", cell)}
    assert defined, "no error classes found"
    assert not defined - rowed
