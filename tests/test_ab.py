"""``tools/ab.py``, the A/B pairs command: its verdict rule on synthetic
pairs, and a smoke run on a throwaway git repository whose benchmark
command is a stub."""

import contextlib
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tools import ab

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def shifted(samples, by):
    return [x + by for x in samples]


def test_a_claimed_gain_needs_nine_wins_in_ten_and_a_gap_past_the_base_iqr():
    row = ab.verdict(STEADY, shifted(STEADY, 10), "higher", 0.25, claimed=True)
    assert (row["wins"], row["ties"], row["verdict"]) == (10, 0, "gain")
    # eight wins of ten: no gain, though the medians are far apart
    eight = shifted(STEADY, 10)
    eight[0], eight[1] = 90.0, 95.0
    row = ab.verdict(STEADY, eight, "higher", 0.25, claimed=True)
    assert row["wins"] == 8 and row["verdict"] == "no gain (within bound)"
    # every pair won, by less than the base's interquartile range
    row = ab.verdict(STEADY, shifted(STEADY, 0.05), "higher", 0.25, claimed=True)
    assert row["wins"] == 10 and row["verdict"] == "no gain (within bound)"
    # nine pairs are too few to claim anything
    row = ab.verdict(STEADY[:9], shifted(STEADY[:9], 10), "higher", 0.25, claimed=True)
    assert row["verdict"] == "no gain (within bound)"


def test_a_lower_is_better_metric_wins_by_going_down():
    row = ab.verdict(STEADY, shifted(STEADY, -10), "lower", 0.25, claimed=True)
    assert (row["wins"], row["verdict"]) == (10, "gain")
    row = ab.verdict(STEADY, shifted(STEADY, 10), "lower", 0.25, claimed=True)
    assert (row["wins"], row["verdict"]) == (0, "no gain (within bound)")


def test_an_unclaimed_metric_is_within_its_bound_worse_or_unresolved():
    assert ab.verdict(STEADY, shifted(STEADY, -5), "higher", 0.1, False)["verdict"] == (
        "within bound"
    )
    assert ab.verdict(STEADY, shifted(STEADY, -20), "higher", 0.1, False)["verdict"] == (
        "worse"
    )
    assert ab.verdict(STEADY, shifted(STEADY, 20), "lower", 0.1, False)["verdict"] == "worse"
    noisy = [50.0, 150.0] * 5
    assert ab.verdict(STEADY, noisy, "higher", 0.1, False)["verdict"] == "unresolved"
    # a better median is never worse, and identical samples tie every pair
    assert ab.verdict(STEADY, shifted(STEADY, 30), "higher", 0.1, False)["verdict"] == (
        "within bound"
    )
    row = ab.verdict(STEADY, list(STEADY), "higher", 0.1, False)
    assert (row["wins"], row["ties"], row["verdict"]) == (0, 10, "within bound")


#: a benchmark command that reports the metrics of ``stub.json`` beside
#: it, after checking the environment ab.py promises its children
STUB = '''
import json, os, sys, time
from pathlib import Path
here = Path(__file__).parent
tree = here.resolve().parent.parent
if os.environ.get("PYTHONDONTWRITEBYTECODE") != "1" or list(tree.rglob("__pycache__")):
    sys.exit("bytecode cache")
if (tree / ".git" / "worktrees").exists():
    sys.exit("a worktree is registered")
if (here / "hang").exists():  # stand still until killed
    (here / "started").write_text("")
    time.sleep(60)
assert sys.argv[1:] == ["--workload", "w", "--seed", "3", "--seconds", "0.5", "--trace", "0"]
stub = json.loads((here / "stub.json").read_text())
print("#detail " + json.dumps({"sim_digest": stub["digest"]}))
metrics = {k: {"value": v, "unit": ""} for k, v in stub["metrics"].items()}
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
'''

MANIFEST = {
    "command": ["python3", "benchmarks/e2e/run.py"],
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "requests_per_s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ],
}


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)


def stub_repo(tmp_path, rps):
    """A git repository with one commit: the stub benchmark reporting
    ``requests_per_s`` *rps*."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    repo = tmp_path / "repo"
    bench = repo / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(STUB)
    (repo / "BENCHMARK.json").write_text(json.dumps(MANIFEST))
    write_stub(repo, "d1", rps)
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "stub")
    return repo


def write_stub(repo, digest, rps):
    stub = {"digest": digest, "metrics": {"requests_per_s": rps, "setup_s": 0.1}}
    (repo / "benchmarks" / "e2e" / "stub.json").write_text(json.dumps(stub))


def worktrees(repo) -> str:
    """``git worktree list`` of *repo*."""
    return subprocess.run(
        ["git", "-C", str(repo), "worktree", "list"],
        check=True, capture_output=True, text=True,
    ).stdout  # fmt: skip


def run_ab(repo, monkeypatch, *extra):
    monkeypatch.chdir(repo)
    argv = ["--base", "HEAD", "--workload", "w", "--seed", "3", "--seconds", "0.5", *extra]
    return ab.main(argv)


def test_a_smoke_run_on_a_stub_repository(tmp_path, monkeypatch, capsys):
    """The working tree (a faster stub, and a stale ``__pycache__`` that
    must be cleared) against its own HEAD, two pairs: the JSON holds
    both sides' samples, and the worktree is gone afterwards."""
    repo = stub_repo(tmp_path, 100.0)
    write_stub(repo, "d1", 130.0)
    (repo / "benchmarks" / "__pycache__").mkdir()
    out = tmp_path / "ab.json"
    assert run_ab(repo, monkeypatch, "--pairs", "2", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    rps = report["metrics"]["requests_per_s"]
    assert rps["base"]["samples"] == [100.0, 100.0]
    assert rps["change"]["samples"] == [130.0, 130.0]
    assert (rps["wins"], rps["verdict"]) == (2, "no gain (within bound)")
    assert report["metrics"]["setup_s"]["ties"] == 2
    assert report["sim_digest"] == "d1"
    assert "requests_per_s" in capsys.readouterr().out
    assert len(worktrees(repo).strip().splitlines()) == 1
    assert not (repo / ".git" / "worktrees").exists()


def test_a_pair_whose_digests_differ_stops_the_tool(tmp_path, monkeypatch):
    repo = stub_repo(tmp_path, 100.0)
    write_stub(repo, "d2", 100.0)
    with pytest.raises(SystemExit, match="sim_digest d1 .base. != d2"):
        run_ab(repo, monkeypatch, "--pairs", "1")
    assert len(worktrees(repo).strip().splitlines()) == 1
    assert not (repo / ".git" / "worktrees").exists()


def test_a_killed_run_leaves_the_repository_as_it_was(tmp_path):
    """SIGKILL ``ab.py`` while this tree's run of pair 0 stands still:
    nothing was registered in the repository to clean up, and the export
    it left in the temporary directory goes with the next run, which
    leaves alone a live run's export (its pid alive, or its marker
    locked), and a directory with no marker."""
    repo = stub_repo(tmp_path, 100.0)
    bench = repo / "benchmarks" / "e2e"
    (bench / "hang").write_text("")  # this tree only: the base has none
    before = worktrees(repo)
    argv = [sys.executable, str(Path(ab.__file__)), "--base", "HEAD", "--workload", "w"]
    argv += ["--seed", "3", "--seconds", "0.5", "--pairs", "1"]
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.Popen(
        argv, cwd=repo, env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )  # fmt: skip
    try:
        deadline = time.monotonic() + 60
        while not (bench / "started").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
    finally:  # the stub run ab.py left behind
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    assert worktrees(repo) == before
    assert not (repo / ".git" / "worktrees").exists()
    dead = list(tmp_path.glob(f"repro-ab-{proc.pid}-*"))
    assert len(dead) == 1 and (dead[0] / ab.MARKER).is_file()
    live = tmp_path / f"repro-ab-{os.getpid()}-running"
    live.mkdir()
    (live / ab.MARKER).write_text("")
    unmarked = tmp_path / f"repro-ab-{proc.pid}-not-an-export"  # another tool's
    unmarked.mkdir()
    elsewhere = tmp_path / f"repro-ab-{proc.pid}-elsewhere"  # a live run, pid unseen
    elsewhere.mkdir()
    (bench / "hang").unlink()
    (bench / "started").unlink()
    with open(elsewhere / ab.MARKER, "w") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        subprocess.run(argv, cwd=repo, env=env, check=True, capture_output=True)
    assert not dead[0].exists()
    assert {p.name for p in tmp_path.glob("repro-ab-*")} == {
        live.name, unmarked.name, elsewhere.name
    }
