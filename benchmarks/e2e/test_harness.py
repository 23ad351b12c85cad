"""Tests of the benchmark harness itself.

Run with `python -m pytest benchmarks/e2e` (not part of the tier-1
`testpaths`: the subprocess tests each measure for a few seconds).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import metrics
import tracing
import workloads
from tracing import Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_py(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# ---- spans and self time ----------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span(0, "timed_region", "timed", 0.0, 10.0, -1, None),
        Span(1, "run", "traffic.driver", 1.0, 9.0, 0, None),
        Span(2, "emulate_step", "emulation", 2.0, 5.0, 1, 0),
        Span(3, "run", "routing.fast_engine", 2.5, 4.5, 2, 0),
        Span(4, "emulate_step", "emulation", 5.0, 8.0, 1, 1),
    ]
    assert tracing.self_times(spans) == {0: 2.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 3.0}
    layers = tracing.layer_self_times(spans)
    assert layers == {"timed": 2.0, "traffic.driver": 2.0, "emulation": 4.0,
                      "routing.fast_engine": 2.0}
    # the layers of one timed region sum to its wall time
    assert sum(layers.values()) == spans[0].end - spans[0].start


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracing.tail_percentile(20) == 50.0
    assert tracing.tail_percentile(100) == 90.0
    assert tracing.tail_percentile(1000) == 99.0
    assert tracing.tail_percentile(10_000) == 99.9


@pytest.fixture(scope="module")
def traced_unit():
    """One traced unit of the smallest workload."""
    tracer = tracing.Tracer()
    prepared = workloads.BY_NAME["bfly_small_steps"].prepare(7, None)
    with tracing.installed(tracer):
        assert tracing.is_installed()
        with tracer.span("timed_region", tracing.ROOT_LAYER):
            prepared.timed()
    return tracer


def test_wrappers_are_removed_after_a_traced_unit(traced_unit):
    assert not tracing.is_installed()


def test_wrappers_are_removed_when_the_traced_code_raises():
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracing.Tracer()):
            1 / 0
    assert not tracing.is_installed()


def test_spans_of_one_epoch_share_its_step_id(traced_unit):
    spans = traced_unit.spans
    by_id = {s.id: s for s in spans}
    steps = [s for s in spans if s.layer == "emulation" and s.name == "emulate_step"]
    assert [s.step for s in steps] == list(range(len(steps))) and len(steps) == 250
    assert any(s.step is not None for s in spans if s.layer == "routing.fast_engine")
    for s in spans:
        ancestor = s
        while ancestor.name != "emulate_step" and ancestor.parent >= 0:
            ancestor = by_id[ancestor.parent]
        # inside an emulated step: its id; outside (the driver's own
        # hashing of served modules, the generator, telemetry): none
        assert s.step == (ancestor.step if ancestor.name == "emulate_step" else None)


def test_chrome_trace_has_one_complete_event_per_span(traced_unit):
    events = tracing.chrome_trace(traced_unit.spans, "bfly_small_steps")["traceEvents"]
    assert len(events) == len(traced_unit.spans)
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    json.dumps(events)


def test_layer_problems_flag_a_workload_that_left_its_layer():
    assert set(tracing.NONZERO_ONLY_ON) <= set(metrics.PER_LAYER_BY_NAME)
    values = {name: float("mesh_erew_hot" in where)
              for name, where in tracing.NONZERO_ONLY_ON.items()}
    values["budget.unattributed_share"] = 0.01
    assert tracing.layer_problems("mesh_erew_hot", values) == []
    values["routing.fast_engine.combining_s"] = 0.2  # EREW never combines
    values["budget.unattributed_share"] = 0.2
    assert len(tracing.layer_problems("mesh_erew_hot", values)) == 2


# ---- declarations, manifest and what run.py prints --------------------------


def test_names_and_units_fit_the_contract():
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    names += [w.name for w in workloads.WORKLOADS]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m.unit) for m in metrics.END_TO_END + metrics.PER_LAYER)
    assert all(m.better in ("lower", "higher") for m in metrics.END_TO_END + metrics.PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in workloads.WORKLOADS)
    assert 2 <= len(workloads.WORKLOADS) <= 8
    assert len(metrics.END_TO_END) <= 16 and len(metrics.PER_LAYER) <= 128
    setup = metrics.END_TO_END_BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)


def test_manifest_is_what_the_declarations_say():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert MANIFEST["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert MANIFEST["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS]
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_exactly_the_declared_metrics(trace, section):
    proc = run_py("--workload", "bfly_small_steps", "--seed", "5", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in MANIFEST[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert (HERE / "results" / "trace_bfly_small_steps.json").is_file()


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the manifest and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_py("--workload", "bfly_small_steps", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# ---- the comparison rule ----------------------------------------------------


def _doc(rps: list[float], slowdown: float = 2.5, digest: str = "d") -> dict:
    entry = {"sim_digest": digest, "end_to_end": {}}
    for m in metrics.END_TO_END:
        samples = rps if m.name == "requests_per_s" else [1.0] * len(rps)
        if m.name == "norm_slowdown":
            samples = [slowdown] * len(rps)
        entry["end_to_end"][m.name] = compare.summarise(samples)
    return {"workloads": {"w": entry}}


def _verdicts(parent: dict, change: dict) -> dict[str, str]:
    return {metric: verdict for _, metric, verdict, _, _ in compare.compare(parent, change)}


def test_compare_verdicts():
    steady = [1000.0 + i for i in range(10)]
    assert _verdicts(_doc(steady), _doc(steady))["requests_per_s"] == "unchanged"
    # wins every pair, medians further apart than the parent's quartiles
    assert _verdicts(_doc(steady), _doc([v * 1.1 for v in steady]))["requests_per_s"] == "gain"
    # the same margin on fewer than ten pairs is not a claim
    assert _verdicts(_doc(steady[:5]), _doc([v * 1.1 for v in steady[:5]]))[
        "requests_per_s"] == "unchanged"
    assert _verdicts(_doc(steady), _doc([v * 0.7 for v in steady]))["requests_per_s"] == "regression"
    noisy = [1000.0, 700.0, 1300.0, 800.0, 1200.0, 900.0, 1100.0, 750.0, 1250.0, 1000.0]
    assert _verdicts(_doc(noisy), _doc(noisy))["requests_per_s"] == "unresolved"
    # virtual clock: any difference is a behaviour change
    changed = _verdicts(_doc(steady), _doc(steady, slowdown=2.6, digest="e"))
    assert changed["norm_slowdown"] == changed["sim_digest"] == "CHANGED"
    assert not compare.print_rows(compare.compare(_doc(steady), _doc(steady, digest="e")))
