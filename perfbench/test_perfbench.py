"""Self-test of the benchmark at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Every workload runs over two sites with tracing on (odd sites are
traced, even ones not), which is enough to compute both metric sets.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import run  # noqa: E402

SPEC = run.load_spec()


@pytest.fixture(scope="module", params=bench.WORKLOADS)
def outcome(request, tmp_path_factory):
    return bench.run_workload(
        request.param,
        seed=1,
        seconds=1,
        trace=True,
        work_dir=str(tmp_path_factory.mktemp("work")),
        sites=2,
    )


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_workload_is_correct(outcome):
    assert outcome.correct, outcome.problems
    assert outcome.attempted == 2 and outcome.failed == 0


@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_a_unit(outcome, trace):
    line = run.result_line(outcome, SPEC, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in line["metrics"].values():
        assert metric["unit"]
        assert isinstance(metric["value"], (int, float))
    json.dumps(line)


def test_trace_sees_each_layer_of_its_workload(outcome):
    metrics = bench.per_layer_metrics(outcome)
    assert metrics["trace.sites"] == 1
    assert metrics["probe.s"] > 0 and metrics["partition.calls"] > 0
    if outcome.workload == "cold_fanout":
        assert metrics["runtime.chunks"] > 0 and metrics["artifacts.puts"] > 0
    if outcome.workload == "refresh_drift10":
        assert metrics["incremental.skipped"] > 0 and metrics["incremental.assigned"] > 0
        assert metrics["artifacts.hits"] > 0
    if outcome.workload == "cold_serial":
        assert metrics["html.parse.per_page"] >= 1 and metrics["text.stem.calls"] > 0


def test_tracer_leaves_no_wrapper_behind(outcome):
    from repro.core.page import Page
    from repro.text import terms

    assert not hasattr(terms.porter_stem, "__wrapped__")
    assert not hasattr(Page.tag_counts, "__wrapped__")


def test_digest_gate_trips_on_a_mismatched_expected_digest(tmp_path):
    outcome = bench.run_workload(
        "cold_fanout",
        seed=1,
        seconds=1,
        work_dir=str(tmp_path),
        sites=1,
        expected_digests={0: "0" * 64},
    )
    assert not outcome.correct
    assert any("fan-out digest" in problem for problem in outcome.problems)
    assert bench.digest_problems({0: "a"}, {0: "a"}) == []


def test_refresh_gate_trips_on_a_refit():
    counters = {"skipped": 99, "assigned": 0, "refit": 11}
    assert bench.refresh_problems(counters, pages=110, drifted=11)
    assert not bench.refresh_problems(
        {"skipped": 99, "assigned": 11}, pages=110, drifted=11
    )


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    args = [sys.executable, "perfbench/run.py", "--workload", "cold_serial", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(args, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
