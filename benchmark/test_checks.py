"""Self-test of the benchmark: its checks pass real output and reject wrong output.

    PYTHONPATH=src python3 -m pytest benchmark/test_checks.py -q

Runs the real CLI on a small generated log, then feeds every check the
untouched outputs (which must pass) and a deliberately wrong copy (which
must be rejected).  Also checks that the traced run reports a span name
the program no longer has as absent.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run
import trace_boot


def _cli(work: Path, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    subprocess.run([sys.executable, "-m", "cragrank", *args], cwd=work, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A small level-matched log taken through every command."""
    work = tmp_path_factory.mktemp("pipeline")
    log = inputs.level_matched_log(4, 0, n_climbers=300, n_routes=900, n_periods=10)
    log.write(work / "raw.csv")
    queries = inputs.query_rows(0, log, 500)
    inputs.write_queries(queries, work / "queries.csv")
    _cli(work, "preprocess", "raw.csv", "--out", "dataset")
    _cli(work, "fit", "dataset", "--out", "ratings")
    _cli(work, "evaluate", "dataset", "--out", "eval")
    _cli(work, "predict", "ratings", "queries.csv", "--out", "predictions.csv")
    _cli(work, "crossval", "dataset", "--out", "cv", "-k", "3", "--repeats", "2")
    return work, checks.CleanExpectation(log), queries


def _broken_copy(work: Path, tmp_path: Path, name: str, old: str, new: str) -> Path:
    """Copy of the outputs with the first ``old`` in file ``name`` replaced."""
    copy = tmp_path / "copy"
    shutil.copytree(work, copy)
    target = copy / name
    text = target.read_text(encoding="utf-8")
    assert old in text
    target.write_text(text.replace(old, new, 1), encoding="utf-8")
    return copy


def _line(path: Path, index: int) -> str:
    return path.read_text(encoding="utf-8").splitlines()[index]


def test_untouched_outputs_pass(small):
    work, expect, queries = small
    assert checks.check_preprocess(work / "dataset", expect) == []
    assert checks.check_fit(work / "dataset", work / "ratings", expect, 0.8) == []
    assert checks.check_evaluate(work / "dataset", work / "ratings", work / "eval") == []
    assert checks.check_predict(work / "ratings", queries, work / "predictions.csv") == []
    assert checks.check_crossval(work / "dataset", work / "cv", 2) == []


def test_provenance_count_off_by_one_is_rejected(small, tmp_path):
    work, expect, _ = small
    kept = expect.provenance["rows_kept"]
    copy = _broken_copy(work, tmp_path, "dataset/provenance.txt",
                        f"rows_kept={kept}", f"rows_kept={kept + 1}")
    assert checks.check_preprocess(copy / "dataset", expect)


def test_perturbed_rating_is_rejected(small, tmp_path):
    work, expect, _ = small
    row = _line(work / "ratings" / "route_ratings.csv", 5)
    rating = row.rsplit(",", 1)[1]
    copy = _broken_copy(work, tmp_path, "ratings/route_ratings.csv", row,
                        row.replace(rating, f"{float(rating) + 0.3:.9g}"))
    problems = checks.check_fit(copy / "dataset", copy / "ratings", expect, 0.8)
    assert any("stationary" in p for p in problems)


def test_altered_probability_is_rejected(small, tmp_path):
    work, _, queries = small
    row = _line(work / "predictions.csv", 3)
    fields = row.split(",")
    fields[3] = f"{float(fields[3]) * 0.999:.9g}"
    copy = _broken_copy(work, tmp_path, "predictions.csv", row, ",".join(fields))
    assert checks.check_predict(copy / "ratings", queries, copy / "predictions.csv")


def test_altered_evaluate_report_is_rejected(small, tmp_path):
    work, _, _ = small
    copy = _broken_copy(work, tmp_path, "eval/report.txt", "\ntp=", "\ntp=1")
    assert checks.check_evaluate(copy / "dataset", copy / "ratings", copy / "eval")


def test_rising_curve_threshold_is_rejected(small, tmp_path):
    work, _, _ = small
    row = _line(work / "cv" / "pr_curve.csv", 2)
    copy = _broken_copy(work, tmp_path, "cv/pr_curve.csv", row, "0.9999999," + row.split(",", 1)[1])
    assert checks.check_crossval(copy / "dataset", copy / "cv", 2)


def test_crossval_total_off_is_rejected(small, tmp_path):
    work, _, _ = small
    copy = _broken_copy(work, tmp_path, "cv/report.txt", "\ntn=", "\ntn=1")
    assert checks.check_crossval(copy / "dataset", copy / "cv", 2)


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    for module_name, attribute, _, _ in trace_boot.WRAPPED:  # undo the wrapping afterwards
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attribute, getattr(module, attribute))
    monkeypatch.setattr(trace_boot, "WRAPPED", trace_boot.WRAPPED + (
        ("cragrank.solver", "no_such_function", "solver.climber_solve", None),))
    tracer = trace_boot.Tracer()
    tracer.install()
    assert tracer.absent == ["solver.climber_solve"]

    step = run.Step("fit_s", ["fit"], [], lambda w: [])
    outcome = run.Outcome(step, 1.0, 0, 1000, trace={
        "spawn": 0.0, "absent": ["solver.climber_solve"], "count_errors": [],
        "layers": {"cli.main": {"calls": 1, "total_s": 1.0, "self_s": 0.5, "first_start": 0.1},
                   "solver.fit": {"calls": 1, "total_s": 0.5, "self_s": 0.5,
                                  "counts": [10, 1, 9, 9]}}})
    metrics, absent = run.per_layer_metrics([[outcome]], [[outcome]])
    assert absent == ["solver.climber_solve_s", "solver.climber_solves"]
    assert metrics["solver.iterations"]["value"] == 10
    assert metrics["solver.converged_ratio"]["value"] == 1.0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER) + [
        "cli.bytes_written", "trace.overhead_s"]


def test_every_workload_reports_every_end_to_end_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    derived = {"setup_s", "pipeline_s", "peak_rss_mb", "heldout_log_loss"}
    for workload in run.WORKLOADS.values():
        timed = {step.metric for step in workload.steps(run.Inputs(log=None))}
        assert timed | derived == {m["name"] for m in spec["end_to_end"]}
