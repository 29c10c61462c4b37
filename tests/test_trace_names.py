"""The benchmark's tracer still finds every function it wraps.

``benchmark/trace_boot.py`` replaces module attributes such as
``cragrank.evaluation.bt_probability`` with timed wrappers, and reports a
name that no longer exists as absent, which drops its metrics from the
benchmark's result.  This runs the tracer on every command of a small
pipeline and requires that nothing is absent, that every count the tracer
takes from a result can be taken, and that every wrapped span is entered.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmark"))

import trace_boot  # noqa: E402

from cragrank.cli import main  # noqa: E402

COMMANDS = {
    "preprocess": ["preprocess", "synth/raw_ascents.csv", "--out", "dataset"],
    "fit": ["fit", "dataset", "--out", "ratings"],
    "predict": ["predict", "ratings", "queries.csv", "--out", "predictions.csv"],
    "evaluate": ["evaluate", "dataset", "--out", "eval"],
    "crossval": ["crossval", "dataset", "--out", "cv", "-k", "3", "--repeats", "1"],
}


@pytest.fixture(scope="module")
def summaries(tmp_path_factory):
    """The tracer's summary of each command, run in order on one small log."""
    work = tmp_path_factory.mktemp("traced")
    assert main(["synth", "--out", str(work / "synth"), "--climbers", "20", "--routes", "30",
                 "--periods", "3", "--ascents-per-period", "8", "--seed", "0"]) == 0
    (work / "queries.csv").write_text(
        "climber_id,route_id,week\nc00000,r00001,1\nnobody,r00002,0\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = {}
    for name, args in COMMANDS.items():
        summary = work / f"{name}.trace.json"
        subprocess.run([sys.executable, trace_boot.__file__, str(summary), *args],
                       cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)
        result[name] = json.loads(summary.read_text(encoding="utf-8"))
    return result


@pytest.mark.parametrize("command", list(COMMANDS))
def test_no_wrapped_name_is_absent(summaries, command):
    assert summaries[command]["absent"] == []
    assert summaries[command]["count_errors"] == []


def test_every_wrapped_span_is_entered(summaries):
    entered = set().union(*(s["layers"] for s in summaries.values()))
    assert {span for _, _, span, _ in trace_boot.WRAPPED} <= entered
