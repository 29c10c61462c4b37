"""The scripts under ``scripts/`` and the README's library example run end to
end on a small input."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cragrank.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(*flags):
    """``scripts/run_recovery.py`` with ``flags``, run to its end."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_recovery.py"), *flags],
        env=env, capture_output=True, text=True, timeout=120)


def run_recovery(*flags):
    result = run_script(*flags)
    assert result.returncode == 0, result.stderr
    return result.stdout


SMALL_WORLD = ("--climbers", "20", "--routes", "30", "--periods", "3",
               "--ascents-per-period", "8", "--folds", "3")


def masked(out):
    """Script output with the fit's wall time, in parentheses, masked: the rest
    is deterministic."""
    return re.sub(r" \(\d+\.\d\ds\)\n", " (-)\n", out)


def test_run_recovery_on_a_small_world():
    assert masked(run_recovery(*SMALL_WORLD)) == (
        "simulated 480 ascents (20 climbers, 30 routes)\n"
        "fit: iterations=10 converged=True log_likelihood=-197.692787 (-)\n"
        "recovery: route_correlation=0.924759943 climber_correlation=0.818769469 "
        "route_rmse=0.708657247\n"
        "held-out: accuracy=0.752083333 log_loss=0.505736233 balanced_accuracy=0.744319285\n"
        "baseline: accuracy=0.564583333 log_loss=0.684781814\n"
        "accuracy gain over baseline: 18.75 percentage points\n")


def test_run_recovery_takes_the_commands_hyperparameter_options(tmp_path):
    config = tmp_path / "hyper.json"
    config.write_text('{"w_sq": 0.05}', encoding="utf-8")
    from_config = masked(run_recovery(*SMALL_WORLD, "--hyper-config", str(config)))
    assert from_config == masked(run_recovery(*SMALL_WORLD, "--w-sq", "0.05"))
    assert from_config != masked(run_recovery(*SMALL_WORLD))


def test_run_recovery_fits_what_synth_and_preprocess_keep(tmp_path, capsys):
    # Routes graded 0 or below are dropped by preprocess, so this world's
    # cleaned log is much smaller than its raw one.
    world = ["--climbers", "30", "--routes", "40", "--periods", "4",
             "--ascents-per-period", "8", "--grade-min", "-2", "--grade-max", "3"]
    simulated = run_recovery(*world, "--folds", "2").splitlines()[0]
    assert main(["synth", "--out", str(tmp_path), *world]) == 0
    assert main(["preprocess", str(tmp_path / "raw_ascents.csv"),
                 "--out", str(tmp_path / "dataset")]) == 0
    kept = capsys.readouterr().out.splitlines()[-1]
    assert kept.startswith("kept 73 of 960 ascent rows ")
    assert simulated == "simulated 73 ascents " + kept[kept.index("("):]


@pytest.mark.parametrize("flags, code, error", [
    # the cleaned log has a stratum of 4 ascents, too few for the default 5 folds
    (["--climbers", "30", "--routes", "40", "--periods", "4", "--ascents-per-period", "8",
      "--grade-min", "-2", "--grade-max", "3"], 1,
     "error: outcome stratum has 4 ascents, fewer than k=5\n"),
    (["--climbers", "1", "--routes", "1", "--periods", "1", "--ascents-per-period", "1"], 2,
     "error: no ascents survived preprocessing\n  rows_read=1\n  dropped_ambiguous_tick=0\n"
     "  dropped_non_ewbank=0\n  dropped_invalid_grade=0\n  dropped_route_few_ascents=1\n"
     "  dropped_climber_no_failure=0\n  rows_kept=0\n"),
    (["--sigma-r-sq", "-1"], 1, "error: hyperparameter sigma_r_sq must be positive, got -1.0\n"),
], ids=["bad-value", "empty-dataset", "bad-hyperparameter"])
def test_run_recovery_reports_errors_as_the_cli_does(flags, code, error):
    result = run_script(*flags)
    assert (result.returncode, result.stderr) == (code, error)


@pytest.mark.parametrize("flags, error", [
    (["--climbers", "abc"], "argument --climbers: invalid int value: 'abc'"),
    (["--bogus"], "unrecognized arguments: --bogus"),
], ids=["bad-int", "unknown-flag"])
def test_run_recovery_usage_error_exits_one(flags, error):
    result = run_script(*flags)
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1] == f"run_recovery.py: error: {error}"


def test_readme_library_use_block(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    block = section[section.index("```python\n") + len("```python\n"):section.index("\n```\n")]
    assert main(["synth", "--out", str(tmp_path), "--climbers", "20", "--routes", "30",
                 "--periods", "3", "--ascents-per-period", "8"]) == 0
    (tmp_path / "raw_ascents.csv").rename(tmp_path / "ascents.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
