"""The scripts under ``scripts/`` and the README's library example run end to
end on a small input."""

import os
import subprocess
import sys
from pathlib import Path

from cragrank.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_run_recovery_on_a_small_world():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_recovery.py"), "--climbers", "20",
         "--routes", "30", "--periods", "3", "--ascents-per-period", "8", "--folds", "3"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "\nheld-out: accuracy=" in result.stdout


def test_readme_library_use_block(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    block = section[section.index("```python\n") + len("```python\n"):section.index("\n```\n")]
    assert main(["synth", "--out", str(tmp_path), "--climbers", "20", "--routes", "30",
                 "--periods", "3", "--ascents-per-period", "8"]) == 0
    (tmp_path / "raw_ascents.csv").rename(tmp_path / "ascents.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
