#!/usr/bin/env python3
"""End-to-end benchmark of the cragrank command-line pipeline.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark writes the
workload's inputs under ``.bench_runs/NAME/``, then runs the workload's
commands there, each as its own ``python -m cragrank ...`` process with
``PYTHONPATH=src``, one after another, in whole rounds until ``--seconds``
have passed.  Every workload runs all five commands that a user runs on a
log: ``preprocess``, ``fit``, ``predict``, ``evaluate`` and ``crossval``.
Every output is checked against values the benchmark computes itself (see
``checks.py``).  An operation is one command; it fails if it exits non-zero
or its outputs fail the checks.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics (medians over every run of each command).  With
``--trace 1`` each command runs once untraced and once through
``trace_boot.py``, and the object holds the per-layer metrics of the traced
round plus the tracing overhead.  The README in this directory describes
the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import checks
import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_runs"

# A run ends within this many seconds of its start, whatever --seconds says.
RUN_BUDGET_S = 170.0
# Set-up is repeated at least this often and for at least this long; the
# median is reported.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
# On a shared 2-core host the same command's wall time drifted by up to 30 %
# within a minute, so a median should not rest on samples taken close
# together: every command runs at two points of a round, and one that takes
# under a second runs a few times in a row at each.
CROSSVAL_REPEATS = 3


@dataclass
class Step:
    """One CLI command of a workload and the check of what it wrote.

    An untraced round runs the command ``repeats`` times in a row.  A
    workload may list a command twice, to spread its samples over the round;
    a traced round runs each command once.
    """

    metric: str
    args: list[str]
    outputs: list[str]
    check: Callable[[Path], list[str]]
    repeats: int = 1

    @property
    def command(self) -> str:
        return self.args[0]


@dataclass
class Workload:
    """Writes a workload's inputs for a seed, and lists its commands."""

    setup: Callable[[Path, int], "Inputs"]
    steps: Callable[["Inputs"], list[Step]]


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Inputs:
    log: inputs.AscentLog
    queries: list = field(default_factory=list)
    expect: checks.CleanExpectation | None = None


def _setup_level(work: Path, seed: int) -> Inputs:
    # Two thirds of the paper's size, so that every command runs twice within
    # a run's time.  World 5 is the first of the benchmark's level-matched
    # worlds of this size whose fits converge today (see README).
    log = inputs.level_matched_log(5, seed, n_climbers=1900, n_routes=5600)
    log.write(work / "raw.csv")
    queries = inputs.query_rows(seed, log, 20000)
    inputs.write_queries(queries, work / "queries.csv")
    return Inputs(log, queries)


def _setup_crossval(work: Path, seed: int) -> Inputs:
    log = inputs.uniform_log(0, seed, 100, 200, 10, 20)
    log.write(work / "raw.csv")
    queries = inputs.query_rows(seed, log, 20000)
    inputs.write_queries(queries, work / "queries.csv")
    return Inputs(log, queries)


def _commands(ctx: Inputs, folds: int, repeats: int) -> dict[str, Step]:
    """The five commands every workload runs, keyed by command name.

    The fold seed stays 0: which fold fits converge depends on it (see README).
    """
    return {
        "preprocess": Step("preprocess_s", ["preprocess", "raw.csv", "--out", "dataset"],
                           ["dataset"],
                           lambda w: checks.check_preprocess(w / "dataset", ctx.expect)),
        "fit": Step("fit_s", ["fit", "dataset", "--out", "ratings"], ["ratings"],
                    lambda w: checks.check_fit(w / "dataset", w / "ratings", ctx.expect, 0.8)),
        "predict": Step("predict_s",
                        ["predict", "ratings", "queries.csv", "--out", "predictions.csv"],
                        ["predictions.csv"],
                        lambda w: checks.check_predict(w / "ratings", ctx.queries,
                                                       w / "predictions.csv")),
        "evaluate": Step("evaluate_s", ["evaluate", "dataset", "--out", "eval"], ["eval"],
                         lambda w: checks.check_evaluate(w / "dataset", w / "ratings",
                                                         w / "eval")),
        "crossval": Step("crossval_s", ["crossval", "dataset", "--out", "cv", "-k", str(folds),
                                        "--repeats", str(repeats), "--seed", "0"], ["cv"],
                         lambda w: checks.check_crossval(w / "dataset", w / "cv", repeats)),
    }


def _steps_level(ctx: Inputs) -> list[Step]:
    # At this size the paper's 10-fold x 3 protocol would take minutes; two
    # folds once (three fits) keep the run within its time.
    c = _commands(ctx, folds=2, repeats=1)
    predict = replace(c["predict"], repeats=2)
    return 2 * [c["preprocess"], c["fit"], predict, c["evaluate"], c["crossval"]]


def _steps_crossval(ctx: Inputs) -> list[Step]:
    c = _commands(ctx, folds=10, repeats=CROSSVAL_REPEATS)
    short = [replace(c[name], repeats=3) for name in ("preprocess", "fit", "predict", "evaluate")]
    return short + [c["crossval"]] + short


# Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS = {
    "level_160k": Workload(_setup_level, _steps_level),
    "crossval_20k": Workload(_setup_crossval, _steps_crossval),
}


# ---------------------------------------------------------------------------
# Running commands


@dataclass
class Outcome:
    step: Step
    wall_s: float
    exit_code: int
    peak_rss_kb: int
    trace: dict | None = None
    digest: str = ""
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """The small process that starts every timed command (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], work: Path, env: dict[str, str], stem: Path,
            deadline: float) -> tuple[float, int, int]:
        """Run one command to its end; return wall seconds, exit code, peak RSS in KB."""
        request = {"argv": argv, "cwd": str(work), "env": env,
                   "stdout": str(stem.with_suffix(".out")), "stderr": str(stem.with_suffix(".err")),
                   "timeout_s": deadline - time.perf_counter()}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall_s"], reply["exit_code"], reply["peak_rss_kb"]

    def close(self, interrupted: bool) -> None:
        """End the launcher; when interrupted, it kills the running command first."""
        if interrupted:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _output_state(work: Path, names: list[str]) -> tuple[str, int]:
    """Digest and total size of every file a step wrote."""
    digest = hashlib.sha256()
    size = 0
    for name in names:
        path = work / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for file in files:
            if file.exists():
                data = file.read_bytes()
                digest.update(file.relative_to(work).as_posix().encode() + b"\0" + data)
                size += len(data)
    return digest.hexdigest(), size


def run_round(launcher: Launcher, steps: list[Step], work: Path, env: dict[str, str],
              traced: bool, reference: dict[str, Outcome], deadline: float) -> list[Outcome]:
    """Run every step in order, checking each command's outputs as it ends."""
    outcomes = []
    for step in steps:
        for _ in range(step.repeats):
            for name in step.outputs:
                target = work / name
                if target.is_dir():
                    shutil.rmtree(target)
                elif target.exists():
                    target.unlink()
            stem = work / "logs" / step.command
            if traced:
                summary = stem.with_suffix(".trace.json")
                argv = [sys.executable, str(BENCH_DIR / "trace_boot.py"), str(summary),
                        *step.args]
            else:
                argv = [sys.executable, "-m", "cragrank", *step.args]
            wall, code, rss = launcher.run(argv, work, env, stem, deadline)
            outcome = Outcome(step, wall, code, rss)
            if traced and code == 0:
                outcome.trace = json.loads(summary.read_text(encoding="utf-8"))
            elif code != 0:
                tail = stem.with_suffix(".err").read_text(errors="replace")[-500:].strip()
                outcome.problems = [f"exit code {code}: {tail}"]
            outcome.digest, outcome.bytes_written = _output_state(work, step.outputs)
            if code == 0:
                _check(outcome, work, reference)
            outcomes.append(outcome)
    return outcomes


def _check(outcome: Outcome, work: Path, reference: dict[str, Outcome]) -> None:
    """Check a command's outputs, or reuse the verdict on identical outputs."""
    earlier = reference.get(outcome.step.command)
    if earlier is not None and earlier.digest == outcome.digest:
        outcome.problems = earlier.problems
        return
    try:
        outcome.problems = outcome.step.check(work)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        outcome.problems = [f"unreadable output: {exc!r}"]
    reference.setdefault(outcome.step.command, outcome)


# ---------------------------------------------------------------------------
# Metrics


class _Absent(Exception):
    """A metric needs a span name the program no longer has."""


class LayerTotals:
    """Per-span-name sums over the traced commands of one round."""

    def __init__(self, outcomes: list[Outcome]):
        self.layers: dict[str, dict] = {}
        self.absent: set[str] = set()
        self.main: dict[str, dict] = {}
        self.startup = 0.0
        for outcome in outcomes:
            trace = outcome.trace or {}
            self.absent.update(trace.get("absent", ()))
            self.absent.update(trace.get("count_errors", ()))
            for name, entry in trace.get("layers", {}).items():
                total = self.layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for key in ("calls", "total_s", "self_s"):
                    total[key] += entry[key]
                if "counts" in entry:
                    old = total.get("counts", [0] * len(entry["counts"]))
                    total["counts"] = [a + b for a, b in zip(old, entry["counts"])]
            main = trace.get("layers", {}).get("cli.main")
            if main is not None:
                self.main[outcome.step.command] = main
                self.startup += main["first_start"] - trace["spawn"]

    def _entry(self, name: str) -> dict:
        if name in self.absent:
            raise _Absent(name)
        return self.layers.get(name, {})

    def total(self, name: str) -> float:
        return self._entry(name).get("total_s", 0.0)

    def self_time(self, name: str) -> float:
        return self._entry(name).get("self_s", 0.0)

    def calls(self, name: str) -> int:
        return self._entry(name).get("calls", 0)

    def count(self, name: str, index: int) -> int:
        return self._entry(name).get("counts", [0] * (index + 1))[index]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _iteration_ms(t: LayerTotals) -> float:
    return 1000.0 * _ratio(t.total("solver.fit") - t.total("solver.init"),
                           t.count("solver.fit", 0))


def _clean_s(t: LayerTotals) -> float:
    """Self time of ``preprocess``, which needs the fixpoint's span as its child."""
    t.total("ingest.fixpoint")
    return t.self_time("ingest.preprocess")


# name -> (unit, value from the traced round's span totals)
PER_LAYER: dict[str, tuple[str, Callable[[LayerTotals], float]]] = {
    "ingest.parse_s": ("s", lambda t: t.total("ingest.parse")),
    "ingest.rows_parsed": ("count", lambda t: t.count("ingest.parse", 0)),
    "ingest.clean_s": ("s", _clean_s),
    "ingest.fixpoint_s": ("s", lambda t: t.total("ingest.fixpoint")),
    "ingest.rows_kept": ("count", lambda t: t.count("ingest.fixpoint", 0)),
    "ingest.write_s": ("s", lambda t: t.total("ingest.write")),
    "ingest.read_s": ("s", lambda t: t.total("ingest.read")),
    "solver.fit_s": ("s", lambda t: t.total("solver.fit")),
    "solver.fits": ("count", lambda t: t.calls("solver.fit")),
    "solver.fits_converged": ("count", lambda t: t.count("solver.fit", 1)),
    "solver.converged_ratio": ("ratio", lambda t: _ratio(t.count("solver.fit", 1),
                                                         t.calls("solver.fit"))),
    "solver.iterations": ("count", lambda t: t.count("solver.fit", 0)),
    "solver.ll_rise_ratio": ("ratio", lambda t: _ratio(t.count("solver.fit", 2),
                                                       t.count("solver.fit", 3))),
    "solver.init_s": ("s", lambda t: t.total("solver.init")),
    "solver.iteration_ms": ("ms", _iteration_ms),
    "solver.climber_solve_s": ("s", lambda t: t.total("solver.climber_solve")),
    "solver.climber_solves": ("count", lambda t: t.calls("solver.climber_solve")),
    "model.win_probabilities_calls": ("count", lambda t: t.calls("model.win_probabilities")),
    "model.win_probabilities_s": ("s", lambda t: t.total("model.win_probabilities")),
    "model.bt_probability_calls": ("count", lambda t: t.calls("model.bt_probability")),
    "model.bt_probability_s": ("s", lambda t: t.total("model.bt_probability")),
    "evaluation.predict_s": ("s", lambda t: t.total("evaluation.predict")),
    "evaluation.predicted": ("count", lambda t: t.count("evaluation.predict", 0)),
    "evaluation.metrics_s": ("s", lambda t: t.total("evaluation.metrics")),
    "evaluation.pr_curve_s": ("s", lambda t: t.total("evaluation.pr_curve")),
    "evaluation.pr_points": ("count", lambda t: t.count("evaluation.pr_curve", 0)),
    "evaluation.fold_plan_s": ("s", lambda t: t.total("evaluation.fold_plan")),
    "evaluation.fold_build_s": ("s", lambda t: t.self_time("evaluation.cross_validate")),
    "cli.startup_s": ("s", lambda t: t.startup),
}
for _command in ("preprocess", "fit", "evaluate", "predict", "crossval"):
    PER_LAYER[f"cli.{_command}_self_s"] = (
        "s", lambda t, c=_command: t.main.get(c, {}).get("self_s", 0.0))


def command_medians(rounds: list[list[Outcome]]) -> dict[str, float]:
    """Median wall time of each command over every run of it."""
    walls: dict[str, list[float]] = {}
    for outcome in (o for r in rounds for o in r):
        walls.setdefault(outcome.step.metric, []).append(outcome.wall_s)
    return {metric: statistics.median(values) for metric, values in walls.items()}


def end_to_end_metrics(rounds: list[list[Outcome]], setups: list[float],
                       work: Path) -> dict[str, dict]:
    medians = command_medians(rounds)
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
               "pipeline_s": {"value": sum(medians.values()), "unit": "s"}}
    metrics.update({name: {"value": value, "unit": "s"} for name, value in medians.items()})
    metrics["peak_rss_mb"] = {
        "value": max(o.peak_rss_kb for r in rounds for o in r) / 1024.0, "unit": "MB"}
    if "crossval_s" in medians:
        try:
            report = checks.read_keyvalues(work / "cv" / "report.txt")
            metrics["heldout_log_loss"] = {"value": float(report["log_loss"]), "unit": "nats"}
        except (OSError, KeyError, ValueError) as exc:  # crossval failed, and says so
            print(f"no heldout_log_loss: {exc!r}", file=sys.stderr)
    return metrics


def per_layer_metrics(untraced: list[list[Outcome]], traced: list[list[Outcome]]):
    per_round = [LayerTotals(r) for r in traced]
    metrics, absent = {}, []
    for name, (unit, value) in PER_LAYER.items():
        try:
            metrics[name] = {"value": statistics.median([value(t) for t in per_round]),
                             "unit": unit}
        except _Absent:
            absent.append(name)
    metrics["cli.bytes_written"] = {"value": sum(o.bytes_written for o in traced[0]),
                                    "unit": "bytes"}
    overhead = (statistics.median([sum(o.wall_s for o in r) for r in traced])
                - sum(command_medians(untraced).values()))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, absent


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds to Launcher.close, which stops the command


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    if not (ROOT / "src" / "cragrank" / "cli.py").is_file():
        print(f"error: no cragrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)

    setups: list[float] = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        start = time.perf_counter()
        ctx = workload.setup(work, args.seed)
        setups.append(time.perf_counter() - start)
    ctx.expect = checks.CleanExpectation(ctx.log)
    steps = workload.steps(ctx)
    if args.trace:
        # One run of each command, untraced and then traced.
        steps = [replace(s, repeats=1) for i, s in enumerate(steps) if s not in steps[:i]]

    env = _environment()
    # Compile the package's bytecode once, as a user's first run would.
    warm = subprocess.run([sys.executable, "-m", "cragrank", "--help"], cwd=work, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    if warm.returncode != 0:
        print("error: python -m cragrank --help failed", file=sys.stderr)
        return 2

    reference: dict[str, Outcome] = {}
    untraced: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    launcher = Launcher()
    interrupted = True
    try:
        measure_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            untraced.append(run_round(launcher, steps, work, env, False, reference, deadline))
            if args.trace:
                traced.append(run_round(launcher, steps, work, env, True, reference, deadline))
            now = time.perf_counter()
            if now + (now - round_start) > deadline:
                break
            if args.trace or now - measure_start >= args.seconds:
                break
        interrupted = False
    finally:
        launcher.close(interrupted)

    every = [o for r in untraced + traced for o in r]
    failed = [o for o in every if o.failed]
    for outcome in failed:
        print(f"FAILED {outcome.step.command}: {'; '.join(outcome.problems)}", file=sys.stderr)
    if args.trace:
        metrics, absent = per_layer_metrics(untraced, traced)
        if absent:
            print(f"absent: {', '.join(absent)}")
    else:
        metrics = end_to_end_metrics(untraced, setups, work)
    print(f"{args.workload}: {len(untraced)} rounds in {time.perf_counter() - started:.1f}s",
          file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
