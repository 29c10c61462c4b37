"""Run one cragrank command with a span recorded at every call into a layer.

Usage: python trace_boot.py SUMMARY_JSON ARGS...

ARGS are the command's arguments as ``python -m cragrank`` takes them.  The
bootstrap replaces each public function in ``WRAPPED`` at the name the
program calls it by, then calls ``cragrank.cli.main``.  Spans (name, start,
end, parent, count) stay in memory until the command returns; then they
are summed per span name (calls, total time, self time, counts) and written
to SUMMARY_JSON.  Self time is a span's time minus that of its child spans.
A name that no longer exists is listed as absent and the command runs
without it.  ``BENCH_SPAWN_TIME`` holds the parent's ``perf_counter()``
just before it started this process; on Linux that clock is
CLOCK_MONOTONIC, shared by every process.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

import cragrank.cli


def _rows_parsed(rows):
    return [len(rows)]


def _rows_kept(dataset):
    return [dataset.provenance["rows_kept"]]


def _fit_outcome(result):
    """Iterations, converged flag, and the rises and steps of the BT log-likelihood."""
    state, report = result
    history = list(state.bt_log_likelihood_history)
    rises = sum(1 for a, b in zip(history, history[1:]) if b > a)
    return [report.iterations, int(bool(report.converged)), rises, max(len(history) - 1, 0)]


def _length(result):
    return [len(result)]


# (module, attribute the program calls, span name, count taken from the result).
# evaluation.nearest_week and evaluation.r_squared have no metric of their
# own; they are wrapped so that their time counts as library time rather
# than as the CLI's self time.
WRAPPED = (
    ("cragrank.cli", "parse_ascent_log", "ingest.parse", _rows_parsed),
    ("cragrank.cli", "preprocess", "ingest.preprocess", None),
    ("cragrank.ingest", "assemble_clean_dataset", "ingest.fixpoint", _rows_kept),
    ("cragrank.cli", "write_clean_dataset", "ingest.write", None),
    ("cragrank.cli", "read_clean_dataset", "ingest.read", None),
    ("cragrank.cli", "fit", "solver.fit", _fit_outcome),
    ("cragrank.evaluation", "fit", "solver.fit", _fit_outcome),
    ("cragrank.solver", "initialize_state", "solver.init", None),
    ("cragrank.solver", "solve_tridiagonal", "solver.climber_solve", None),
    ("cragrank.solver", "win_probabilities", "model.win_probabilities", None),
    ("cragrank.cli", "bt_probability", "model.bt_probability", None),
    ("cragrank.evaluation", "bt_probability", "model.bt_probability", None),
    ("cragrank.cli", "rating_at_nearest_week", "evaluation.nearest_week", None),
    ("cragrank.evaluation", "rating_at_nearest_week", "evaluation.nearest_week", None),
    ("cragrank.cli", "predict_probabilities", "evaluation.predict", _length),
    ("cragrank.evaluation", "predict_probabilities", "evaluation.predict", _length),
    ("cragrank.cli", "compute_metrics", "evaluation.metrics", None),
    ("cragrank.cli", "precision_recall_curve", "evaluation.pr_curve", _length),
    ("cragrank.cli", "make_fold_plan", "evaluation.fold_plan", None),
    ("cragrank.cli", "cross_validate_predictions", "evaluation.cross_validate", None),
    ("cragrank.cli", "linear_fit_r_squared", "evaluation.r_squared", None),
)


class Tracer:
    """Spans of one process, as lists [name, start, end, parent, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.absent: list[str] = []
        self.count_errors: list[str] = []

    def wrap(self, fn, name, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    span[4] = count(result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    self.count_errors.append(name)
            return result

        return traced

    def install(self):
        for module_name, attribute, name, count in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, attribute, None)
            if fn is None:
                self.absent.append(name)
            else:
                setattr(module, attribute, self.wrap(fn, name, count))

    def summary(self) -> dict[str, dict]:
        """Calls, total and self seconds, and summed counts per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, dict] = {}
        for (name, start, end, _, count), children in zip(self.spans, child_time):
            entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                             "first_start": start})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
            if count is not None:
                entry["counts"] = [a + b for a, b in zip(entry.get("counts", [0] * len(count)),
                                                         count)]
        return layers


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    run = tracer.wrap(cragrank.cli.main, "cli.main", None)
    code = 1
    try:
        code = run(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spawn": float(os.environ.get("BENCH_SPAWN_TIME", "nan")),
                       "layers": tracer.summary(), "absent": sorted(set(tracer.absent)),
                       "count_errors": sorted(set(tracer.count_errors))}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
