#!/usr/bin/env python3
"""Fit a model on simulated ascents and report how well it recovers truth.

Generates a world with known ratings and its raw ascent log, as
``cragrank synth`` does with the same world and hyperparameter options,
cleans the log as ``cragrank preprocess`` does, fits the model to the
cleaned data, and prints (a) the correlation between true and fitted ratings
and (b) held-out cross-validation metrics next to the constant-predictor
baseline.  Errors are reported as the CLI reports them, on stderr: exit code
1 for a bad flag or value and 2 when no ascent survives cleaning.
"""

import time

from cragrank.cli import (Parser, add_hyper_flags, add_world_flags, report_errors,
                          resolve_hyper, simulate_log)
from cragrank.evaluation import compute_metrics, cross_validate_predictions, make_fold_plan
from cragrank.ingest import format_float, preprocess
from cragrank.solver import MAX_ITERATIONS, fit
from cragrank.synthetic import recovery_report


def parse_args():
    parser = Parser(description=__doc__)
    add_world_flags(parser)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--max-iterations", type=int, default=MAX_ITERATIONS)
    add_hyper_flags(parser)
    return parser.parse_args()


def main():
    args = parse_args()
    hyper = resolve_hyper(args)

    world, log = simulate_log(args, hyper)
    dataset = preprocess(log)
    print(f"simulated {len(dataset)} ascents "
          f"({len(dataset.climber_ids)} climbers, {len(dataset.route_ids)} routes)")

    start = time.perf_counter()
    state, report = fit(dataset, hyper, args.max_iterations)
    elapsed = time.perf_counter() - start
    print(f"fit: iterations={report.iterations} converged={report.converged} "
          f"log_likelihood={format_float(report.final_bt_log_likelihood)} "
          f"({elapsed:.2f}s)")

    recovered = recovery_report(world, dataset, state)
    print(f"recovery: route_correlation={format_float(recovered.route_correlation)} "
          f"climber_correlation={format_float(recovered.climber_correlation)} "
          f"route_rmse={format_float(recovered.route_rmse)}")

    plan = make_fold_plan(dataset, args.folds, args.repeats, args.seed)
    pooled_p, pooled_y, _ = cross_validate_predictions(dataset, hyper, plan,
                                                       max_iterations=args.max_iterations)
    held_out = compute_metrics(pooled_p, pooled_y)
    print(f"held-out: accuracy={format_float(held_out.accuracy)} "
          f"log_loss={format_float(held_out.log_loss)} "
          f"balanced_accuracy={format_float(held_out.balanced_accuracy)}")
    print(f"baseline: accuracy={format_float(held_out.baseline_accuracy)} "
          f"log_loss={format_float(held_out.baseline_log_loss)}")
    gain = held_out.accuracy - held_out.baseline_accuracy
    print(f"accuracy gain over baseline: {gain * 100:.2f} percentage points")
    return 0


if __name__ == "__main__":
    raise SystemExit(report_errors(main))
