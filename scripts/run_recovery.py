#!/usr/bin/env python3
"""Fit a model on simulated ascents and report how well it recovers truth.

Generates a world with known ratings and its raw ascent log, as
``cragrank synth`` does with the same world flags, cleans the log as
``cragrank preprocess`` does, fits the model to the cleaned data, and prints
(a) the correlation between true and fitted ratings and (b) held-out
cross-validation metrics next to the constant-predictor baseline.  Errors
are reported as the CLI reports them: ``error: ...`` on stderr, and exit
code 1 for a bad value or 2 when no ascent survives cleaning.
"""

import argparse
import time

from cragrank.cli import add_world_flags, report_errors, resolve_hyper, simulate_log
from cragrank.evaluation import compute_metrics, cross_validate_predictions, make_fold_plan
from cragrank.ingest import preprocess
from cragrank.solver import fit
from cragrank.synthetic import recovery_report


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    add_world_flags(parser)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--max-iterations", type=int, default=1000)
    parser.add_argument("--w-sq", type=float, default=None,
                        help="override the drift variance per week")
    parser.add_argument("--sigma-r-sq", type=float, default=None,
                        help="override the route prior variance")
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
          f"log_likelihood={report.final_bt_log_likelihood:.9g} "
          f"({elapsed:.2f}s)")

    recovered = recovery_report(world, state)
    print(f"recovery: route_correlation={recovered.route_correlation:.9g} "
          f"climber_correlation={recovered.climber_correlation:.9g} "
          f"route_rmse={recovered.route_rmse:.9g}")

    plan = make_fold_plan(dataset, args.folds, args.repeats, args.seed)
    pooled_p, pooled_y, _ = cross_validate_predictions(dataset, hyper, plan,
                                                       max_iterations=args.max_iterations)
    held_out = compute_metrics(pooled_p, pooled_y)
    print(f"held-out: accuracy={held_out.accuracy:.9g} "
          f"log_loss={held_out.log_loss:.9g} "
          f"balanced_accuracy={held_out.balanced_accuracy:.9g}")
    print(f"baseline: accuracy={held_out.baseline_accuracy:.9g} "
          f"log_loss={held_out.baseline_log_loss:.9g}")
    gain = held_out.accuracy - held_out.baseline_accuracy
    print(f"accuracy gain over baseline: {gain * 100:.2f} percentage points")
    return 0


if __name__ == "__main__":
    raise SystemExit(report_errors(main))
