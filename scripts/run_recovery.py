#!/usr/bin/env python3
"""Fit a model on simulated ascents and report how well it recovers truth.

Generates a world with known ratings, simulates a logbook from it, fits the
model to the simulated data, and prints (a) the correlation between true and
fitted ratings and (b) held-out cross-validation metrics next to the
constant-predictor baseline.
"""

import argparse
import time

from cragrank.evaluation import cross_validate, make_fold_plan
from cragrank.model import Hyperparameters
from cragrank.solver import fit
from cragrank.synthetic import generate_world, recovery_report, simulate_ascents


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--climbers", type=int, default=100)
    parser.add_argument("--routes", type=int, default=200)
    parser.add_argument("--periods", type=int, default=10)
    parser.add_argument("--ascents-per-period", type=int, default=20,
                        help="attempts per climber per period (default 20)")
    parser.add_argument("--grade-min", type=int, default=18)
    parser.add_argument("--grade-max", type=int, default=28)
    parser.add_argument("--seed", type=int, default=0,
                        help="world seed; the ascent draw uses seed+1")
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
    overrides = {}
    if args.w_sq is not None:
        overrides["w_sq"] = args.w_sq
    if args.sigma_r_sq is not None:
        overrides["sigma_r_sq"] = args.sigma_r_sq
    hyper = Hyperparameters(**overrides)

    world = generate_world(
        args.climbers, args.routes, args.periods,
        (args.grade_min, args.grade_max), hyper=hyper, seed=args.seed,
    )
    dataset = simulate_ascents(world, args.ascents_per_period, seed=args.seed + 1)
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
    held_out = cross_validate(dataset, hyper, plan,
                              max_iterations=args.max_iterations)
    print(f"held-out: accuracy={held_out.accuracy:.9g} "
          f"log_loss={held_out.log_loss:.9g} "
          f"balanced_accuracy={held_out.balanced_accuracy:.9g}")
    print(f"baseline: accuracy={held_out.baseline_accuracy:.9g} "
          f"log_loss={held_out.baseline_log_loss:.9g}")
    gain = held_out.accuracy - held_out.baseline_accuracy
    print(f"accuracy gain over baseline: {gain * 100:.2f} percentage points")


if __name__ == "__main__":
    main()
