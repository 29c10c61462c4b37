#!/usr/bin/env python3
"""Time a fit at full logbook scale and check memory grows linearly.

Builds a large simulated log in which climbers attempt routes near their own
level — real logbooks cluster around each climber's working grade, and that
matched difficulty is what keeps every entity's outcomes informative at this
scale — then times the fit.  With --memory it also fits two half/quarter-size
logs for a fixed iteration count under tracemalloc and reports the peak
memory ratio (should be ~2 for a 2x ascent count).
"""

import argparse
import time
import tracemalloc

from cragrank.solver import fit
from cragrank.synthetic import level_matched_dataset


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--climbers", type=int, default=3000)
    parser.add_argument("--routes", type=int, default=8900)
    parser.add_argument("--periods", type=int, default=20)
    parser.add_argument("--ascents-per-period", type=int, default=4)
    parser.add_argument("--spread", type=float, default=2.0,
                        help="sd of the gap between ability and attempted "
                             "route rating (default 2.0)")
    parser.add_argument("--route-variance", type=float, default=1.0,
                        help="variance of generated route ratings (default 1.0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="world seed; the ascent draw uses seed+1")
    parser.add_argument("--max-iterations", type=int, default=1000)
    parser.add_argument("--memory", action="store_true",
                        help="also measure peak memory at two smaller sizes")
    return parser.parse_args()


def build(args, n_climbers, n_routes):
    return level_matched_dataset(
        n_climbers, n_routes, args.periods, args.ascents_per_period,
        spread=args.spread, route_variance=args.route_variance,
        world_seed=args.seed, log_seed=args.seed + 1,
    )


def main():
    args = parse_args()
    start = time.perf_counter()
    dataset = build(args, args.climbers, args.routes)
    built = time.perf_counter() - start
    print(f"built {len(dataset.ascents)} ascents "
          f"({len(dataset.climbers)} climbers, {len(dataset.routes)} routes) "
          f"in {built:.1f}s")

    start = time.perf_counter()
    _, report = fit(dataset, None, args.max_iterations)
    elapsed = time.perf_counter() - start
    per_iteration = elapsed / max(report.iterations, 1)
    print(f"fit: iterations={report.iterations} converged={report.converged} "
          f"log_likelihood={report.final_bt_log_likelihood:.9g}")
    print(f"time: {elapsed:.2f}s total, {per_iteration * 1000:.1f}ms/iteration")

    if args.memory:
        peaks = []
        for scale in (4, 2):
            small = build(args, args.climbers // scale, args.routes // scale)
            tracemalloc.start()
            fit(small, None, 12, convergence_span=0.0)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peaks.append((len(small.ascents), peak))
            print(f"memory: peak {peak / 1e6:.1f}MB at {len(small.ascents)} "
                  f"ascents (12 iterations)")
        ratio = peaks[1][1] / peaks[0][1]
        print(f"memory ratio for {peaks[1][0] / peaks[0][0]:.2f}x ascents: "
              f"{ratio:.2f}")


if __name__ == "__main__":
    main()
