"""Helpers shared by the test modules: ascent-log fixtures and numerical oracles.

The oracles share no code with the implementation they check.
"""

import numpy as np

from cragrank.ingest import (
    CleanDataset,
    CodedColumn,
    RawAscentLog,
    assemble_clean_dataset,
    preprocess,
    week_start_date,
)
from cragrank.model import Hyperparameters, win_probabilities
from cragrank.synthetic import generate_world, simulate_trials, trials_to_raw_log

S = True
F = False

FD_STEP = 1e-6


def make_dataset(ascents, n_routes, n_climbers, grades=None):
    """A dataset of (climber, route, week, outcome) tuples over generated id tables."""
    if grades is None:
        grades = [22] * n_routes
    table = np.array([(c, r, w, o is S) for c, r, w, o in ascents], dtype=np.int64)
    table = table.reshape(-1, 4)
    return CleanDataset(
        climber=table[:, 0], route=table[:, 1], week=table[:, 2], success=table[:, 3] == 1,
        climber_ids=np.array([f"c{i}" for i in range(n_climbers)], dtype=object),
        route_ids=np.array([f"r{i}" for i in range(n_routes)], dtype=object),
        route_grades=np.array(grades, dtype=np.int64),
        provenance={"rows_read": len(ascents), "rows_kept": len(ascents)},
    )


def dataset_to_raw_log(dataset):
    """The cleaned ascents as a raw log that preprocesses back to the same dataset.

    The id tables are the distinct strings of the id columns, and the
    dataset's indexes their codes.
    """
    grades, grade_code = np.unique(dataset.route_grades, return_inverse=True)
    return RawAscentLog(
        climber_id=CodedColumn(dataset.climber_ids, dataset.climber),
        route_id=CodedColumn(dataset.route_ids, dataset.route),
        tick_type=CodedColumn(np.array(["attempt", "redpoint"], dtype=object),
                              dataset.success.astype(np.int64)),
        day=week_start_date(dataset.week),
        grade_label=CodedColumn(grades.astype(str).astype(object), grade_code[dataset.route]),
        grade_system=CodedColumn(np.array(["ewbank"], dtype=object),
                                 np.zeros(len(dataset), dtype=np.int64)),
    )


def simulate_ascents(world, per_period, seed):
    """The cleaned dataset of ``per_period`` simulated attempts per climber and period.

    The trials drawn with ``seed`` go through the raw log and
    :func:`preprocess`, as ``cragrank synth`` and ``preprocess`` take them.
    """
    return preprocess(trials_to_raw_log(world, simulate_trials(world, per_period, seed)))


def level_matched_dataset(
    n_climbers: int,
    n_routes: int,
    n_periods: int,
    per_period: int,
    *,
    world_seed: int,
    log_seed: int,
) -> CleanDataset:
    """A large simulated log where climbers pick routes near their level.

    Route ratings are drawn with variance 1 and every climber makes
    ``per_period`` attempts per period, each on the route whose true rating
    is nearest to the climber's current ability plus a normal offset with
    standard deviation 2, mirroring how real logbooks cluster around each
    climber's working grade.  Matched difficulty keeps outcomes informative
    for every entity, which is what lets a log of this size fit to
    convergence.  The result has passed the ingest activity filters.
    """
    world = generate_world(n_climbers, n_routes, n_periods, (18, 28),
                           hyper=Hyperparameters(sigma_r_sq=1.0), seed=world_seed)
    rng = np.random.default_rng(log_seed)
    order = np.argsort(world.route_ratings)
    sorted_ratings = world.route_ratings[order]

    total = n_climbers * n_periods * per_period
    climber_idx = np.repeat(np.arange(n_climbers), n_periods * per_period)
    period_idx = np.tile(np.repeat(np.arange(n_periods), per_period), n_climbers)
    ability = world.climber_ratings[climber_idx, period_idx]
    target = ability + rng.normal(0.0, 2.0, size=total)
    pos = np.clip(np.searchsorted(sorted_ratings, target), 0, n_routes - 1)
    left = np.maximum(pos - 1, 0)
    nearer_left = np.abs(sorted_ratings[left] - target) <= np.abs(
        sorted_ratings[pos] - target
    )
    route_idx = order[np.where(nearer_left, left, pos)]
    success = rng.random(total) < win_probabilities(ability, world.route_ratings[route_idx])

    return assemble_clean_dataset(world.climber_ids, world.route_ids, world.route_grades,
                                  climber_idx, route_idx, world.weeks[period_idx], success)


def central_difference(f, x, h=FD_STEP):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def relative_error(got, want, floor=0.05):
    return abs(got - want) / max(abs(want), floor)
