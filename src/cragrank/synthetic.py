"""Synthetic worlds with known ratings, for end-to-end model validation.

All randomness comes from numpy's seeded ``default_rng`` (PCG64), so the same
seed reproduces the same world and ascent log on any machine.  Draw order is
fixed: route grades, route ratings, initial climber ratings, then the
per-period rating increments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import CodedColumn, RawAscentLog, week_start_date, write_csv
from .model import Hyperparameters, route_prior_mean, win_probabilities
from .solver import ModelState


@dataclass(frozen=True)
class SyntheticWorld:
    """True ratings for a simulated population of climbers and routes.

    ``climber_ratings[i, k]`` is climber ``i``'s true rating at
    ``weeks[k]``; ``route_ratings`` are static.
    """

    hyper: Hyperparameters
    seed: int
    route_ids: list[str]
    route_grades: np.ndarray
    route_ratings: np.ndarray
    climber_ids: list[str]
    weeks: np.ndarray
    climber_ratings: np.ndarray


@dataclass(frozen=True)
class RecoveryReport:
    """Agreement between a world's true ratings and a fitted state."""

    route_correlation: float
    climber_correlation: float
    route_rmse: float


def generate_world(
    n_climbers: int,
    n_routes: int,
    n_periods: int,
    grade_range: tuple[int, int],
    hyper: Hyperparameters | None = None,
    seed: int = 0,
) -> SyntheticWorld:
    """Draw a world from the model's own priors.

    Routes get uniform grades from ``grade_range`` (inclusive) and ratings
    from the grade-anchored normal prior.  Climbers start from the
    initial-rating prior and drift by independent normal increments with
    variance ``w_sq`` per week across ``n_periods`` consecutive weeks.
    """
    if hyper is None:
        hyper = Hyperparameters()
    if n_climbers < 1 or n_routes < 1 or n_periods < 1:
        raise ValueError("n_climbers, n_routes and n_periods must all be at least 1")
    lo, hi = grade_range
    if lo > hi:
        raise ValueError(f"empty grade_range {grade_range}")

    rng = np.random.default_rng(seed)
    grades = rng.integers(lo, hi + 1, size=n_routes)
    route_ratings = rng.normal(route_prior_mean(grades, hyper), np.sqrt(hyper.sigma_r_sq))
    initial = rng.normal(0.0, np.sqrt(hyper.sigma_c_sq), size=n_climbers)
    weeks = np.arange(n_periods, dtype=np.int64)
    trajectories = np.empty((n_climbers, n_periods))
    trajectories[:, 0] = initial
    if n_periods > 1:
        increments = rng.normal(
            0.0, np.sqrt(hyper.w_sq), size=(n_climbers, n_periods - 1)
        )
        trajectories[:, 1:] = initial[:, None] + np.cumsum(increments, axis=1)

    width = max(5, len(str(max(n_climbers, n_routes) - 1)))
    return SyntheticWorld(
        hyper=hyper,
        seed=seed,
        route_ids=[f"r{i:0{width}d}" for i in range(n_routes)],
        route_grades=grades,
        route_ratings=route_ratings,
        climber_ids=[f"c{i:0{width}d}" for i in range(n_climbers)],
        weeks=weeks,
        climber_ratings=trajectories,
    )


def simulate_trials(
    world: SyntheticWorld, ascents_per_climber_period: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate raw ascent attempts before any filtering.

    Every climber attempts ``ascents_per_climber_period`` uniformly chosen
    routes in every period; each attempt succeeds with the model probability
    of the true ratings.  Returns parallel arrays
    ``(climber_idx, period_idx, route_idx, success)``.
    """
    if ascents_per_climber_period < 1:
        raise ValueError("ascents_per_climber_period must be at least 1")
    n_climbers = len(world.climber_ids)
    n_periods = world.weeks.shape[0]
    total = n_climbers * n_periods * ascents_per_climber_period

    rng = np.random.default_rng(seed)
    climber_idx = np.repeat(np.arange(n_climbers), n_periods * ascents_per_climber_period)
    period_idx = np.tile(
        np.repeat(np.arange(n_periods), ascents_per_climber_period), n_climbers
    )
    route_idx = rng.integers(0, len(world.route_ids), size=total)
    p = win_probabilities(
        world.climber_ratings[climber_idx, period_idx], world.route_ratings[route_idx]
    )
    success = rng.random(total) < p
    return climber_idx, period_idx, route_idx, success


def trials_to_raw_log(
    world: SyntheticWorld,
    trials: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> RawAscentLog:
    """Express simulated trials as a raw ascent log (no filtering).

    The trials' climber and route indexes are the codes of the id columns.
    """
    climber_idx, period_idx, route_idx, success = trials
    grades, grade_code = np.unique(world.route_grades, return_inverse=True)
    return RawAscentLog(
        climber_id=CodedColumn(np.array(world.climber_ids, dtype=object), climber_idx),
        route_id=CodedColumn(np.array(world.route_ids, dtype=object), route_idx),
        tick_type=CodedColumn(np.array(["attempt", "redpoint"], dtype=object),
                              success.astype(np.int64)),
        day=week_start_date(world.weeks[period_idx]),
        grade_label=CodedColumn(grades.astype(str).astype(object), grade_code[route_idx]),
        grade_system=CodedColumn(np.array(["ewbank"], dtype=object),
                                 np.zeros(success.shape[0], dtype=np.int64)),
    )


def recovery_report(world: SyntheticWorld, fitted: ModelState) -> RecoveryReport:
    """Compare fitted ratings against the true ones, joined by entity id.

    Climber ratings are compared at every (climber, week) the fit produced.
    Requires at least two comparable routes and two comparable climber
    rating points.
    """
    route_row = {rid: i for i, rid in enumerate(world.route_ids)}
    route_rows = np.array([route_row.get(rid, -1) for rid in fitted.route_ids], dtype=np.int64)
    fitted_r = fitted.route_ratings[route_rows >= 0]
    actual_r = world.route_ratings[route_rows[route_rows >= 0]]
    if fitted_r.shape[0] < 2:
        raise ValueError("fewer than two routes to compare")

    climber_row = {cid: i for i, cid in enumerate(world.climber_ids)}
    rows = np.array([climber_row.get(cid, -1) for cid in fitted.climber_ids], dtype=np.int64)
    period_rows = rows[fitted.period_owner]
    known = period_rows >= 0
    positions = np.searchsorted(world.weeks, fitted.period_weeks[known])
    fitted_c = fitted.climber_ratings[known]
    actual_c = world.climber_ratings[period_rows[known], positions]
    if fitted_c.shape[0] < 2:
        raise ValueError("fewer than two climber rating points to compare")

    return RecoveryReport(
        route_correlation=float(np.corrcoef(actual_r, fitted_r)[0, 1]),
        climber_correlation=float(np.corrcoef(actual_c, fitted_c)[0, 1]),
        route_rmse=float(np.sqrt(np.mean((fitted_r - actual_r) ** 2))),
    )


def write_truth_csv(world: SyntheticWorld, path) -> None:
    """Write true ratings: route rows have an empty week column."""
    n_routes, (n_climbers, n_weeks) = len(world.route_ids), world.climber_ratings.shape
    write_csv(path, ("entity_type", "entity_idx", "week", "true_rating"), (
        np.repeat(["route", "climber"], (n_routes, n_climbers * n_weeks)),
        np.concatenate((np.arange(n_routes), np.repeat(np.arange(n_climbers), n_weeks))),
        np.concatenate((np.full(n_routes, ""), np.tile(world.weeks, n_climbers).astype(str))),
        np.concatenate((world.route_ratings, world.climber_ratings.reshape(-1))),
    ))
