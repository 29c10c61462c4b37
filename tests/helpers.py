"""Helpers shared by the test modules: ascent-log fixtures and numerical oracles.

The oracles share no code with the implementation they check.
"""

import tempfile
from pathlib import Path

import numpy as np

from cragrank.ingest import CleanDataset, parse_ascent_log, preprocess
from cragrank.model import Hyperparameters, win_probabilities
from cragrank.synthetic import generate_world, raw_ascent_log, simulate_trials

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


def random_dataset(rng, n_climbers=4, n_routes=4, max_periods=3, weeks=range(0, 50, 3)):
    """A small dataset drawn with ``rng``: each climber climbs in 1 to
    ``max_periods`` of ``weeks``, 1 to 3 ascents each, and every route is
    climbed at least once."""
    ascents = []
    for c in range(n_climbers):
        n_periods = int(rng.integers(1, max_periods + 1))
        chosen = np.sort(rng.choice(weeks, size=n_periods, replace=False))
        for w in chosen:
            for _ in range(int(rng.integers(1, 4))):
                ascents.append(
                    (c, int(rng.integers(0, n_routes)), int(w), S if rng.random() < 0.55 else F)
                )
    for r in range(n_routes):
        if not any(a[1] == r for a in ascents):
            ascents.append((0, r, int(ascents[0][2]), F))
    grades = [int(g) for g in rng.integers(18, 28, size=n_routes)]
    return make_dataset(ascents, n_routes, n_climbers, grades)


def check_invariants(dataset):
    """Raise ValueError if the cleaned-data guarantees do not hold."""
    n_routes, n_climbers = len(dataset.route_ids), len(dataset.climber_ids)
    if not (np.all((dataset.route >= 0) & (dataset.route < n_routes))
            and np.all((dataset.climber >= 0) & (dataset.climber < n_climbers))):
        raise ValueError("ascent index out of range")
    sparse = np.flatnonzero(np.bincount(dataset.route, minlength=n_routes) < 2)
    if sparse.size:
        raise ValueError(f"route {sparse[0]} has fewer than 2 ascents")
    failures = np.bincount(dataset.climber[~dataset.success], minlength=n_climbers)
    if not failures.all():
        raise ValueError(f"climber {np.argmin(failures)} has no failed ascent")


def parse_text(text):
    """The raw ascent log that ``text``, written verbatim as ``raw.csv`` in a
    temporary directory, parses to; errors name ``raw.csv`` and the line."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "raw.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return parse_ascent_log(path)


def dataset_to_raw_log(dataset):
    """The cleaned ascents as a raw log that preprocesses back to the same dataset."""
    return raw_ascent_log(dataset.climber_ids, dataset.route_ids, dataset.route_grades,
                          dataset.climber, dataset.route, dataset.week, dataset.success)


def simulate_ascents(world, per_period, seed):
    """The cleaned dataset of ``per_period`` simulated attempts per climber and period.

    The raw log drawn with ``seed`` goes through :func:`preprocess`, as
    ``cragrank synth`` and ``preprocess`` take it.
    """
    return preprocess(simulate_trials(world, per_period, seed))


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
    convergence.  The log is cleaned by :func:`preprocess`.
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

    return preprocess(raw_ascent_log(world.climber_ids, world.route_ids, world.route_grades,
                                     climber_idx, route_idx, period_idx, success))


def central_difference(f, x, h=FD_STEP):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def relative_error(got, want, floor=0.05):
    return abs(got - want) / max(abs(want), floor)
