"""Coordinate Newton optimizer for the dynamic paired-comparison model.

Each outer iteration takes one Newton step for every climber (over the
climber's whole rating history, using the tridiagonal Hessian induced by the
random-walk coupling between consecutive periods) and then one scalar Newton
step for every route.  Climber blocks never read other climbers and route
updates never read other routes, so each pass is computed at once over flat
arrays: the climber Hessians form one block-tridiagonal system, solved in a
single sweep, and the route steps are elementwise.

The Bradley-Terry marginal log-likelihood is recorded after every outer
iteration; the fit stops once the last nine recorded values span at most one
unit (or at ``max_iterations``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDatasetError
from .ingest import CleanDataset
from .model import (
    RATING_DIFF_CLAMP,
    Hyperparameters,
    route_prior_mean,
    win_probabilities,
)

# A single Newton update may move a rating by at most this much; wildly
# overshooting steps early in the fit would otherwise saturate the clamped
# logistic and stall progress.
MAX_NEWTON_STEP = 10.0

# Floor on the drift variance between adjacent periods.  Only reachable with
# w_sq == 0 (weeks within a climber are strictly increasing); the near-rigid
# coupling then pins the climber's periods to a common value.
MIN_WIENER_VARIANCE = 1e-12


@dataclass(frozen=True)
class FitReport:
    iterations: int
    converged: bool
    final_bt_log_likelihood: float


@dataclass
class ModelState:
    """All ratings and ascents as flat arrays.

    Climber ``c`` owns the rating periods ``period_offsets[c]`` up to
    ``period_offsets[c + 1]`` of ``period_weeks`` and ``climber_ratings``;
    its weeks are strictly increasing and each of its periods holds at least
    one ascent.  A climber without ascents owns no periods.  Route ``i`` has
    ``route_ids[i]``, ``route_grades[i]``, ``route_prior_means[i]`` and
    ``route_ratings[i]``.  The ascent arrays (``asc_*``) hold every ascent
    once, in canonical (climber, week, route, outcome) order:
    ``asc_flat_period`` indexes the climber's period, ``asc_route`` the
    route.
    """

    hyper: Hyperparameters
    climber_ids: list[str]
    period_offsets: np.ndarray
    period_weeks: np.ndarray
    climber_ratings: np.ndarray
    route_ids: list[str]
    route_grades: np.ndarray
    route_prior_means: np.ndarray
    route_ratings: np.ndarray
    asc_flat_period: np.ndarray
    asc_route: np.ndarray
    asc_success: np.ndarray
    bt_log_likelihood_history: list[float] = field(default_factory=list)

    def period_climbers(self) -> np.ndarray:
        """Climber index of every flat rating period."""
        return np.repeat(np.arange(len(self.climber_ids)), np.diff(self.period_offsets))


def solve_tridiagonal(diag, off_diag, rhs) -> np.ndarray:
    """Solve a symmetric tridiagonal system by Thomas elimination.

    ``diag`` is the main diagonal (length n), ``off_diag`` the shared
    super/sub diagonal (length n-1).  Linear time, no pivoting: intended for
    the definite systems produced by the climber updates, where elimination
    without pivoting is stable.

    A zero off-diagonal entry splits the system into independent blocks.
    All blocks are eliminated together, longest first: step ``k`` of the
    sweep is one vectorized update of row ``k`` of every block longer than
    ``k``, with the same arithmetic as eliminating each block on its own.
    """
    d = np.array(diag, dtype=float)
    off = np.asarray(off_diag, dtype=float)
    b = np.array(rhs, dtype=float)
    n = d.shape[0]
    if n == 0:
        raise ValueError("empty system")
    if off.shape[0] != n - 1 or b.shape[0] != n:
        raise ValueError("inconsistent system dimensions")
    starts = np.flatnonzero(np.concatenate(([True], off == 0.0)))
    lengths = np.diff(np.append(starts, n))
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[order], lengths[order]
    # longer[k] = number of blocks with more than k rows
    longer = np.searchsorted(-lengths, -np.arange(lengths[0]))

    for k in range(1, lengths[0]):
        i = starts[:longer[k]] + k
        pivot = d[i - 1]
        if not pivot.all():
            raise np.linalg.LinAlgError("singular tridiagonal system")
        m = off[i - 1] / pivot
        d[i] -= m * off[i - 1]
        b[i] -= m * b[i - 1]
    last = starts + lengths - 1
    if not d[last].all():
        raise np.linalg.LinAlgError("singular tridiagonal system")
    x = np.empty(n)
    x[last] = b[last] / d[last]
    for k in range(lengths[0] - 2, -1, -1):
        i = starts[:longer[k + 1]] + k
        x[i] = (b[i] - off[i] * x[i + 1]) / d[i]
    return x


def initialize_state(dataset: CleanDataset, hyper: Hyperparameters | None = None) -> ModelState:
    """Build the optimizer state: climbers at 0, routes at their prior means.

    Ascents are put into a canonical (climber, week, route) order so the
    result is independent of input row order.
    """
    if hyper is None:
        hyper = Hyperparameters()
    n_asc = len(dataset)
    if n_asc == 0:
        raise EmptyDatasetError("dataset contains no ascents")

    order = np.lexsort((dataset.success, dataset.route, dataset.week, dataset.climber))
    climber_idx, route_idx, week, success = (
        dataset.climber[order], dataset.route[order], dataset.week[order], dataset.success[order]
    )

    n_climbers = len(dataset.climbers)
    n_routes = len(dataset.routes)
    if climber_idx.max() >= n_climbers or route_idx.max() >= n_routes:
        raise ValueError("ascent indexes out of range of the entity tables")

    # A new rating period starts wherever the (climber, week) pair changes.
    new_period = np.ones(n_asc, dtype=bool)
    new_period[1:] = (np.diff(climber_idx) != 0) | (np.diff(week) != 0)
    flat_period = np.cumsum(new_period) - 1
    periods_per_climber = np.bincount(climber_idx[new_period], minlength=n_climbers)
    period_offsets = np.concatenate(([0], np.cumsum(periods_per_climber)))

    grades = np.fromiter((r.grade for r in dataset.routes), np.int64, n_routes)
    prior_means = route_prior_mean(grades, hyper)
    return ModelState(
        hyper=hyper,
        climber_ids=list(dataset.climbers),
        period_offsets=period_offsets,
        period_weeks=week[new_period],
        climber_ratings=np.zeros(int(period_offsets[-1])),
        route_ids=[r.route_id for r in dataset.routes],
        route_grades=grades,
        route_prior_means=prior_means,
        route_ratings=prior_means.copy(),
        asc_flat_period=flat_period,
        asc_route=route_idx,
        asc_success=success,
    )


def climber_pass(state: ModelState) -> np.ndarray:
    """One whole-history Newton step for every climber; returns the new ratings.

    Reads the current climber and route ratings without mutating the state.
    The gradient and the tridiagonal Hessian of every climber's history are
    assembled in flat arrays, and all climbers' systems are solved in one
    call of :func:`solve_tridiagonal`, whose off-diagonal is 0 between
    climbers.
    """
    hyper = state.hyper
    r = state.climber_ratings
    n = r.shape[0]
    idx = state.asc_flat_period
    p = win_probabilities(r[idx], state.route_ratings[state.asc_route])
    wins = np.bincount(idx, weights=state.asc_success.astype(float), minlength=n)
    grad = wins - np.bincount(idx, weights=p, minlength=n)
    hess = -np.bincount(idx, weights=p * (1.0 - p), minlength=n)

    # Initial-rating prior applies to each climber's first period only.
    offsets = state.period_offsets
    first = offsets[:-1][np.diff(offsets) > 0]
    grad[first] -= r[first] / hyper.sigma_c_sq
    hess[first] -= 1.0 / hyper.sigma_c_sq

    # Random-walk coupling between consecutive periods of the same climber.
    linked = np.ones(n - 1, dtype=bool)
    linked[first[1:] - 1] = False
    j = np.flatnonzero(linked)
    weeks = state.period_weeks
    precision = 1.0 / np.maximum((weeks[j + 1] - weeks[j]) * hyper.w_sq, MIN_WIENER_VARIANCE)
    pull = (r[j + 1] - r[j]) * precision
    grad[j] += pull
    grad[j + 1] -= pull
    hess[j] -= precision
    hess[j + 1] -= precision
    off = np.zeros(n - 1)
    off[j] = precision

    delta = solve_tridiagonal(hess, off, grad)
    return r + np.clip(-delta, -MAX_NEWTON_STEP, MAX_NEWTON_STEP)


def route_pass(state: ModelState) -> np.ndarray:
    """One scalar Newton step for every route; returns the new ratings.

    Reads the current climber and route ratings without mutating the state.
    A route "wins" each ascent its climber fails.  Only the prior acts on a
    route with no ascents, so its step leads to its prior mean.
    """
    hyper = state.hyper
    route = state.asc_route
    ratings = state.route_ratings
    n = ratings.shape[0]
    q = win_probabilities(ratings[route], state.climber_ratings[state.asc_flat_period])
    wins = np.bincount(route, weights=(~state.asc_success).astype(float), minlength=n)
    d1 = (
        wins
        - np.bincount(route, weights=q, minlength=n)
        - (ratings - state.route_prior_means) / hyper.sigma_r_sq
    )
    d2 = -np.bincount(route, weights=q * (1.0 - q), minlength=n)
    d2 -= 1.0 / hyper.sigma_r_sq
    return ratings + np.clip(-d1 / d2, -MAX_NEWTON_STEP, MAX_NEWTON_STEP)


def bt_marginal_log_likelihood(state: ModelState) -> float:
    """Sum of log probabilities the model assigns to the observed outcomes.

    Uses the same clamped rating differences as the probability function, so
    the result is always finite.  Excludes all prior terms.
    """
    if state.asc_route.shape[0] == 0:
        return 0.0
    climber_r = state.climber_ratings[state.asc_flat_period]
    route_r = state.route_ratings[state.asc_route]
    z = np.clip(climber_r - route_r, -RATING_DIFF_CLAMP, RATING_DIFF_CLAMP)
    z = np.where(state.asc_success, z, -z)
    return float(-np.logaddexp(0.0, -z).sum())


def fit(
    dataset: CleanDataset,
    hyper: Hyperparameters | None = None,
    max_iterations: int = 1000,
    *,
    convergence_window: int = 8,
    convergence_span: float = 1.0,
) -> tuple[ModelState, FitReport]:
    """Fit climber and route ratings by coordinate Newton ascent.

    Every outer iteration runs :func:`climber_pass` (against the route
    ratings from the previous iteration), then :func:`route_pass` (against
    the just-updated climber ratings), then records the Bradley-Terry
    marginal log-likelihood.  The fit is converged once the likelihood has
    not moved by more than ``convergence_span`` over the last
    ``convergence_window`` iterations, i.e. the last
    ``convergence_window + 1`` recorded values span at most
    ``convergence_span``.  Entities that have no ascents (possible in
    cross-validation subsets) are left at their prior means.

    Returns the final state and a report (iterations run, convergence flag,
    final likelihood).
    """
    if max_iterations < 8:
        raise ValueError(f"max_iterations must be at least 8, got {max_iterations}")
    if convergence_window < 1:
        raise ValueError("convergence_window must be at least 1")

    state = initialize_state(dataset, hyper)
    history = state.bt_log_likelihood_history
    converged = False
    for iterations in range(1, max_iterations + 1):
        state.climber_ratings = climber_pass(state)
        state.route_ratings = route_pass(state)
        history.append(bt_marginal_log_likelihood(state))
        if len(history) > convergence_window:
            recent = history[-(convergence_window + 1):]
            if max(recent) - min(recent) <= convergence_span:
                converged = True
                break
    return state, FitReport(iterations, converged, history[-1])
