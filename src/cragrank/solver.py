"""Coordinate Newton optimizer for the dynamic paired-comparison model.

Each outer iteration takes one Newton step for every climber (over the
climber's whole rating history, using the tridiagonal Hessian induced by the
random-walk coupling between consecutive periods) and then one scalar Newton
step for every route.  Climber blocks never read other climbers and route
updates never read other routes, so each pass is computed at once over flat
arrays: the climber Hessians form one block-tridiagonal system, solved in a
single sweep, and the route steps are elementwise.  The gradient and Hessian
of the log posterior come from :func:`climber_derivatives` and
:func:`route_derivatives`.  Each entity's Newton step is halved until that
entity's own log posterior does not fall, so no pass lowers the posterior.

The Bradley-Terry marginal log-likelihood is recorded after every outer
iteration; the fit stops once the last nine recorded values span at most one
unit (or at ``max_iterations``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyDatasetError
from .ingest import CleanDataset
from .model import Hyperparameters, route_prior_mean, win_probabilities

# Floor on the drift variance between adjacent periods.  Only reachable with
# w_sq == 0 (weeks within a climber are strictly increasing); the near-rigid
# coupling then pins the climber's periods to a common value.
MIN_WIENER_VARIANCE = 1e-12

# Iterations over which the BT log-likelihood must stay within the
# convergence span (see :func:`fit`).
CONVERGENCE_WINDOW = 8


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
    climber_ids: np.ndarray
    period_offsets: np.ndarray
    period_weeks: np.ndarray
    climber_ratings: np.ndarray
    route_ids: np.ndarray
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

    n_climbers = len(dataset.climber_ids)
    n_routes = len(dataset.route_ids)
    if climber_idx.max() >= n_climbers or route_idx.max() >= n_routes:
        raise ValueError("ascent indexes out of range of the entity tables")

    # A new rating period starts wherever the (climber, week) pair changes.
    new_period = np.ones(n_asc, dtype=bool)
    new_period[1:] = (np.diff(climber_idx) != 0) | (np.diff(week) != 0)
    flat_period = np.cumsum(new_period) - 1
    periods_per_climber = np.bincount(climber_idx[new_period], minlength=n_climbers)
    period_offsets = np.concatenate(([0], np.cumsum(periods_per_climber)))

    prior_means = route_prior_mean(dataset.route_grades, hyper)
    return ModelState(
        hyper=hyper,
        climber_ids=dataset.climber_ids,
        period_offsets=period_offsets,
        period_weeks=week[new_period],
        climber_ratings=np.zeros(int(period_offsets[-1])),
        route_ids=dataset.route_ids,
        route_grades=dataset.route_grades,
        route_prior_means=prior_means,
        route_ratings=prior_means.copy(),
        asc_flat_period=flat_period,
        asc_route=route_idx,
        asc_success=success,
    )


def _sums(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The sum of ``weights`` at each of the ``n`` values of ``index``, as floats.

    (``np.bincount`` returns integers for an empty ``index``.)
    """
    return np.bincount(index, weights, minlength=n).astype(float, copy=False)


def outcome_probabilities(state: ModelState) -> np.ndarray:
    """Each ascent's winner's :func:`win_probabilities`, by its rating margin over
    its loser: the probability of the observed outcome, strictly inside (0, 1)."""
    margin = state.climber_ratings[state.asc_flat_period] - state.route_ratings[state.asc_route]
    return win_probabilities(np.where(state.asc_success, margin, -margin), 0.0)


def _random_walk(state: ModelState) -> tuple[np.ndarray, ...]:
    """The climber of each period, each climber's first period, and each pair
    ``(j, j + 1)`` of one climber's periods with its random-walk precision."""
    offsets = state.period_offsets
    owner = state.period_climbers()
    j = np.flatnonzero(owner[1:] == owner[:-1])
    gap = np.diff(state.period_weeks)[j]
    precision = 1.0 / np.maximum(gap * state.hyper.w_sq, MIN_WIENER_VARIANCE)
    return owner, offsets[:-1][np.diff(offsets) > 0], j, precision


def climber_derivatives(state: ModelState, outcome_p: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient and tridiagonal Hessian of the log posterior in every climber rating.

    ``outcome_p`` is :func:`outcome_probabilities` at the state.  Returns
    ``(grad, hess_diag, hess_off)`` over the flat rating periods:
    ``hess_off[k]`` couples periods ``k`` and ``k + 1``, and is 0 where they
    belong to different climbers.  Each period holds its ascents'
    Bradley-Terry terms, each climber's first period the initial-rating
    prior, and consecutive periods of one climber the random-walk coupling.
    """
    r = state.climber_ratings
    n = r.shape[0]
    idx = state.asc_flat_period
    won = state.asc_success
    p = np.where(won, outcome_p, 1.0 - outcome_p)
    grad = _sums(idx, won.astype(float), n) - _sums(idx, p, n)
    hess = -_sums(idx, p * (1.0 - p), n)

    _, first, j, precision = _random_walk(state)
    grad[first] -= r[first] / state.hyper.sigma_c_sq
    hess[first] -= 1.0 / state.hyper.sigma_c_sq
    pull = (r[j + 1] - r[j]) * precision
    grad[j] += pull
    grad[j + 1] -= pull
    hess[j] -= precision
    hess[j + 1] -= precision
    off = np.zeros(max(n - 1, 0))
    off[j] = precision
    return grad, hess, off


def route_derivatives(state: ModelState, outcome_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and (diagonal) Hessian of the log posterior in every route rating.

    ``outcome_p`` is :func:`outcome_probabilities` at the state.  A route
    "wins" each ascent its climber fails.  Only the prior acts on a route
    with no ascents.
    """
    route = state.asc_route
    ratings = state.route_ratings
    n = ratings.shape[0]
    won = state.asc_success
    q = 1.0 - np.where(won, outcome_p, 1.0 - outcome_p)
    d1 = (_sums(route, (~won).astype(float), n) - _sums(route, q, n)
          - (ratings - state.route_prior_means) / state.hyper.sigma_r_sq)
    d2 = -_sums(route, q * (1.0 - q), n) - 1.0 / state.hyper.sigma_r_sq
    return d1, d2


def _climber_log_posteriors(state: ModelState, outcome_p: np.ndarray) -> np.ndarray:
    """At each period, the log posterior terms of its climber: ascents, prior and random walk."""
    r = state.climber_ratings
    terms = _sums(state.asc_flat_period, np.log(outcome_p), r.shape[0])
    owner, first, j, precision = _random_walk(state)
    terms[first] -= r[first] ** 2 / (2.0 * state.hyper.sigma_c_sq)
    terms[j] -= (r[j + 1] - r[j]) ** 2 * precision / 2.0
    return _sums(owner, terms, len(state.climber_ids))[owner]


def _route_log_posteriors(state: ModelState, outcome_p: np.ndarray) -> np.ndarray:
    """At each route, its log posterior terms: ascents and prior."""
    ratings = state.route_ratings
    return (_sums(state.asc_route, np.log(outcome_p), ratings.shape[0])
            - (ratings - state.route_prior_means) ** 2 / (2.0 * state.hyper.sigma_r_sq))


def _ascend(state: ModelState, outcome_p: np.ndarray, name: str, step: np.ndarray,
            log_posteriors) -> tuple[np.ndarray, np.ndarray]:
    """The ratings ``name`` moved by ``step``, and :func:`outcome_probabilities` there.

    Each entity's step is halved until its log posterior, which depends on its
    own ratings only, does not fall; a step that rounds to nothing passes.
    """
    before = log_posteriors(state, outcome_p)
    while True:
        trial = replace(state, **{name: getattr(state, name) + step})
        trial_p = outcome_probabilities(trial)
        fell = log_posteriors(trial, trial_p) < before
        if not fell.any():
            return getattr(trial, name), trial_p
        step = np.where(fell, step / 2.0, step)


def climber_pass(state: ModelState, outcome_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One whole-history Newton step for every climber, from ``outcome_p`` at the state.

    All systems of :func:`climber_derivatives` are solved by one call of
    :func:`solve_tridiagonal`.  Returns the ratings and probabilities that
    :func:`_ascend` reaches along these steps; the state is not mutated.
    """
    grad, hess, off = climber_derivatives(state, outcome_p)
    return _ascend(state, outcome_p, "climber_ratings", -solve_tridiagonal(hess, off, grad),
                   _climber_log_posteriors)


def route_pass(state: ModelState, outcome_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One scalar Newton step for every route, from ``outcome_p`` at the state.

    Returns the ratings and probabilities that :func:`_ascend` reaches along
    these steps; a route with no ascents steps to its prior mean.
    """
    d1, d2 = route_derivatives(state, outcome_p)
    return _ascend(state, outcome_p, "route_ratings", -d1 / d2, _route_log_posteriors)


def bt_marginal_log_likelihood(state: ModelState) -> float:
    """Sum of the log :func:`outcome_probabilities`; finite, and free of prior terms."""
    return float(np.log(outcome_probabilities(state)).sum())


def fit(
    dataset: CleanDataset,
    hyper: Hyperparameters | None = None,
    max_iterations: int = 1000,
    *,
    convergence_span: float = 1.0,
) -> tuple[ModelState, FitReport]:
    """Fit climber and route ratings by coordinate Newton ascent.

    Every outer iteration runs :func:`climber_pass` (against the route
    ratings from the previous iteration), then :func:`route_pass` (against
    the just-updated climber ratings), then records the Bradley-Terry
    marginal log-likelihood.  The model is evaluated once per point: the
    :func:`outcome_probabilities` each pass returns are carried to the next
    pass and give the recorded likelihood.  No pass lowers the log
    posterior.  The fit is converged once the last ``CONVERGENCE_WINDOW + 1``
    recorded likelihoods span at most ``convergence_span``; otherwise it
    stops at ``max_iterations``.  Entities that have no ascents (possible in
    cross-validation subsets) are left at their prior means.

    Returns the final state and a report (iterations run, convergence flag,
    final likelihood).
    """
    if max_iterations < 8:
        raise ValueError(f"max_iterations must be at least 8, got {max_iterations}")

    state = initialize_state(dataset, hyper)
    outcome_p = outcome_probabilities(state)
    history = state.bt_log_likelihood_history
    converged = False
    for iterations in range(1, max_iterations + 1):
        state.climber_ratings, outcome_p = climber_pass(state, outcome_p)
        state.route_ratings, outcome_p = route_pass(state, outcome_p)
        history.append(float(np.log(outcome_p).sum()))
        if len(history) > CONVERGENCE_WINDOW:
            recent = history[-(CONVERGENCE_WINDOW + 1):]
            if max(recent) - min(recent) <= convergence_span:
                converged = True
                break
    return state, FitReport(iterations, converged, history[-1])
