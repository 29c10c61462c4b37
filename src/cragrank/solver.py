"""Coordinate Newton optimizer for the dynamic paired-comparison model.

Each outer iteration takes one Newton step for every climber (over the
climber's whole rating history, using the tridiagonal Hessian induced by the
random-walk coupling between consecutive periods) and then one scalar Newton
step for every route.  Climber blocks never read other climbers and route
updates never read other routes, so each pass is computed at once over flat
arrays: the climber Hessians form one block-tridiagonal system, solved in a
single sweep, and the route steps are elementwise.  The gradient and Hessian
of the log posterior come from :func:`climber_derivatives` and
:func:`route_derivatives`; the random-walk terms act on whole slices through
the Hessian off-diagonal, which is 0 between climbers.  Each entity's Newton
step is halved until that entity's own log posterior does not fall, so no
pass lowers the posterior.

What does not change during a fit is built once, when
:func:`initialize_state` sorts the ascents and constructs the
:class:`ModelState`, as its read-only fields; :func:`fit` states what a
trial point then costs.

The Bradley-Terry marginal log-likelihood is recorded after every outer
iteration; the fit stops once the last nine recorded values span at most one
unit (or at ``max_iterations``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDatasetError
from .ingest import CleanDataset
from .model import Hyperparameters, route_prior_mean, win_probabilities

# Floor on the drift variance between adjacent periods.  Only reachable with
# w_sq == 0 (weeks within a climber are strictly increasing); the near-rigid
# coupling then pins the climber's periods to a common value.
MIN_WIENER_VARIANCE = 1e-12

# Iterations over which the BT log-likelihood must stay within the
# convergence span (see :func:`fit`), and the least iteration budget.
CONVERGENCE_WINDOW = 8
MAX_ITERATIONS = 1000  # the default iteration budget of every fit


@dataclass(frozen=True)
class FitReport:
    iterations: int
    converged: bool
    final_bt_log_likelihood: float


@dataclass(frozen=True)
class TridiagonalPlan:
    """The elimination order of a symmetric tridiagonal system, level by level.

    A zero off-diagonal entry splits the system into independent blocks.
    Row ``k`` of a block is at level ``k``.  ``order`` lists the rows level
    by level, and within each level the blocks longest first (stably), so
    the blocks longer than ``k + 1`` are a prefix of those longer than
    ``k``.  ``coupling`` holds, at each row of ``order``, the off-diagonal
    entry to its predecessor in its block (0.0 at level 0).  ``levels`` has
    one pair of slices of ``order`` for each level ``k >= 1``: the rows at
    level ``k``, and their predecessors at level ``k - 1``, the first rows
    of that level.
    """

    order: np.ndarray
    coupling: np.ndarray
    levels: tuple[tuple[slice, slice], ...]


def tridiagonal_plan(off_diag) -> TridiagonalPlan:
    """The :class:`TridiagonalPlan` of a system with the off-diagonal ``off_diag``
    (of length n - 1).  Its arrays are read-only."""
    off = np.asarray(off_diag, dtype=float)
    n = off.shape[0] + 1
    starts = np.flatnonzero(np.concatenate(([True], off == 0.0)))
    lengths = np.diff(np.append(starts, n))
    by_length = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[by_length], lengths[by_length]
    # longer[k] = number of blocks with more than k rows
    longer = np.searchsorted(-lengths, -np.arange(lengths[0])).tolist()
    order = np.concatenate([starts[:count] + k for k, count in enumerate(longer)])
    bounds = np.cumsum([0] + longer).tolist()
    coupling = np.zeros(n)
    coupling[longer[0]:] = off[order[longer[0]:] - 1]
    levels = tuple((slice(bounds[k], bounds[k + 1]),
                    slice(bounds[k - 1], bounds[k - 1] + longer[k]))
                   for k in range(1, len(longer)))
    order.flags.writeable = coupling.flags.writeable = False
    return TridiagonalPlan(order, coupling, levels)


@dataclass
class ModelState:
    """All ratings and ascents as flat arrays, and what a fit never changes.

    Its climber and route indexes are those of the :class:`CleanDataset` it
    is built from, which keeps their ids and grades.  Period ``j`` of
    ``period_weeks`` and ``climber_ratings`` belongs to the climber
    ``period_owner[j]``, which does not decrease with ``j``; each climber's
    weeks are strictly increasing and each of its periods holds at least one
    ascent.  A climber without ascents owns no periods.  Route ``i`` has
    ``route_prior_means[i]`` and ``route_ratings[i]``.  The ascent arrays
    (``asc_*``) hold every ascent once, in canonical (climber, week, route,
    outcome) order: ``asc_flat_period`` indexes the climber's period,
    ``asc_route`` the route.  A fit changes only the ratings and the history.

    Construction makes ``period_owner`` read-only.  The fields after the
    history are read-only arrays that construction builds from the periods,
    ascents and hyperparameters; the ratings play no part.
    ``first_periods`` is each climber's first period.  ``hess_off`` is the
    climber Hessian's off-diagonal: at each period ``j`` whose next period
    ``j + 1`` belongs to the same climber, the random-walk precision between
    them, and 0 elsewhere.  ``climber_plan`` is the :func:`tridiagonal_plan`
    of ``hess_off``, by which every climber pass solves its system.
    ``sign`` is 1.0 at each ascent the climber won and -1.0 at each it lost,
    ``lost`` 0.0 and 1.0; ``period_wins`` counts each period's successes and
    ``route_losses`` each route's failures.
    """

    hyper: Hyperparameters
    period_owner: np.ndarray
    period_weeks: np.ndarray
    climber_ratings: np.ndarray
    route_prior_means: np.ndarray
    route_ratings: np.ndarray
    asc_flat_period: np.ndarray
    asc_route: np.ndarray
    asc_success: np.ndarray
    bt_log_likelihood_history: list[float] = field(default_factory=list)
    first_periods: np.ndarray = field(init=False)
    hess_off: np.ndarray = field(init=False)
    climber_plan: TridiagonalPlan = field(init=False)
    sign: np.ndarray = field(init=False)
    lost: np.ndarray = field(init=False)
    period_wins: np.ndarray = field(init=False)
    route_losses: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        owner = self.period_owner
        j = np.flatnonzero(owner[1:] == owner[:-1])
        # A climber's weeks strictly increase: its gaps are exact as uint64.
        gap = np.diff(self.period_weeks)[j].view(np.uint64)
        hess_off = np.zeros(max(len(owner) - 1, 0))
        hess_off[j] = 1.0 / np.maximum(gap * self.hyper.w_sq, MIN_WIENER_VARIANCE)
        self.climber_plan = tridiagonal_plan(hess_off)
        won = self.asc_success
        lost = (~won).astype(float)
        derived = dict(
            period_owner=owner,
            first_periods=np.flatnonzero(np.diff(owner, prepend=-1)),
            hess_off=hess_off,
            sign=1.0 - 2.0 * lost,
            lost=lost,
            period_wins=_sums(self.asc_flat_period, won.astype(float), len(owner)),
            route_losses=_sums(self.asc_route, lost, len(self.route_ratings)),
        )
        for name, array in derived.items():
            array.flags.writeable = False
            setattr(self, name, array)


def solve_tridiagonal(diag, rhs, plan: TridiagonalPlan) -> np.ndarray:
    """Solve a symmetric tridiagonal system by Thomas elimination.

    ``diag`` is the main diagonal and ``rhs`` the right-hand side, both of
    length n.  The off-diagonal is the ``coupling`` of ``plan``, the
    :func:`tridiagonal_plan` of the system, and nothing else, so the system
    with ``-diag`` and ``-off_diag`` is solved as
    ``-solve_tridiagonal(diag, rhs, plan)``.  Linear time, no pivoting:
    intended for the definite systems produced by the climber updates, where
    elimination without pivoting is stable.

    The rows are put in the plan's level order, so step ``k`` of the sweep
    is one update of the contiguous level ``k``, in every block longer than
    ``k`` at once, with the same arithmetic as eliminating each block on its
    own.
    """
    n = plan.order.shape[0]  # a plan has a row, so no empty system matches it
    if np.shape(diag)[0] != n or np.shape(rhs)[0] != n:
        raise ValueError("plan does not match the system")
    order, coupling = plan.order, plan.coupling
    d = np.asarray(diag, dtype=float)[order]
    b = np.asarray(rhs, dtype=float)[order]
    for row, before in plan.levels:
        pivot = d[before]
        if not pivot.all():
            raise np.linalg.LinAlgError("singular tridiagonal system")
        m = coupling[row] / pivot
        d[row] -= m * coupling[row]
        b[row] -= m * b[before]
    if not d.all():
        raise np.linalg.LinAlgError("singular tridiagonal system")
    # Back substitution turns b into the solution in place, top level first
    # (the rows of a level that the next level does not continue end their
    # blocks), and d's buffer takes it back to row order: one more array of
    # n rows per call raised the peak RSS of crossval on 157k ascents by
    # about 0.7 MB.
    top = plan.levels[-1][0] if plan.levels else slice(None)
    b[top] /= d[top]
    for row, before in reversed(plan.levels):
        ended = slice(before.stop, row.start)
        b[ended] /= d[ended]
        b[before] = (b[before] - coupling[row] * b[row]) / d[before]
    d[order] = b
    return d


def initialize_state(dataset: CleanDataset, hyper: Hyperparameters = Hyperparameters()) -> ModelState:
    """Build the optimizer state: climbers at 0, routes at their prior means.

    Ascents are put into a canonical (climber, week, route, outcome) order so
    the result is independent of input row order.  The order is the
    ``np.argsort`` of the four columns packed into one int64 key; rows with
    equal keys are equal, so the sort need not be stable.  A dataset whose
    key range does not fit in int64 is ordered by ``np.lexsort`` instead.
    """
    n_asc = len(dataset)
    if n_asc == 0:
        raise EmptyDatasetError("dataset contains no ascents", {})

    climber_idx, route_idx, week, success = (
        dataset.climber.astype(np.int64, copy=False), dataset.route.astype(np.int64, copy=False),
        dataset.week.astype(np.int64, copy=False), dataset.success)
    n_climbers = len(dataset.climber_ids)
    n_routes = len(dataset.route_ids)
    if (climber_idx.min() < 0 or climber_idx.max() >= n_climbers
            or route_idx.min() < 0 or route_idx.max() >= n_routes):
        raise ValueError("ascent indexes out of range of the entity tables")

    first_week = int(week.min())
    n_weeks = int(week.max()) - first_week + 1
    if n_climbers * n_weeks * n_routes * 2 <= 2**63:  # every key fits in int64
        order = np.argsort(((climber_idx * n_weeks + (week - first_week)) * n_routes
                            + route_idx) * 2 + success)
    else:
        order = np.lexsort((success, route_idx, week, climber_idx))
    climber_idx, route_idx, week, success = (
        climber_idx[order], route_idx[order], week[order], success[order])
    # A new rating period starts wherever the (climber, week) pair changes.
    new_period = np.ones(n_asc, dtype=bool)
    new_period[1:] = (climber_idx[1:] != climber_idx[:-1]) | (week[1:] != week[:-1])
    period_climber, period_weeks = climber_idx[new_period], week[new_period]
    flat_period = np.cumsum(new_period) - 1

    prior_means = route_prior_mean(dataset.route_grades, hyper)
    return ModelState(
        hyper=hyper, period_owner=period_climber, period_weeks=period_weeks,
        climber_ratings=np.zeros(len(period_weeks)), route_prior_means=prior_means,
        route_ratings=prior_means.copy(), asc_flat_period=flat_period, asc_route=route_idx,
        asc_success=success)


def _sums(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The sum of ``weights`` at each of the ``n`` values of ``index``, as floats.

    (``np.bincount`` returns integers for an empty ``index``.)
    """
    return np.bincount(index, weights, minlength=n).astype(float, copy=False)


def _observed(state: ModelState, margin: np.ndarray) -> np.ndarray:
    """Each ascent's winner's :func:`win_probabilities`, from the climber's
    ``margin`` over the route.  Multiplying by the outcome sign is exact."""
    return win_probabilities(margin * state.sign, 0.0)


def outcome_probabilities(state: ModelState) -> np.ndarray:
    """Each ascent's winner's :func:`win_probabilities`, by its rating margin over
    its loser: the probability of the observed outcome, strictly inside (0, 1)."""
    return _observed(state, state.climber_ratings[state.asc_flat_period]
                     - state.route_ratings[state.asc_route])


def _climber_win_probabilities(state: ModelState, outcome_p: np.ndarray) -> np.ndarray:
    """Each ascent's climber's win probability, from :func:`outcome_probabilities`.

    ``lost + sign * p`` is ``p`` or ``1.0 - p`` exactly, without a branch.
    """
    return state.lost + state.sign * outcome_p


def climber_derivatives(state: ModelState, outcome_p: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian diagonal of the log posterior in every climber rating.

    ``outcome_p`` is :func:`outcome_probabilities` at the state.  Returns
    ``(grad, hess_diag)`` over the flat rating periods.  The Hessian is
    tridiagonal, and its off-diagonal is the state's read-only
    :attr:`ModelState.hess_off`, which no rating changes.  Each period holds
    its ascents' Bradley-Terry terms, each climber's first period the
    initial-rating prior, and consecutive periods of one climber the
    random-walk coupling.
    """
    r = state.climber_ratings
    n = r.shape[0]
    idx = state.asc_flat_period
    p = _climber_win_probabilities(state, outcome_p)
    grad = state.period_wins - _sums(idx, p, n)
    hess = -_sums(idx, p * (1.0 - p), n)

    first, off = state.first_periods, state.hess_off
    grad[first] -= r[first] / state.hyper.sigma_c_sq
    hess[first] -= 1.0 / state.hyper.sigma_c_sq
    # hess_off is 0 between climbers, where these terms add an exact +/-0
    pull = (r[1:] - r[:-1]) * off
    grad[:-1] += pull
    grad[1:] -= pull
    hess[:-1] -= off
    hess[1:] -= off
    return grad, hess


def route_derivatives(state: ModelState, outcome_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and (diagonal) Hessian of the log posterior in every route rating.

    ``outcome_p`` is :func:`outcome_probabilities` at the state.  A route
    "wins" each ascent its climber fails.  Only the prior acts on a route
    with no ascents.
    """
    route = state.asc_route
    ratings = state.route_ratings
    n = ratings.shape[0]
    q = 1.0 - _climber_win_probabilities(state, outcome_p)
    d1 = (state.route_losses - _sums(route, q, n)
          - (ratings - state.route_prior_means) / state.hyper.sigma_r_sq)
    d2 = -_sums(route, q * (1.0 - q), n) - 1.0 / state.hyper.sigma_r_sq
    return d1, d2


def _climber_log_posteriors(state: ModelState, r: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """At each period, the log posterior terms of its climber at ratings ``r``:
    ascents (from their ``log_p``), prior and random walk."""
    first = state.first_periods
    terms = _sums(state.asc_flat_period, log_p, r.shape[0])
    terms[first] -= r[first] ** 2 / (2.0 * state.hyper.sigma_c_sq)
    terms[:-1] -= (r[1:] - r[:-1]) ** 2 * state.hess_off / 2.0
    owner = state.period_owner  # does not decrease, so its last entry is its largest
    return _sums(owner, terms, owner[-1] + 1)[owner]


def _route_log_posteriors(state: ModelState, ratings: np.ndarray, log_p: np.ndarray
                          ) -> np.ndarray:
    """At each route, its log posterior terms at ``ratings``: ascents (from
    their ``log_p``) and prior."""
    return (_sums(state.asc_route, log_p, ratings.shape[0])
            - (ratings - state.route_prior_means) ** 2 / (2.0 * state.hyper.sigma_r_sq))


def _ascend(state: ModelState, ratings: np.ndarray, step: np.ndarray, log_p: np.ndarray,
            observed, log_posteriors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ratings`` moved by ``step``, with :func:`outcome_probabilities` there and their log.

    ``observed(trial)`` gives the outcome probabilities at trial ratings, and
    ``log_posteriors(state, ratings, log_p)`` each entity's log posterior;
    ``log_p`` is at ``ratings``.  Each entity's step is halved until its log
    posterior, which depends on its own ratings only, does not fall; a step
    that rounds to nothing passes.
    """
    before = log_posteriors(state, ratings, log_p)
    while True:
        trial = ratings + step
        trial_p = observed(trial)
        trial_log_p = np.log(trial_p)
        fell = log_posteriors(state, trial, trial_log_p) < before
        if not fell.any():
            return trial, trial_p, trial_log_p
        step = np.where(fell, step / 2.0, step)


def climber_pass(state: ModelState, outcome_p: np.ndarray, log_p: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One whole-history Newton step for every climber, from ``outcome_p`` at the
    state and its ``log_p``.

    All systems of :func:`climber_derivatives` are solved by one call of
    :func:`solve_tridiagonal`.  Returns the ratings that :func:`_ascend`
    reaches along these steps, with the outcome probabilities there and
    their log; the state is not mutated.
    """
    grad, hess = climber_derivatives(state, outcome_p)
    opponents = state.route_ratings[state.asc_route]
    step = -solve_tridiagonal(hess, grad, state.climber_plan)
    return _ascend(state, state.climber_ratings, step, log_p,
                   lambda trial: _observed(state, trial[state.asc_flat_period] - opponents),
                   _climber_log_posteriors)


def route_pass(state: ModelState, outcome_p: np.ndarray, log_p: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One scalar Newton step for every route, from ``outcome_p`` at the state
    and its ``log_p``.

    Returns the ratings that :func:`_ascend` reaches along these steps, with
    the outcome probabilities there and their log; a route with no ascents
    steps to its prior mean.
    """
    d1, d2 = route_derivatives(state, outcome_p)
    opponents = state.climber_ratings[state.asc_flat_period]
    return _ascend(state, state.route_ratings, -d1 / d2, log_p,
                   lambda trial: _observed(state, opponents - trial[state.asc_route]),
                   _route_log_posteriors)


def fit(
    dataset: CleanDataset,
    hyper: Hyperparameters = Hyperparameters(),
    max_iterations: int = MAX_ITERATIONS,
    *,
    convergence_span: float = 1.0,
) -> tuple[ModelState, FitReport]:
    """Fit climber and route ratings by coordinate Newton ascent.

    Every outer iteration runs :func:`climber_pass` (against the route
    ratings from the previous iteration), then :func:`route_pass` (against
    the just-updated climber ratings), then records the Bradley-Terry
    marginal log-likelihood.  The model is evaluated once per point: the
    :func:`outcome_probabilities` and their log that each pass returns are
    carried to the next pass, and the route pass's log gives the recorded
    likelihood.  The state's read-only fields are built once, by
    :func:`initialize_state`, so a trial point costs one gather of the side
    that moved, one :func:`win_probabilities` call, one ``np.log`` and the
    per-entity sums; an iteration without halving calls :func:`win_probabilities` twice and
    :func:`solve_tridiagonal` once.  No pass lowers the log posterior.  The
    fit is converged once the last ``CONVERGENCE_WINDOW + 1`` recorded
    likelihoods span at most ``convergence_span``; otherwise it stops at
    ``max_iterations``.  Entities that have no ascents (possible in
    cross-validation subsets) are left at their prior means.

    Returns the final state and a report (iterations run, convergence flag,
    final likelihood).
    """
    if max_iterations < CONVERGENCE_WINDOW:
        raise ValueError(f"max_iterations must be at least {CONVERGENCE_WINDOW}, "
                         f"got {max_iterations}")

    state = initialize_state(dataset, hyper)
    outcome_p = outcome_probabilities(state)
    log_p = np.log(outcome_p)
    history = state.bt_log_likelihood_history
    converged = False
    for iterations in range(1, max_iterations + 1):
        state.climber_ratings, outcome_p, log_p = climber_pass(state, outcome_p, log_p)
        state.route_ratings, outcome_p, log_p = route_pass(state, outcome_p, log_p)
        history.append(float(log_p.sum()))
        if len(history) > CONVERGENCE_WINDOW:
            recent = history[-(CONVERGENCE_WINDOW + 1):]
            if max(recent) - min(recent) <= convergence_span:
                converged = True
                break
    return state, FitReport(iterations, converged, history[-1])
