"""Newton optimizer for the MAP ratings of the dynamic paired-comparison model.

A fit starts with a few coordinate passes.  A climber pass takes one Newton
step for every climber, over the climber's whole rating history, using the
tridiagonal Hessian induced by the random-walk coupling between consecutive
periods; a route pass takes one scalar Newton step for every route.  Climber
blocks never read other climbers and route updates never read other routes,
so each pass is computed at once over flat arrays: the climber Hessians
form one block-tridiagonal system, solved in a single sweep, and the route
steps are elementwise.  The gradient and Hessian of the log posterior come
from :func:`climber_derivatives` and :func:`route_derivatives`; the
random-walk terms act on whole slices through the Hessian off-diagonal,
which is 0 between climbers.

The passes converge slowly where climbers and routes pull on each other, so
the fit then takes Newton steps on all ratings at once: conjugate gradients
on the whole Hessian, preconditioned by the passes' own block solves.  It
stops at the MAP, once no rating's block-Jacobi step exceeds
``STEP_TOLERANCE`` (see :func:`fit`).

Every step of a fit is accepted by one rule, :func:`_ascend`: each entity's
step is halved until that entity's own log posterior falls by no more than
its rounding.  In a pass the entities are the climbers or the routes; a
step on all ratings at once is one entity.  So no step lowers the log
posterior by more than its rounding.

What does not change during a fit is built once, when
:func:`initialize_state` sorts the ascents and constructs the
:class:`ModelState`, as its read-only fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDatasetError
from .ingest import CleanDataset
from .model import Hyperparameters, clamp_shortfall, route_prior_mean, win_probabilities

# Floor on the drift variance between adjacent periods.  Only reachable with
# w_sq == 0 (weeks within a climber are strictly increasing); the near-rigid
# coupling then pins the climber's periods to a common value.
MIN_WIENER_VARIANCE = 1e-12

# A converged fit's last CONVERGENCE_WINDOW + 1 recorded BT log-likelihoods
# span less than WINDOW_SPAN units (see :func:`fit`).  The window is also the
# least iteration budget, which never converges: that takes one more.
CONVERGENCE_WINDOW = 8
WINDOW_SPAN = 1.0
MAX_ITERATIONS = 1000  # the default iteration budget of every fit
# Coordinate pass pairs before the Newton-CG steps.  In-process fits on the
# benchmark's cleaned logs (medians of 7 runs, alternating K, on a 2-core VM)
# took 204/207/206 ms at K = 4/2/3 on the 157k-ascent level-matched log,
# where the span-only fit of 26 pass pairs took 344 ms, and 17-20 ms at each
# K from 2 to 5 on the 20k-ascent uniform log.
K_COORDINATE_PASSES = 4
# A fit stops when no rating's block-Jacobi step is larger than this.  The
# step is scale-free, unlike the gradient: at w_sq == 0 the random-walk
# precision of 1e12 turns rounding in a rating difference into about 1e-4
# of gradient, but not into step.  There the ratings were up to 1.5 times
# the step from the MAP, so the tolerance is well below the 1e-8 to which
# the tests check them.
STEP_TOLERANCE = 1e-9
# The log posterior's terms are all at most 0, so its rounding is within
# this many ulps of its magnitude; :func:`_ascend` forgives that much.
ROUNDING_ULPS = 16.0


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
    ``sign`` is 1.0 at each ascent the climber won and -1.0 at each it lost.
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

    def __post_init__(self) -> None:
        owner = self.period_owner
        j = np.flatnonzero(owner[1:] == owner[:-1])
        # A climber's weeks strictly increase: its gaps are exact as uint64.
        gap = np.diff(self.period_weeks)[j].view(np.uint64)
        hess_off = np.zeros(max(len(owner) - 1, 0))
        hess_off[j] = 1.0 / np.maximum(gap * self.hyper.w_sq, MIN_WIENER_VARIANCE)
        self.climber_plan = tridiagonal_plan(hess_off)
        derived = dict(
            period_owner=owner,
            first_periods=np.flatnonzero(np.diff(owner, prepend=-1)),
            hess_off=hess_off,
            sign=2.0 * self.asc_success - 1.0,
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


def _observed(state: ModelState, climber_r: np.ndarray, route_r: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Each ascent's winner's :func:`win_probabilities` at the climber ratings
    ``climber_r`` and route ratings ``route_r``, and its log.  Multiplying the
    climber's margin by the outcome sign is exact, and :func:`clamp_shortfall`
    makes the log exact beyond the clamp."""
    margin = (climber_r[state.asc_flat_period] - route_r[state.asc_route]) * state.sign
    outcome_p = win_probabilities(margin, 0.0)
    log_p = np.log(outcome_p)
    log_p += clamp_shortfall(margin)
    return outcome_p, log_p


def outcome_probabilities(state: ModelState) -> tuple[np.ndarray, np.ndarray]:
    """Each ascent's winner's :func:`win_probabilities`, by its rating margin over
    its loser: the probability of the observed outcome, strictly inside (0, 1),
    and the log-likelihood of that outcome (see :func:`_observed`)."""
    return _observed(state, state.climber_ratings, state.route_ratings)


def _ascent_terms(state: ModelState, outcome_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each ascent's log-likelihood slope ``sign * (1 - p)`` and curvature ``p * (1 - p)``
    in its climber's rating, from ``outcome_p``, the probability p of its observed
    outcome.  In its route's rating it has the opposite slope and the same
    curvature, whichever side won, so no outcome is selected."""
    rest = 1.0 - outcome_p
    return state.sign * rest, outcome_p * rest


def climber_derivatives(state: ModelState, outcome_p: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian diagonal of the log posterior in every climber rating.

    ``outcome_p`` is the first of :func:`outcome_probabilities` at the
    state.  Returns ``(grad, hess_diag)`` over the flat rating periods.  The
    Hessian is tridiagonal, and its off-diagonal is the state's read-only
    :attr:`ModelState.hess_off`, which no rating changes.  Each period holds
    its ascents' Bradley-Terry terms, each climber's first period the
    initial-rating prior, and consecutive periods of one climber the
    random-walk coupling.
    """
    r = state.climber_ratings
    n = r.shape[0]
    idx = state.asc_flat_period
    slope, curvature = _ascent_terms(state, outcome_p)
    grad = _sums(idx, slope, n)
    hess = -_sums(idx, curvature, n)

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

    ``outcome_p`` is the first of :func:`outcome_probabilities` at the
    state.  A route "wins" each ascent its climber fails.  Only the prior
    acts on a route with no ascents.
    """
    route = state.asc_route
    ratings = state.route_ratings
    n = ratings.shape[0]
    slope, curvature = _ascent_terms(state, outcome_p)
    d1 = -_sums(route, slope, n) - (ratings - state.route_prior_means) / state.hyper.sigma_r_sq
    d2 = -_sums(route, curvature, n) - 1.0 / state.hyper.sigma_r_sq
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
    """``ratings`` moved by ``step``, with the :func:`outcome_probabilities` there.

    ``observed(trial)`` gives the outcome probabilities at trial ratings and
    their log, and ``log_posteriors(state, ratings, log_p)`` each entity's
    log posterior, or the whole log posterior as one entity; ``log_p`` is at
    ``ratings``.  Each entity's step is halved until its log posterior,
    which depends on its own ratings only, falls by no more than
    ``ROUNDING_ULPS`` ulps of its magnitude.  The model is evaluated once
    per trial, and a step that halves to nothing passes.
    """
    before = log_posteriors(state, ratings, log_p)
    floor = before - ROUNDING_ULPS * np.finfo(float).eps * np.abs(before)
    while True:
        trial = ratings + step
        trial_p, trial_log_p = observed(trial)
        fell = log_posteriors(state, trial, trial_log_p) < floor
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
    step = -solve_tridiagonal(hess, grad, state.climber_plan)
    return _ascend(state, state.climber_ratings, step, log_p,
                   lambda trial: _observed(state, trial, state.route_ratings),
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
    return _ascend(state, state.route_ratings, -d1 / d2, log_p,
                   lambda trial: _observed(state, state.climber_ratings, trial),
                   _route_log_posteriors)


def _log_posterior(state: ModelState, ratings: np.ndarray, log_p: np.ndarray) -> np.float64:
    """The log posterior at ``ratings``, the climber ratings followed by the
    route ratings, from the log-likelihoods of :func:`outcome_probabilities`
    there.  No term is positive."""
    first, hyper = state.first_periods, state.hyper
    climber_r, route_r = np.split(ratings, [state.period_owner.shape[0]])
    return (log_p.sum() - (climber_r[first] ** 2).sum() / (2.0 * hyper.sigma_c_sq)
            - ((climber_r[1:] - climber_r[:-1]) ** 2 * state.hess_off).sum() / 2.0
            - ((route_r - state.route_prior_means) ** 2).sum() / (2.0 * hyper.sigma_r_sq))


def _block_jacobi(state: ModelState, hess: np.ndarray, d2: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The block-Jacobi solve of ``-H x = r``, ``r`` over the climber then the route
    ratings: each climber's block by :func:`solve_tridiagonal` on its Hessian
    diagonal ``hess``, and each route by its curvature ``d2``."""
    n = hess.shape[0]
    return np.concatenate((-solve_tridiagonal(hess, r[:n], state.climber_plan), -r[n:] / d2))


def _newton_cg(state: ModelState, outcome_p: np.ndarray, hess: np.ndarray, d2: np.ndarray,
               gradient: np.ndarray, start: np.ndarray) -> np.ndarray:
    """An inexact Newton step on all ratings: preconditioned CG on ``-H d = gradient``.

    ``gradient`` is the climber gradient followed by the route gradient, ``hess``
    and ``d2`` the Hessian diagonals of :func:`climber_derivatives` and
    :func:`route_derivatives`.  The preconditioner is :func:`_block_jacobi`,
    and CG starts from ``start``, that solve of the gradient.  It stops once
    the residual is at most ``min(0.5, sqrt(max|gradient|))`` times the
    gradient in norm, or after one iteration per rating.  In ``-H``, each
    ascent couples its climber period and its route by minus its curvature
    (see :func:`_ascent_terms`), and the random walk couples consecutive
    periods by ``-hess_off``.
    """
    n = hess.shape[0]
    period, route, off = state.asc_flat_period, state.asc_route, state.hess_off
    _, w = _ascent_terms(state, outcome_p)
    diagonal = -np.concatenate((hess, d2))

    def coupling(v):  # minus the product of -H's climber-route blocks with v
        return np.concatenate((_sums(period, w * v[n:][route], n),
                               _sums(route, w * v[:n][period], d2.shape[0])))

    def product(v):
        out = diagonal * v - coupling(v)
        out[:n - 1] -= off * v[1:n]
        out[1:n] -= off * v[:n - 1]
        return out

    step = start
    # start solves the block-diagonal part exactly, so the residual is the coupling's
    residual = coupling(start)
    bound = min(0.5, np.sqrt(np.abs(gradient).max())) * np.linalg.norm(gradient)
    direction, rho = np.zeros_like(step), 1.0
    for _ in range(step.shape[0]):  # exact CG would end within this many
        if np.linalg.norm(residual) <= bound:
            break
        z = _block_jacobi(state, hess, d2, residual)
        rho, previous = residual @ z, rho
        direction = z + (rho / previous) * direction
        q = product(direction)
        alpha = rho / (direction @ q)
        step = step + alpha * direction
        residual = residual - alpha * q
    return step


def fit(
    dataset: CleanDataset,
    hyper: Hyperparameters = Hyperparameters(),
    max_iterations: int = MAX_ITERATIONS,
) -> tuple[ModelState, FitReport]:
    """Fit climber and route ratings to the MAP: coordinate passes, then Newton-CG.

    The first ``K_COORDINATE_PASSES`` iterations each run
    :func:`climber_pass` (against the route ratings of the previous
    iteration), then :func:`route_pass` (against the just-updated climber
    ratings).  Every later iteration starts by measuring the block-Jacobi
    step: each climber's whole-history Newton step and each route's scalar
    Newton step, all from one point.  While a rating's step is larger than
    ``STEP_TOLERANCE``, the iteration replaces it by an inexact Newton step
    on all ratings at once: preconditioned CG (:func:`_newton_cg`) from the
    block-Jacobi step.  Once no step is larger than ``STEP_TOLERANCE`` the
    ratings are the MAP to within it, and the fit is converged if the last
    ``CONVERGENCE_WINDOW + 1`` recorded likelihoods also span less than
    ``WINDOW_SPAN``; until they do, each iteration takes the block-Jacobi
    step as it is.  Either step goes through :func:`_ascend` with all
    ratings as one entity, so it is halved until the log posterior falls by
    no more than its rounding.  Every iteration records the Bradley-Terry
    marginal log-likelihood of the point it reaches.  A fit that fails the
    stop test at its ``max_iterations``-th point stops unconverged.

    The model is evaluated once per point: the
    :func:`outcome_probabilities` and their log at each point reached are
    carried to the next iteration, and their log gives the recorded
    likelihood.  A fit calls :func:`win_probabilities` once, then once per
    trial of a step, which is twice per pass pair and once per later
    iteration if no step halves; it calls :func:`solve_tridiagonal` once
    per pass pair, once per block-Jacobi step measured and once per CG
    iteration.  No step lowers the log posterior by more than its rounding.
    Entities that have no ascents (possible in cross-validation subsets)
    are left at their prior means.

    Returns the final state and a report (iterations run, convergence flag,
    final likelihood).
    """
    if max_iterations < CONVERGENCE_WINDOW:
        raise ValueError(f"max_iterations must be at least {CONVERGENCE_WINDOW}, "
                         f"got {max_iterations}")

    state = initialize_state(dataset, hyper)
    outcome_p, log_p = outcome_probabilities(state)
    history = state.bt_log_likelihood_history
    for _ in range(K_COORDINATE_PASSES):
        state.climber_ratings, outcome_p, log_p = climber_pass(state, outcome_p, log_p)
        state.route_ratings, outcome_p, log_p = route_pass(state, outcome_p, log_p)
        history.append(float(log_p.sum()))

    n = state.climber_ratings.shape[0]
    while True:
        grad, hess = climber_derivatives(state, outcome_p)
        d1, d2 = route_derivatives(state, outcome_p)
        gradient = np.concatenate((grad, d1))
        step = _block_jacobi(state, hess, d2, gradient)
        recent = history[-(CONVERGENCE_WINDOW + 1):]
        large = np.abs(step).max() > STEP_TOLERANCE
        converged = (not large and len(recent) > CONVERGENCE_WINDOW
                     and max(recent) - min(recent) < WINDOW_SPAN)
        if converged or len(history) >= max_iterations:
            break
        if large:
            step = _newton_cg(state, outcome_p, hess, d2, gradient, step)
        ratings, outcome_p, log_p = _ascend(
            state, np.concatenate((state.climber_ratings, state.route_ratings)), step, log_p,
            lambda trial: _observed(state, trial[:n], trial[n:]), _log_posterior)
        state.climber_ratings, state.route_ratings = ratings[:n], ratings[n:]
        history.append(float(log_p.sum()))
    return state, FitReport(len(history), converged, history[-1])
