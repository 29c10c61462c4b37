"""Optimizer tests.

Oracles used here, all independent of the solver's own code path:
  * dense ``np.linalg.solve`` on explicitly assembled matrices (tridiagonal
    solves, whole-history Newton steps, Newton's method on all ratings for
    the MAP),
  * 1-D grid search over the written-out log posterior (route fixed point),
  * hand-written gradient formulas for the stationarity check.
"""

import inspect
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cragrank import solver
from cragrank.errors import EmptyDatasetError
from cragrank.ingest import CleanDataset, preprocess
from cragrank.model import Hyperparameters, win_probabilities
from cragrank.solver import (
    ModelState,
    climber_derivatives,
    climber_pass,
    fit,
    initialize_state,
    outcome_probabilities,
    route_derivatives,
    route_pass,
    solve_tridiagonal,
    tridiagonal_plan,
)
from cragrank.synthetic import generate_world, raw_ascent_log
from helpers import F, S, make_dataset, random_dataset, simulate_ascents


def evaluated(state):
    """What a pass takes: the outcome probabilities at the state, and their log."""
    outcome_p = outcome_probabilities(state)
    return outcome_p, np.log(outcome_p)


def one_one_fixture():
    """One climber, one route, one period: 3 successes, 2 failures."""
    ascents = [(0, 0, 0, S)] * 3 + [(0, 0, 0, F)] * 2
    return make_dataset(ascents, n_routes=1, n_climbers=1)


@st.composite
def ascent_logs(draw):
    """(ascents, n_climbers, n_routes): small logs with repeated rows, unused
    climbers and routes, and weeks near 0, near a large or negative base, or
    anywhere in int64."""
    n_climbers, n_routes = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    base = draw(st.sampled_from([0, -9, 2**40, -2**62]))
    week = st.one_of(st.integers(-3, 3).map(lambda w: base + w),
                     st.integers(-2**63, 2**63 - 1))
    ascents = draw(st.lists(st.tuples(st.integers(0, n_climbers - 1),
                                      st.integers(0, n_routes - 1), week, st.booleans()),
                            min_size=1, max_size=25))
    return ascents, n_climbers + draw(st.integers(0, 2)), n_routes + draw(st.integers(0, 2))


def lexsort_reference(ds):
    """The constructor arrays of ``initialize_state(ds)``, from one ``np.lexsort``
    of the four columns."""
    order = np.lexsort((ds.success, ds.route, ds.week, ds.climber))
    climber, route, week, success = (ds.climber[order], ds.route[order], ds.week[order],
                                     ds.success[order])
    new_period = np.ones(len(ds), dtype=bool)
    new_period[1:] = (climber[1:] != climber[:-1]) | (week[1:] != week[:-1])
    return dict(period_owner=climber[new_period], period_weeks=week[new_period],
                climber_ratings=np.zeros(int(new_period.sum())),
                asc_flat_period=np.cumsum(new_period) - 1, asc_route=route, asc_success=success)


def per_block_thomas(diag, off, rhs):
    """Thomas elimination of each block between zero off-diagonal entries on
    its own, one row at a time in Python floats."""
    n = len(diag)
    x = np.empty(n)
    cuts = [0] + [k + 1 for k in range(n - 1) if off[k] == 0.0] + [n]
    for lo, hi in zip(cuts, cuts[1:]):
        d, b = [float(v) for v in diag[lo:hi]], [float(v) for v in rhs[lo:hi]]
        c = [float(v) for v in off[lo:hi - 1]]
        for i in range(1, hi - lo):
            m = c[i - 1] / d[i - 1]
            d[i] -= m * c[i - 1]
            b[i] -= m * b[i - 1]
        x[hi - 1] = b[-1] / d[-1]
        for i in range(hi - lo - 2, -1, -1):
            x[lo + i] = (b[i] - c[i] * x[lo + i + 1]) / d[i]
    return x


def climber_blocks(ds, state):
    """(lo, hi) bounds of each of ``ds``'s climbers' slices of the flat period arrays."""
    bounds = np.searchsorted(state.period_owner, np.arange(len(ds.climber_ids) + 1))
    return [(int(bounds[c]), int(bounds[c + 1])) for c in range(len(ds.climber_ids))]


def log_posterior_gradient(ds, state):
    """Per-coordinate gradient of log f at ``state``, built from ``ds``, written
    out from the model formulas.

    Returns (flat climber gradient array, per-route gradient array).
    """
    hyper = state.hyper
    r = state.climber_ratings
    route_r = state.route_ratings
    climber_grad = np.zeros(r.shape[0])
    prior_means = hyper.b * (ds.route_grades - hyper.g0)
    route_grad = -(route_r - prior_means) / hyper.sigma_r_sq
    for period, route, success in zip(state.asc_flat_period, state.asc_route, state.asc_success):
        p = 1.0 / (1.0 + math.exp(-(r[period] - route_r[route])))
        climber_grad[period] += (1.0 if success else 0.0) - p
        route_grad[route] += (0.0 if success else 1.0) - (1.0 - p)
    weeks = state.period_weeks
    for lo, hi in climber_blocks(ds, state):
        if lo == hi:
            continue
        climber_grad[lo] -= r[lo] / hyper.sigma_c_sq
        for k in range(lo + 1, hi):
            v = (weeks[k] - weeks[k - 1]) * hyper.w_sq
            climber_grad[k] -= (r[k] - r[k - 1]) / v
            climber_grad[k - 1] += (r[k] - r[k - 1]) / v
    return climber_grad, route_grad


def log_posterior(ds, state):
    """The log posterior at the ratings of ``state``, built from ``ds``, written
    out from the model formulas."""
    hyper = state.hyper
    r = state.climber_ratings
    route_r = state.route_ratings
    margin = r[state.asc_flat_period] - route_r[state.asc_route]
    total = -np.logaddexp(0.0, np.where(state.asc_success, -margin, margin)).sum()
    prior_means = hyper.b * (ds.route_grades - hyper.g0)
    total -= ((route_r - prior_means) ** 2).sum() / (2.0 * hyper.sigma_r_sq)
    weeks = state.period_weeks
    for lo, hi in climber_blocks(ds, state):
        if lo == hi:
            continue
        total -= r[lo] ** 2 / (2.0 * hyper.sigma_c_sq)
        for k in range(lo + 1, hi):
            total -= (r[k] - r[k - 1]) ** 2 / (2.0 * (weeks[k] - weeks[k - 1]) * hyper.w_sq)
    return total


def random_clean_log(seed):
    """A small log with random hyperparameters, cleaned by :func:`preprocess`."""
    rng = np.random.default_rng(seed)
    while True:
        n_climbers, n_routes = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        n = int(rng.integers(4, 81))
        hyper = Hyperparameters(
            sigma_c_sq=float(rng.uniform(0.2, 5.0)), sigma_r_sq=float(rng.uniform(0.5, 10.0)),
            w_sq=float(rng.uniform(0.001, 0.5)), g0=int(rng.integers(16, 29)),
            b=float(rng.uniform(0.1, 0.8)),
        )
        try:
            ds = preprocess(raw_ascent_log(
                [f"c{i}" for i in range(n_climbers)], [f"r{i}" for i in range(n_routes)],
                rng.integers(10, 37, size=n_routes), rng.integers(0, n_climbers, size=n),
                rng.integers(0, n_routes, size=n), rng.integers(0, 20, size=n),
                rng.random(n) < rng.uniform(0.3, 0.97),
            ))
        except EmptyDatasetError:
            continue
        return ds, hyper


def dense_climber_step(ds, state):
    """Newton step of every climber history from a dense Hessian.

    The gradient and the Hessian over all flat periods are assembled term by
    term from the model formulas (entries between climbers stay 0) and
    solved with ``np.linalg.solve``.
    """
    hyper = state.hyper
    r = state.climber_ratings
    route_r = state.route_ratings
    n = r.shape[0]
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for period, route, success in zip(state.asc_flat_period, state.asc_route, state.asc_success):
        p = 1.0 / (1.0 + math.exp(-(r[period] - route_r[route])))
        grad[period] += (1.0 if success else 0.0) - p
        hess[period, period] += -p * (1.0 - p)
    weeks = state.period_weeks
    for lo, hi in climber_blocks(ds, state):
        if lo == hi:
            continue
        grad[lo] += -r[lo] / hyper.sigma_c_sq
        hess[lo, lo] += -1.0 / hyper.sigma_c_sq
        for k in range(lo + 1, hi):
            v = (weeks[k] - weeks[k - 1]) * hyper.w_sq
            dr = r[k] - r[k - 1]
            grad[k] -= dr / v
            grad[k - 1] += dr / v
            hess[k, k] -= 1.0 / v
            hess[k - 1, k - 1] -= 1.0 / v
            hess[k, k - 1] += 1.0 / v
            hess[k - 1, k] += 1.0 / v
    delta = np.linalg.solve(hess, grad)
    return r - delta


def randomize_ratings(state, rng):
    """Move the state to a random point so that Newton steps are non-trivial."""
    state.climber_ratings = rng.uniform(-2, 2, size=state.climber_ratings.shape)
    state.route_ratings = rng.uniform(-2, 2, size=state.route_ratings.shape)


def random_blocked_system(rng):
    """A definite tridiagonal system whose zero couplings split it into blocks."""
    n = int(rng.integers(1, 40))
    off = rng.uniform(-2.0, 2.0, size=n - 1)
    off[rng.random(n - 1) < rng.uniform(0.0, 0.6)] = 0.0
    diag = -(np.abs(np.append(off, 0.0)) + np.abs(np.insert(off, 0, 0.0))
             + rng.uniform(0.1, 3.0, size=n))
    return diag, off, rng.uniform(-5.0, 5.0, size=n)


def dense_tridiagonal(diag, off):
    dense = np.diag(diag)
    if len(diag) > 1:
        dense += np.diag(off, 1) + np.diag(off, -1)
    return dense


class TestSolveTridiagonal:
    def test_against_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            off = rng.uniform(-2.0, 2.0, size=n - 1)
            # zero entries split the system into blocks solved side by side
            off[rng.random(n - 1) < 0.3] = 0.0
            diag = -(
                np.concatenate([np.abs(off), [0.0]])
                + np.concatenate([[0.0], np.abs(off)])
                + rng.uniform(0.1, 3.0, size=n)
            )
            rhs = rng.uniform(-5.0, 5.0, size=n)
            expected = np.linalg.solve(dense_tridiagonal(diag, off), rhs)
            got = solve_tridiagonal(diag, rhs, tridiagonal_plan(off))
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_identity(self):
        out = solve_tridiagonal([1.0, 1.0, 1.0], [3.0, -2.0, 7.0], tridiagonal_plan([0.0, 0.0]))
        assert out == pytest.approx([3.0, -2.0, 7.0])

    def test_singular_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_tridiagonal([0.0], [1.0], tridiagonal_plan([]))

    def test_dimension_mismatch(self):
        plan = tridiagonal_plan([0.5, 0.5])
        for diag, rhs in (([1.0] * 3, [1.0] * 4), ([1.0] * 3, [1.0] * 2), ([1.0] * 4, [1.0] * 3)):
            with pytest.raises(ValueError, match="plan does not match the system"):
                solve_tridiagonal(diag, rhs, plan)

    def test_empty_system(self):
        with pytest.raises(ValueError):
            solve_tridiagonal([], [], tridiagonal_plan([]))

    def test_does_not_mutate_inputs(self):
        diag = np.array([-2.0, -2.0])
        off = np.array([0.5])
        rhs = np.array([1.0, 1.0])
        solve_tridiagonal(diag, rhs, tridiagonal_plan(off))
        assert (diag == [-2.0, -2.0]).all() and (rhs == [1.0, 1.0]).all()

    def test_takes_its_off_diagonal_from_the_plan_alone(self):
        # a second off-diagonal argument could disagree with the plan's coupling
        parameters = inspect.signature(solve_tridiagonal).parameters
        assert list(parameters) == ["diag", "rhs", "plan"]
        assert all(p.default is inspect.Parameter.empty for p in parameters.values())

    def test_planned_solve_matches_per_block_elimination(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            diag, off, rhs = random_blocked_system(rng)
            got = solve_tridiagonal(diag, rhs, tridiagonal_plan(off))
            assert got.tobytes() == per_block_thomas(diag, off, rhs).tobytes()

    def test_negated_system_gives_the_negated_solution(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            diag, off, rhs = random_blocked_system(rng)
            got = solve_tridiagonal(-diag, rhs, tridiagonal_plan(-off))
            negated = -solve_tridiagonal(diag, rhs, tridiagonal_plan(off))
            assert got.tobytes() == negated.tobytes()
            expected = np.linalg.solve(-dense_tridiagonal(diag, off), rhs)
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_negative_hessian_solve_on_a_fitted_state(self):
        # the climber block of -H, as a preconditioner applies it: the solve of
        # H's own system, negated, with the state's plan
        world = generate_world(30, 40, 6, (18, 28), seed=2)
        state, _ = fit(simulate_ascents(world, 6, seed=3))
        _, hess = climber_derivatives(state, outcome_probabilities(state))
        off = state.hess_off
        r = np.random.default_rng(4).normal(size=hess.shape[0])
        got = -solve_tridiagonal(hess, r, state.climber_plan)
        expected = np.linalg.solve(-dense_tridiagonal(hess, off), r)
        assert np.max(np.abs(got - expected)) < 1e-10

    @pytest.mark.parametrize("level", range(5))
    @pytest.mark.parametrize("last", [True, False], ids=["last-row", "pivot"])
    def test_zero_pivot_at_any_level_raises(self, level, last):
        # With unit couplings, rows 1, 2, 2, ..., 2, 1 eliminate to pivots 1, 1, ..., 1
        # and then exactly 0 at ``level``; the block ends there or goes on for two rows.
        block = [1.0] + [2.0] * (level - 1) + [1.0] if level else [0.0]
        block += [] if last else [3.0, 3.0]
        other = [4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0]  # a longer block beside it
        diag = np.array(other + block)
        off = np.array([1.0] * (len(other) - 1) + [0.0] + [1.0] * (len(block) - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                solve_tridiagonal(diag, np.ones(len(diag)), tridiagonal_plan(off))

    def test_plan_of_another_size_rejected(self):
        with pytest.raises(ValueError):
            solve_tridiagonal([1.0, 1.0], [1.0, 1.0], tridiagonal_plan([0.5, 0.5]))


class TestInitializeState:
    def test_prior_means(self):
        ds = make_dataset(
            [(0, 0, 0, F), (0, 1, 0, S)],
            n_routes=2, n_climbers=1, grades=[22, 25],
        )
        state = initialize_state(ds)
        assert state.route_ratings[0] == 0.0
        assert state.route_ratings[1] == pytest.approx(1.2)
        assert (state.route_prior_means == state.route_ratings).all()
        assert (state.climber_ratings == 0.0).all()

    def test_views_consistent(self):
        # the flat arrays reproduce the dataset's ascents as a multiset
        ds = random_dataset(np.random.default_rng(0))
        state = initialize_state(ds)
        flat = state.asc_flat_period
        got = sorted(zip(state.period_owner[flat].tolist(), state.period_weeks[flat].tolist(),
                         state.asc_route.tolist(), state.asc_success.tolist()))
        expected = sorted(zip(ds.climber.tolist(), ds.week.tolist(), ds.route.tolist(),
                              ds.success.tolist()))
        assert got == expected

    def test_climber_history_invariants(self):
        ds = random_dataset(np.random.default_rng(1))
        state = initialize_state(ds)
        owner = state.period_owner
        assert (np.diff(owner) >= 0).all()
        assert owner.min() >= 0 and owner.max() < len(ds.climber_ids)
        assert owner.shape == state.period_weeks.shape
        assert state.climber_ratings.shape == state.period_weeks.shape
        for lo, hi in climber_blocks(ds, state):
            assert (np.diff(state.period_weeks[lo:hi]) > 0).all()
        # every period has at least one ascent
        counts = np.bincount(state.asc_flat_period, minlength=owner.shape[0])
        assert (counts >= 1).all()

    def test_canonical_order(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng)
        order = rng.permutation(len(ds))
        shuffled = CleanDataset(ds.climber[order], ds.route[order], ds.week[order],
                                ds.success[order], ds.climber_ids, ds.route_ids,
                                ds.route_grades, ds.provenance)
        a = initialize_state(ds)
        b = initialize_state(shuffled)
        assert (a.asc_flat_period == b.asc_flat_period).all()
        assert (a.asc_route == b.asc_route).all()
        assert (a.asc_success == b.asc_success).all()

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            initialize_state(make_dataset([], 1, 1))

    @pytest.mark.parametrize("ascent", [(0, 5, 0, F), (0, -1, 0, F), (1, 0, 0, F),
                                        (-1, 0, 0, F)],
                             ids=["route-above", "route-negative", "climber-above",
                                  "climber-negative"])
    def test_out_of_range_index(self, ascent):
        with pytest.raises(ValueError, match="ascent indexes out of range"):
            initialize_state(make_dataset([(0, 0, 0, S), ascent], 1, 1))

    @settings(max_examples=300, deadline=None)
    @given(ascent_logs())
    @example(([(0, 0, 3, S), (0, 0, 3, S), (1, 0, 3, F), (0, 0, 3, S)], 3, 2))  # duplicate rows
    @example(([(0, 1, -2**63, F), (0, 0, 2**63 - 1, S)], 1, 2))  # key beyond int64
    @example(([(0, 0, 0, F), (0, 0, 2**62 - 1, S)], 1, 1))  # largest key that fits
    @example(([(0, 0, 0, F), (0, 0, 2**62, S)], 1, 1))  # smallest key range beyond int64
    def test_matches_lexsort_reference(self, log):
        ascents, n_climbers, n_routes = log
        ds = make_dataset(ascents, n_routes, n_climbers)
        state, expected = initialize_state(ds), lexsort_reference(ds)
        for name, array in expected.items():
            got = getattr(state, name)
            assert got.dtype == array.dtype and got.tobytes() == array.tobytes(), name

    def test_lexsort_only_when_the_key_overflows(self, monkeypatch):
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        # one climber on one route: the key range is 2 * (last week - first week + 1)
        for weeks, sorted_by_lexsort in (((0, 2**62 - 1), False), ((0, 2**62), True),
                                         ((-2**63, 2**63 - 1), True)):
            calls.clear()
            initialize_state(make_dataset([(0, 0, weeks[0], F), (0, 0, weeks[1], S)], 1, 1))
            assert bool(calls) is sorted_by_lexsort


class TestUpdateRoute:
    def test_balanced_record_stays_at_prior(self):
        ds = make_dataset(
            [(0, 0, 0, S), (1, 0, 0, F)],
            n_routes=1, n_climbers=2,
        )
        state = initialize_state(ds)
        assert route_pass(state, *evaluated(state))[0][0] == 0.0

    def test_one_failure_matches_grid_search(self):
        # climber pinned at 0; iterate the route to its fixed point
        ds = make_dataset([(0, 0, 0, F)], n_routes=1, n_climbers=1)
        state = initialize_state(ds)
        for _ in range(200):
            new, *_ = route_pass(state, *evaluated(state))
            if abs(new[0] - state.route_ratings[0]) < 1e-12:
                break
            state.route_ratings = new

        # grid-search oracle over the written-out log posterior:
        # log P(fail | climber 0, route r) = log logistic(r) = -log1p(e^-r)
        grid = np.arange(-10.0, 10.0001, 1e-4)
        log_f = -np.log1p(np.exp(-grid)) - grid**2 / 8.0
        best = grid[np.argmax(log_f)]
        assert best > 0.0  # a failure should push the route harder
        assert state.route_ratings[0] == pytest.approx(best, abs=1e-3)

    def test_all_success_moves_down(self):
        ds = make_dataset(
            [(0, 0, 0, S), (1, 0, 0, S)],
            n_routes=1, n_climbers=2,
        )
        state = initialize_state(ds)
        assert route_pass(state, *evaluated(state))[0][0] < 0.0

    def test_step_halved_until_the_posterior_does_not_fall(self):
        # 50 failures by a far-stronger climber: the flat curvature asks for
        # a jump of 200 that overshoots the optimum near 32 by far
        ds = make_dataset([(0, 0, 0, F)] * 50, n_routes=1, n_climbers=1)
        state = initialize_state(ds)
        state.climber_ratings[:] = 30.0
        outcome_p = outcome_probabilities(state)
        d1, d2 = route_derivatives(state, outcome_p)
        step = -d1[0] / d2[0]
        assert step == pytest.approx(200.0)

        def log_f(r):  # 50 route wins and the route prior at mean 0
            return -50.0 * math.log1p(math.exp(30.0 - r)) - r * r / 8.0

        halvings = next(k for k in range(60) if log_f(step / 2**k) >= log_f(0.0))
        new, *_ = route_pass(state, outcome_p, np.log(outcome_p))
        assert new[0] == step / 2**halvings == pytest.approx(100.0)

    def test_no_two_cycle_on_a_lopsided_route(self):
        # 86 successes and 9 failures on a grade-28 route (prior mean 2.4),
        # climber pinned at 0: a full Newton step clamped to +/-10 instead of
        # halved would jump between 2.4 and -7.6 forever
        ds = make_dataset([(0, 0, 0, S)] * 86 + [(0, 0, 0, F)] * 9,
                          n_routes=1, n_climbers=1, grades=[28])
        state = initialize_state(ds)
        assert state.route_ratings[0] == pytest.approx(2.4)

        def log_f(r):
            return (-86.0 * np.log1p(np.exp(r)) - 9.0 * np.log1p(np.exp(-r))
                    - (r - 2.4) ** 2 / 8.0)

        for _ in range(50):
            before = log_f(state.route_ratings[0])
            state.route_ratings, *_ = route_pass(state, *evaluated(state))
            assert log_f(state.route_ratings[0]) >= before - 1e-12
        grid = np.arange(-5.0, 5.0, 1e-5)
        best = grid[np.argmax(log_f(grid))]
        assert best == pytest.approx(-2.12547, abs=1e-5)
        assert state.route_ratings[0] == pytest.approx(best, abs=1e-3)

    def test_route_without_ascents_stays_at_prior(self):
        # route 1 has no ascents, as in a cross-validation training subset
        ds = make_dataset(
            [(0, 0, 0, F), (0, 0, 3, S)],
            n_routes=2, n_climbers=1, grades=[22, 25],
        )
        state = initialize_state(ds)
        state.climber_ratings[:] = [1.5, -0.5]
        new, *_ = route_pass(state, *evaluated(state))
        assert new[1] == state.route_prior_means[1]
        fitted, _ = fit(ds)
        assert fitted.route_ratings[1] == pytest.approx(1.2, abs=1e-15)


class TestUpdateClimber:
    def test_single_period_equals_scalar_newton(self):
        ds = make_dataset(
            [(0, 0, 0, S)] * 2 + [(0, 0, 0, F)],
            n_routes=1, n_climbers=1,
        )
        state = initialize_state(ds)
        hyper = state.hyper
        # scalar oracle: d1/d2 assembled from the model formulas by hand
        p = 0.5
        d1 = 2.0 * (1.0 - p) + (0.0 - p) - 0.0 / hyper.sigma_c_sq
        d2 = -3.0 * p * (1.0 - p) - 1.0 / hyper.sigma_c_sq
        expected = 0.0 - d1 / d2
        got, *_ = climber_pass(state, *evaluated(state))
        assert got[0] == pytest.approx(expected, abs=1e-14)

    def _two_period_state(self, w_sq):
        ds = make_dataset(
            [(0, 0, 0, S), (0, 0, 10, F)],
            n_routes=1, n_climbers=1,
        )
        return initialize_state(ds, Hyperparameters(w_sq=w_sq))

    def test_loose_coupling_updates_independently(self):
        state = self._two_period_state(w_sq=1e6)
        got, *_ = climber_pass(state, *evaluated(state))
        # oracle with the coupling dropped entirely: first period has the
        # success and the prior, second period has the failure and no prior
        p = 0.5
        solo_first = -(1.0 - p) / (-p * (1.0 - p) - 1.0)
        solo_second = -(0.0 - p) / (-p * (1.0 - p))
        assert got[0] == pytest.approx(solo_first, abs=1e-4)
        assert got[1] == pytest.approx(solo_second, abs=1e-4)
        assert got[0] != pytest.approx(got[1], abs=1e-3)

    def test_tight_coupling_updates_together(self):
        state = self._two_period_state(w_sq=1e-9)
        got, *_ = climber_pass(state, *evaluated(state))
        assert got[0] == pytest.approx(got[1], abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_newton_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        ds = random_dataset(rng, n_climbers=3, n_routes=4, max_periods=6)
        state = initialize_state(ds)
        randomize_ratings(state, rng)
        expected = dense_climber_step(ds, state)
        got, *_ = climber_pass(state, *evaluated(state))
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_unequal_histories_match_dense_oracle(self):
        # climbers with 1, 2 and 6 periods, and climber 2 with none, so the
        # batched sweep runs blocks of every length side by side
        rng = np.random.default_rng(9)
        weeks_of = {0: [4], 1: [0, 5], 3: [1, 2, 6, 9, 15, 16]}
        ascents = []
        for climber, weeks in weeks_of.items():
            for week in weeks:
                for _ in range(int(rng.integers(1, 4))):
                    ascents.append((climber, int(rng.integers(0, 3)), week,
                                                S if rng.random() < 0.5 else F))
        ds = make_dataset(ascents, n_routes=3, n_climbers=4)
        state = initialize_state(ds)
        assert np.bincount(state.period_owner, minlength=4).tolist() == [1, 2, 0, 6]
        randomize_ratings(state, rng)
        expected = dense_climber_step(ds, state)
        got, *_ = climber_pass(state, *evaluated(state))
        assert np.max(np.abs(got - expected)) < 1e-10


class TestBtMarginalLogLikelihood:
    def test_even_odds(self):
        ds = one_one_fixture()
        state = initialize_state(ds)
        assert np.log(outcome_probabilities(state)).sum() == pytest.approx(-5.0 * math.log(2.0))

    def test_single_success_with_advantage(self):
        ds = make_dataset([(0, 0, 0, S)], n_routes=1, n_climbers=1)
        state = initialize_state(ds)
        state.climber_ratings[:] = 1.0
        assert np.log(outcome_probabilities(state)).sum() == pytest.approx(-0.313262, abs=1e-6)

    def test_empty_state(self):
        state = ModelState(
            hyper=Hyperparameters(),
            period_owner=np.zeros(0, dtype=np.int64),
            period_weeks=np.zeros(0, dtype=np.int64),
            climber_ratings=np.zeros(0),
            route_prior_means=np.zeros(0),
            route_ratings=np.zeros(0),
            asc_flat_period=np.zeros(0, dtype=np.int64),
            asc_route=np.zeros(0, dtype=np.int64),
            asc_success=np.zeros(0, dtype=bool),
        )
        assert np.log(outcome_probabilities(state)).sum() == 0.0

    def test_empty_state_with_one_route(self):
        # no climber periods and no ascents: only the route prior acts
        hyper = Hyperparameters()
        state = ModelState(
            hyper=hyper,
            period_owner=np.zeros(0, dtype=np.int64),
            period_weeks=np.zeros(0, dtype=np.int64),
            climber_ratings=np.zeros(0),
            route_prior_means=np.array([1.2]),
            route_ratings=np.array([0.2]),
            asc_flat_period=np.zeros(0, dtype=np.int64),
            asc_route=np.zeros(0, dtype=np.int64),
            asc_success=np.zeros(0, dtype=bool),
        )
        for array in (*climber_derivatives(state, outcome_probabilities(state)), state.hess_off):
            assert array.dtype == float and array.shape == (0,)
        grad, hess = route_derivatives(state, outcome_probabilities(state))
        assert grad.dtype == hess.dtype == float
        assert grad.tolist() == pytest.approx([(1.2 - 0.2) / hyper.sigma_r_sq])
        assert hess.tolist() == [-1.0 / hyper.sigma_r_sq]
        assert route_pass(state, *evaluated(state))[0].tolist() == pytest.approx([1.2])
        assert np.log(outcome_probabilities(state)).sum() == 0.0


class TestFit:
    def test_one_one_fixture_frozen_values(self):
        state, report = fit(one_one_fixture())
        assert report.converged
        assert report.iterations == 9
        assert state.climber_ratings[0] == pytest.approx(0.06956284286665816, abs=1e-9)
        assert state.route_ratings[0] == pytest.approx(-0.27825137146663265, abs=1e-9)
        assert report.final_bt_log_likelihood == state.bt_log_likelihood_history[-1]

    def test_symmetric_instance(self):
        ascents = []
        for c in (0, 1):
            for r in (0, 1):
                ascents.append((c, r, 0, S))
                ascents.append((c, r, 0, F))
        state, report = fit(make_dataset(ascents, n_routes=2, n_climbers=2))
        assert state.climber_ratings.shape == (2,)
        assert state.climber_ratings[0] == state.climber_ratings[1]
        assert state.route_ratings[0] == state.route_ratings[1]

    def test_matches_pass_by_pass(self):
        # the first K iterations of fit take the same steps as K climber
        # passes, each followed by a route pass
        ds = random_dataset(np.random.default_rng(3))
        fast, _ = fit(ds)
        state = initialize_state(ds)
        outcome_p, log_p = evaluated(state)
        passes = []
        for _ in range(solver.K_COORDINATE_PASSES):
            state.climber_ratings, outcome_p, log_p = climber_pass(state, outcome_p, log_p)
            state.route_ratings, outcome_p, log_p = route_pass(state, outcome_p, log_p)
            passes.append(float(log_p.sum()))
        assert fast.bt_log_likelihood_history[:solver.K_COORDINATE_PASSES] == passes

    def test_deterministic(self):
        ds = random_dataset(np.random.default_rng(4))
        s1, r1 = fit(ds)
        s2, r2 = fit(ds)
        assert r1 == r2
        assert s1.bt_log_likelihood_history == s2.bt_log_likelihood_history
        assert (s1.climber_ratings == s2.climber_ratings).all()
        assert (s1.route_ratings == s2.route_ratings).all()

    def test_input_order_independence(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng)
        order = rng.permutation(len(ds))
        shuffled = CleanDataset(ds.climber[order], ds.route[order], ds.week[order],
                                ds.success[order], ds.climber_ids, ds.route_ids,
                                ds.route_grades, ds.provenance)
        s1, _ = fit(ds)
        s2, _ = fit(shuffled)
        assert (s1.climber_ratings == s2.climber_ratings).all()
        assert (s1.route_ratings == s2.route_ratings).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_stationary_point_on_small_instances(self, seed):
        rng = np.random.default_rng(200 + seed)
        ds = random_dataset(rng, n_climbers=5, n_routes=5, max_periods=3)
        initial_ll = np.log(outcome_probabilities(initialize_state(ds))).sum()
        # the default 1.0-unit window stops long before stationarity on
        # instances this small; tighten the span to drive the gradient down
        state, report = fit(ds, max_iterations=3000, convergence_span=1e-10)
        assert report.converged
        climber_grad, route_grad = log_posterior_gradient(ds, state)
        worst = max(np.max(np.abs(climber_grad)), np.max(np.abs(route_grad)))
        assert worst <= 1e-4
        assert report.final_bt_log_likelihood >= initial_ll

    def test_convergence_rule_first_satisfied(self):
        # the fit stops at the first point where both the step and the window
        # rule hold, so a budget one iteration shorter does not converge
        ds = random_dataset(np.random.default_rng(7), n_climbers=5, n_routes=5)
        state, report = fit(ds)
        h = state.bt_log_likelihood_history
        assert report.converged
        assert len(h) == report.iterations
        assert max(h[-9:]) - min(h[-9:]) <= 1.0
        assert largest_block_jacobi_step(state) <= solver.STEP_TOLERANCE
        _, shorter = fit(ds, max_iterations=report.iterations - 1)
        assert not shorter.converged and shorter.iterations == report.iterations - 1

    def test_no_pass_lowers_the_posterior_on_random_logs(self, monkeypatch):
        # Neither a coordinate pass nor an accepted Newton step lowers the log
        # posterior.  The small steps taken at the MAP until the window fills
        # may, by rounding, so they are not checked.  (A Newton step clamped
        # to +/-10 instead of halved left 10 of these 200 logs unconverged.)
        points, newton_at = [], []
        climber_derivatives_of = solver.climber_derivatives
        newton_cg = solver._newton_cg

        def recorded(state, outcome_p):
            points.append((state.climber_ratings.copy(), state.route_ratings.copy()))
            return climber_derivatives_of(state, outcome_p)

        def newton(*args):
            newton_at.append(len(points) - 1)
            return newton_cg(*args)

        monkeypatch.setattr(solver, "climber_derivatives", recorded)
        monkeypatch.setattr(solver, "_newton_cg", newton)
        for seed in range(200):
            ds, hyper = random_clean_log(seed)
            points.clear()
            newton_at.clear()
            fitted, report = fit(ds, hyper, max_iterations=300)
            assert report.converged, seed
            points.append((fitted.climber_ratings, fitted.route_ratings))

            def log_f(point):
                state = initialize_state(ds, hyper)
                state.climber_ratings, state.route_ratings = point
                return log_posterior(ds, state)

            # the K climber passes record the point before each climber step
            state = initialize_state(ds, hyper)
            outcome_p, log_p = evaluated(state)
            for _ in range(solver.K_COORDINATE_PASSES):
                for name, step in (("climber_ratings", climber_pass),
                                   ("route_ratings", route_pass)):
                    before = log_posterior(ds, state)
                    ratings, outcome_p, log_p = step(state, outcome_p, log_p)
                    setattr(state, name, ratings)
                    assert log_posterior(ds, state) >= before - 1e-9 * (1.0 + abs(before)), seed
            assert (state.route_ratings == points[solver.K_COORDINATE_PASSES][1]).all()
            for i in newton_at:
                before = log_f(points[i])
                assert log_f(points[i + 1]) >= before - 1e-9 * (1.0 + abs(before)), seed

    def test_non_convergence_reported(self):
        _, report = fit(one_one_fixture(), max_iterations=8)
        assert not report.converged
        assert report.iterations == 8

    def test_periods_beyond_int64_apart_are_all_but_independent(self):
        # two successes, then two failures 2**63 weeks later: the random walk
        # between them has a variance of 2**63 * w_sq, so the ratings part at
        # least as far as 10**6 weeks apart, and are not pinned together
        def log(first, second):
            return make_dataset([(0, 0, first, S), (0, 1, first, S),
                                 (0, 0, second, F), (0, 1, second, F)], n_routes=2, n_climbers=1)

        far, _ = fit(log(-2**62, 2**62))
        near, _ = fit(log(-52, 999999))
        assert far.hess_off.tolist() == [1.0 / (2.0**63 * Hyperparameters().w_sq)]
        assert far.climber_ratings[0] == pytest.approx(near.climber_ratings[0], abs=1e-3)
        assert far.climber_ratings[1] < near.climber_ratings[1] < -9.0

    def test_zero_drift_pins_ratings_flat(self):
        ds = make_dataset(
            [(0, 0, 0, S), (0, 0, 7, F),
             (0, 0, 30, S), (1, 0, 0, F)],
            n_routes=1, n_climbers=2,
        )
        state, _ = fit(ds, Hyperparameters(w_sq=0.0),
                       max_iterations=3000, convergence_span=1e-10)
        lo, hi = climber_blocks(ds, state)[0]
        assert hi - lo == 3
        assert np.ptp(state.climber_ratings[lo:hi]) < 1e-6

    def test_rejects_bad_arguments(self):
        ds = one_one_fixture()
        with pytest.raises(ValueError):
            fit(ds, max_iterations=7)
        with pytest.raises(EmptyDatasetError):
            fit(make_dataset([], 1, 1))

    def test_history_length_tracks_iterations(self):
        state, report = fit(one_one_fixture(), max_iterations=12)
        assert len(state.bt_log_likelihood_history) == report.iterations

    def test_linear_iteration_cost(self):
        # doubling the data should not much more than double per-iteration
        # work; generous factor absorbs timer noise
        def build(n_climbers):
            rng = np.random.default_rng(42)
            ascents = []
            for c in range(n_climbers):
                for w in range(5):
                    for _ in range(8):
                        ascents.append(
                            (c, int(rng.integers(0, 50)), w * 4,
                                         S if rng.random() < 0.6 else F)
                        )
            return make_dataset(ascents, n_routes=50, n_climbers=n_climbers)

        def timed(ds):
            t0 = time.perf_counter()
            fit(ds, max_iterations=40, convergence_span=0.0)
            return time.perf_counter() - t0

        small = build(250)   # 10,000 ascents
        large = build(500)   # 20,000 ascents
        timed(small)  # warm-up
        # Best of 5 alternated 40-iteration fits: long enough that a few
        # milliseconds of host noise cannot move the ratio past the limit.
        best_small = best_large = math.inf
        for _ in range(5):
            best_small = min(best_small, timed(small))
            best_large = min(best_large, timed(large))
        assert best_large / best_small < 3.0


    def test_zero_span_runs_to_the_budget(self):
        # a window of span 0.0 would need 9 bit-identical records in a row
        for ds, hyper in ((one_one_fixture(), Hyperparameters()),
                          (random_dataset(np.random.default_rng(5)), Hyperparameters()),
                          (random_dataset(np.random.default_rng(5)), Hyperparameters(w_sq=0.0))):
            state, report = fit(ds, hyper, max_iterations=40, convergence_span=0.0)
            assert not report.converged
            assert report.iterations == len(state.bt_log_likelihood_history) == 40


def largest_block_jacobi_step(state):
    """The largest entry of every climber's whole-history Newton step and every
    route's scalar Newton step, all taken from the state's ratings."""
    outcome_p = outcome_probabilities(state)
    grad, hess = climber_derivatives(state, outcome_p)
    d1, d2 = route_derivatives(state, outcome_p)
    return max(np.abs(solve_tridiagonal(hess, grad, state.climber_plan)).max(initial=0.0),
               np.abs(d1 / d2).max())


def dense_map(ds, hyper):
    """The MAP ratings by Newton's method on the dense Hessian of all ratings,
    assembled term by term from the model formulas, from the prior."""
    state = initialize_state(ds, hyper)
    r, route_r = state.climber_ratings.copy(), state.route_ratings.copy()
    n, m = r.shape[0], route_r.shape[0]
    weeks = state.period_weeks
    for _ in range(100):
        grad, hess = np.zeros(n + m), np.zeros((n + m, n + m))
        for period, route, success in zip(state.asc_flat_period, state.asc_route,
                                          state.asc_success):
            p = 1.0 / (1.0 + math.exp(-(r[period] - route_r[route])))
            grad[period] += (1.0 if success else 0.0) - p
            grad[n + route] -= (1.0 if success else 0.0) - p
            for i, j, sign in ((period, period, -1.0), (n + route, n + route, -1.0),
                               (period, n + route, 1.0), (n + route, period, 1.0)):
                hess[i, j] += sign * p * (1.0 - p)
        grad[n:] -= (route_r - state.route_prior_means) / hyper.sigma_r_sq
        hess[n:, n:] -= np.eye(m) / hyper.sigma_r_sq
        for lo, hi in climber_blocks(ds, state):
            if lo == hi:
                continue
            grad[lo] -= r[lo] / hyper.sigma_c_sq
            hess[lo, lo] -= 1.0 / hyper.sigma_c_sq
            for k in range(lo + 1, hi):
                precision = 1.0 / max((weeks[k] - weeks[k - 1]) * hyper.w_sq,
                                      solver.MIN_WIENER_VARIANCE)
                grad[k] -= (r[k] - r[k - 1]) * precision
                grad[k - 1] += (r[k] - r[k - 1]) * precision
                hess[k, k] -= precision
                hess[k - 1, k - 1] -= precision
                hess[k, k - 1] += precision
                hess[k - 1, k] += precision
        delta = np.linalg.solve(hess, grad)
        r, route_r = r - delta[:n], route_r - delta[n:]
    return r, route_r


class TestExactMap:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_synth_fits_end_at_a_stationary_point(self, seed):
        # the default-size `synth --seed N` log, cleaned by preprocess
        world = generate_world(100, 200, 10, (18, 28), seed=seed)
        state, report = fit(simulate_ascents(world, 20, seed=seed + 1))
        assert report.converged
        outcome_p = outcome_probabilities(state)
        grad, _ = climber_derivatives(state, outcome_p)
        d1, _ = route_derivatives(state, outcome_p)
        assert max(np.abs(grad).max(), np.abs(d1).max()) <= 1e-6

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("w_sq", [1.0 / 52.0, 0.0, 0.5])
    def test_matches_dense_newton_map(self, seed, w_sq):
        ds = random_dataset(np.random.default_rng(300 + seed), n_climbers=4, n_routes=5,
                            max_periods=4)
        hyper = Hyperparameters(w_sq=w_sq)
        state, report = fit(ds, hyper)
        assert report.converged
        climber_r, route_r = dense_map(ds, hyper)
        assert np.abs(state.climber_ratings - climber_r).max() <= 1e-8
        assert np.abs(state.route_ratings - route_r).max() <= 1e-8


def margin_state(margins, won):
    """One climber per ascent, each with one period at its ``margins`` entry,
    against one route rated 0.0: each ascent's margin is exactly its entry."""
    n = len(margins)
    return ModelState(
        hyper=Hyperparameters(),
        period_owner=np.arange(n),
        period_weeks=np.zeros(n, dtype=np.int64),
        climber_ratings=np.array(margins, dtype=float),
        route_prior_means=np.zeros(1),
        route_ratings=np.zeros(1),
        asc_flat_period=np.arange(n),
        asc_route=np.zeros(n, dtype=np.int64),
        asc_success=np.array(won, dtype=bool),
    )


EDGE_MARGINS = [0.0, -0.0, 36.0, -36.0, 36.000000000000014, -36.5, 1e308, -1e308,
                5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]


class TestBranchFreeSelects:
    """The sign and ``lost`` arrays select outcomes with the same bits as ``np.where``."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False), st.booleans()), max_size=30),
           st.lists(st.floats(0.0, 1.0), min_size=len(EDGE_MARGINS), max_size=len(EDGE_MARGINS)))
    def test_selects_are_bit_identical(self, drawn, probabilities):
        margins = np.array(EDGE_MARGINS * 2 + [m for m, _ in drawn])
        won = np.array([True] * len(EDGE_MARGINS) + [False] * len(EDGE_MARGINS)
                       + [w for _, w in drawn])
        state = margin_state(margins, won)
        assert (state.climber_ratings[state.asc_flat_period]
                - state.route_ratings[state.asc_route]).tobytes() == margins.tobytes()

        outcome_p = outcome_probabilities(state)
        expected = win_probabilities(np.where(won, margins, -margins), 0.0)
        assert outcome_p.tobytes() == expected.tobytes()

        for p in (outcome_p, np.resize(np.array(probabilities), len(won))):
            got = solver._climber_win_probabilities(state, p)
            assert got.tobytes() == np.where(won, p, 1.0 - p).tobytes()


class TestCostContract:
    def test_calls_per_fit(self, monkeypatch):
        counted_in = {"win_probabilities": solver, "solve_tridiagonal": solver,
                      "tridiagonal_plan": solver, "__post_init__": ModelState}
        calls = dict.fromkeys(counted_in, 0)
        for name, owner in counted_in.items():
            def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        newton_steps = []
        newton_cg = solver._newton_cg
        monkeypatch.setattr(solver, "_newton_cg",
                            lambda *args: newton_steps.append(1) or newton_cg(*args))
        ds = random_dataset(np.random.default_rng(3), n_climbers=6, n_routes=5, max_periods=4)
        k = solver.K_COORDINATE_PASSES
        for fits in (1, 2):
            _, report = solver.fit(ds)
            # On this log no pass halves and every line search accepts its
            # first trial: 4 pass pairs, 4 Newton steps that run 16 CG
            # iterations between them, then 1 small step at the MAP before
            # the window holds, and the last block-Jacobi step measured.
            assert (k, report.iterations, len(newton_steps)) == (4, 9, 4 * fits)
            newton, small = 4, report.iterations - k - 4
            assert calls["win_probabilities"] == fits * (1 + 2 * k + newton + small) == fits * 14
            assert calls["solve_tridiagonal"] == fits * (k + newton + small + 1 + 16) == fits * 26
            # one state per fit, so its invariants and its climber plan are built once
            assert calls["__post_init__"] == fits
            assert calls["tridiagonal_plan"] == fits
