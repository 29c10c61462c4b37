"""Probability and derivative building blocks.

Each term of the log posterior (Bradley-Terry ascents, normal priors, the
random-walk drift) is checked in the derivatives the solver computes,
``climber_derivatives`` and ``route_derivatives``, on small states built
here.  Finite-difference checks use an independent oracle: the log-density
terms are written out directly here (plain math, no package code) and
differentiated numerically.  Second derivatives are checked against a central
difference of the oracle's own analytic gradient, because a second difference
of the log-density itself loses too many digits at step 1e-6 to support a
1e-5 tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cragrank.model import (
    RATING_DIFF_CLAMP,
    Hyperparameters,
    bt_probability,
    route_prior_mean,
    win_probabilities,
)
from cragrank.solver import (
    MIN_WIENER_VARIANCE,
    ModelState,
    climber_derivatives,
    outcome_probabilities,
    route_derivatives,
)
from helpers import central_difference, relative_error

ratings = st.floats(min_value=-15.0, max_value=15.0, allow_nan=False)


def logistic(x: float) -> float:
    # independent of the package's clamped implementation
    return 1.0 / (1.0 + math.exp(-x))


def bt_log_density(own, opponents, outcomes, side):
    # log probability of the observed outcomes; ``side`` only selects which
    # rating in the difference is the variable.  log(logistic(z)) written as
    # -log1p(exp(-z)) so saturated matchups keep full precision under the
    # finite-difference step.
    total = 0.0
    for opp, outcome in zip(opponents, outcomes):
        z = own - opp if side == "climber" else opp - own
        if outcome:
            total -= math.log1p(math.exp(-z))
        else:
            total -= math.log1p(math.exp(z))
    return total


def bt_gradient(own, opponents, outcomes, side):
    # analytic gradient of bt_log_density, derived by hand: wins - sum(p),
    # where p is own's win probability logistic(own - opp) for either side
    total = 0.0
    for opp, outcome in zip(opponents, outcomes):
        won = outcome == (side == "climber")
        total += (1.0 if won else 0.0) - logistic(own - opp)
    return total


def one_climber_state(weeks, ratings, route_ratings, ascents, hyper=Hyperparameters(),
                      prior_means=None):
    """A state of one climber with a period at each of ``weeks``.

    ``ascents`` are (period, route, outcome) triples, at least one.  Route
    prior means default to 0.
    """
    n_routes = len(route_ratings)
    period, route, outcome = zip(*ascents)
    return ModelState(
        hyper=hyper,
        period_owner=np.zeros(len(weeks), dtype=np.int64),
        period_weeks=np.array(weeks, dtype=np.int64),
        climber_ratings=np.array(ratings, dtype=float),
        route_prior_means=(np.zeros(n_routes) if prior_means is None
                           else np.array(prior_means, dtype=float)),
        route_ratings=np.array(route_ratings, dtype=float),
        asc_flat_period=np.array(period),
        asc_route=np.array(route),
        asc_success=np.array(outcome, dtype=bool),
    )


def lone_route_state(rating, mean=0.0, hyper=Hyperparameters()):
    """Route 0 at ``rating`` without ascents, and one success on route 1."""
    return one_climber_state([0], [0.0], [rating, 0.0], [(0, 1, True)],
                             hyper=hyper, prior_means=[mean, 0.0])


def coupled_state(weeks, ratings, hyper=Hyperparameters()):
    """One climber whose periods are linked only by the random walk and the first prior.

    Each period holds one success and one failure against a route of the
    period's own rating: their Bradley-Terry terms are exactly 0 in the
    gradient and -0.5 in the Hessian diagonal.
    """
    ascents = [(k, k, o) for k in range(len(weeks)) for o in (True, False)]
    return one_climber_state(weeks, ratings, ratings, ascents, hyper=hyper)


def bt_terms(own, opponents, outcomes, side):
    """The solver's Bradley-Terry derivatives of ``own`` against ``opponents``.

    The climber side is one period against a route per opponent; the route
    side is one route against a period per opponent.  The prior term, written
    out here, is taken off, so only the ascent terms are left.
    """
    hyper = Hyperparameters()
    n = len(opponents)
    if side == "climber":
        state = one_climber_state([0], [own], opponents,
                                  [(0, k, o) for k, o in enumerate(outcomes)])
        grad, hess = climber_derivatives(state, outcome_probabilities(state)[0])
        return grad[0] + own / hyper.sigma_c_sq, hess[0] + 1.0 / hyper.sigma_c_sq
    state = one_climber_state(list(range(n)), opponents, [own],
                              [(k, 0, o) for k, o in enumerate(outcomes)], prior_means=[own])
    grad, hess = route_derivatives(state, outcome_probabilities(state)[0])
    return grad[0], hess[0] + 1.0 / hyper.sigma_r_sq


class TestHyperparameters:
    def test_defaults(self):
        hyper = Hyperparameters()
        assert hyper.sigma_c_sq == 1.0
        assert hyper.sigma_r_sq == 4.0
        assert hyper.w_sq == 1.0 / 52.0
        assert hyper.g0 == 22
        assert hyper.b == 0.4

    @pytest.mark.parametrize(
        "kwargs",
        [{"sigma_c_sq": 0.0}, {"sigma_c_sq": -1.0}, {"sigma_r_sq": 0.0}, {"w_sq": -0.1},
         {"w_sq": math.nan}, {"b": math.nan}, {"sigma_r_sq": math.inf}, {"b": True},
         {"sigma_c_sq": "x"}, {"g0": 1.5}, {"g0": 2**63}, {"b": 10**400}],
    )
    def test_rejects_bad_variances(self, kwargs):
        with pytest.raises(ValueError, match=f"^hyperparameter {next(iter(kwargs))} "):
            Hyperparameters(**kwargs)

    def test_stores_floats_and_an_integral_g0(self):
        hyper = Hyperparameters(sigma_c_sq=2, b=10**23, g0=21.0)
        assert (hyper.sigma_c_sq, hyper.b, hyper.g0) == (2.0, 1e23, 21)
        assert (type(hyper.sigma_c_sq), type(hyper.b), type(hyper.g0)) == (float, float, int)
        assert Hyperparameters(g0=-2**63).g0 == -2**63

    def test_zero_drift_allowed(self):
        assert Hyperparameters(w_sq=0.0).w_sq == 0.0


class TestBtProbability:
    def test_even_match(self):
        assert bt_probability(0.0, 0.0) == 0.5

    def test_one_unit_advantage(self):
        assert bt_probability(1.0, 0.0) == pytest.approx(0.731059, abs=1e-6)

    def test_extreme_observed_range(self):
        p = bt_probability(-12.0, 13.0)
        assert 0.0 < p < 2e-11

    def test_never_exactly_zero_or_one(self):
        assert 0.0 < bt_probability(-1000.0, 1000.0)
        assert bt_probability(1000.0, -1000.0) < 1.0

    def test_clamp_value(self):
        # beyond the clamp the probability stops changing
        assert bt_probability(40.0, 0.0) == bt_probability(RATING_DIFF_CLAMP, 0.0)
        assert bt_probability(40.0, 0.0) == bt_probability(50.0, 0.0)

    @given(a=st.floats(-40, 40), b=st.floats(-40, 40))
    def test_exact_complement(self, a, b):
        assert bt_probability(a, b) + bt_probability(b, a) == 1.0

    @given(a=ratings, b=ratings, shift=st.floats(-20, 20))
    def test_translation_invariance(self, a, b, shift):
        assert bt_probability(a + shift, b + shift) == pytest.approx(
            bt_probability(a, b), abs=1e-12
        )

    @given(a=ratings, b=ratings)
    def test_matches_plain_logistic_in_moderate_range(self, a, b):
        assert bt_probability(a, b) == pytest.approx(logistic(a - b), rel=1e-12)

    def test_monotone_in_climber_rating(self):
        grid = np.linspace(-20, 20, 201)
        p = [bt_probability(x, 0.0) for x in grid]
        assert all(p2 > p1 for p1, p2 in zip(p, p[1:]))

    def test_vectorized_broadcast(self):
        out = win_probabilities(1.0, np.zeros(4))
        assert out.shape == (4,)
        assert (out == bt_probability(1.0, 0.0)).all()


class TestRoutePriorMean:
    def test_reference_grade_is_zero(self):
        assert route_prior_mean(22, Hyperparameters()) == 0.0

    def test_above_reference(self):
        assert route_prior_mean(27, Hyperparameters()) == pytest.approx(2.0)

    def test_below_reference(self):
        assert route_prior_mean(10, Hyperparameters()) == pytest.approx(-4.8)

    def test_extreme_g0_does_not_wrap_around(self):
        hyper = Hyperparameters(g0=-2**63)
        means = route_prior_mean(np.array([22, 18], dtype=np.int64), hyper)
        assert (means > 3.6e18).all()
        assert means[0] == route_prior_mean(22, hyper)

    @given(grade=st.integers(1, 40))
    def test_exactly_linear(self, grade):
        hyper = Hyperparameters()
        assert route_prior_mean(grade + 1, hyper) - route_prior_mean(grade, hyper) == (
            pytest.approx(hyper.b, abs=1e-12)
        )


class TestNormalPriorDerivatives:
    # A route without ascents carries only its prior term.
    def test_at_mean_wide(self):
        state = lone_route_state(0.0)
        grad, hess = route_derivatives(state, outcome_probabilities(state)[0])
        assert (grad[0], hess[0]) == (0.0, -0.25)

    def test_off_mean_unit(self):
        hyper = Hyperparameters(sigma_r_sq=1.0)
        state = lone_route_state(2.0, hyper=hyper)
        grad, hess = route_derivatives(state, outcome_probabilities(state)[0])
        assert (grad[0], hess[0]) == (-2.0, -1.0)

    def test_at_negative_mean(self):
        mean = route_prior_mean(10, Hyperparameters())
        state = lone_route_state(mean, mean)
        grad, hess = route_derivatives(state, outcome_probabilities(state)[0])
        assert (grad[0], hess[0]) == (0.0, -0.25)

    @pytest.mark.parametrize("variance", [0.0, -1.0])
    def test_rejects_bad_variance(self, variance):
        # the derivatives divide by the prior variances; only positive ones exist
        with pytest.raises(ValueError):
            Hyperparameters(sigma_c_sq=variance)
        with pytest.raises(ValueError):
            Hyperparameters(sigma_r_sq=variance)

    @given(r=ratings, mean=ratings, variance=st.floats(0.01, 50))
    def test_matches_finite_difference(self, r, mean, variance):
        def log_density(x):
            return -((x - mean) ** 2) / (2.0 * variance)

        state = lone_route_state(r, mean, hyper=Hyperparameters(sigma_r_sq=variance))
        grad, hess = route_derivatives(state, outcome_probabilities(state)[0])
        assert relative_error(grad[0], central_difference(log_density, r)) < 1e-5
        # analytic gradient of the same density, differentiated once more
        d2_fd = central_difference(lambda x: -(x - mean) / variance, r)
        assert relative_error(hess[0], d2_fd) < 1e-5


class TestWienerVariance:
    # The random-walk coupling of consecutive periods has precision
    # 1 / (weeks apart * w_sq).
    def test_one_year(self):
        state = coupled_state([0, 52], [0.0, 0.0])
        assert state.hess_off[0] == 1.0

    def test_absolute_difference(self):
        hyper = Hyperparameters()
        state = coupled_state([3, 5], [0.0, 0.0])
        assert state.hess_off[0] == 1.0 / (2.0 * hyper.w_sq)

    def test_zero_drift_is_floored(self):
        state = coupled_state([3, 5], [0.0, 1.0], hyper=Hyperparameters(w_sq=0.0))
        grad, _ = climber_derivatives(state, outcome_probabilities(state)[0])
        assert state.hess_off[0] == 1.0 / MIN_WIENER_VARIANCE
        assert grad[1] == -1.0 / MIN_WIENER_VARIANCE

    def test_gap_beyond_int64(self):
        # weeks 2**63 and 2**64 - 1 apart: their int64 difference wraps, the gap does not
        hyper = Hyperparameters()
        for weeks, gap in (([-2**62, 2**62], 2**63), ([-2**63, 2**63 - 1], 2**64 - 1)):
            state = coupled_state(weeks, [0.0, 0.0])
            assert state.hess_off[0] == 1.0 / (float(gap) * hyper.w_sq)

    @given(a=st.integers(-3000, 3000), gap=st.integers(1, 3000), x0=ratings, x1=ratings)
    def test_symmetric_and_nonnegative(self, a, gap, x0, x1):
        hyper = Hyperparameters()
        state = coupled_state([a, a + gap], [x0, x1])
        grad, hess = climber_derivatives(state, outcome_probabilities(state)[0])
        off = state.hess_off
        precision = 1.0 / (gap * hyper.w_sq)
        assert off[0] > 0.0
        assert off[0] == pytest.approx(precision, rel=1e-12)
        assert hess[0] + 0.5 + 1.0 / hyper.sigma_c_sq == pytest.approx(-off[0], rel=1e-12)
        assert hess[1] + 0.5 == pytest.approx(-off[0], rel=1e-12)
        pull = (x1 - x0) * precision
        assert grad[0] + x0 / hyper.sigma_c_sq == pytest.approx(pull, rel=1e-9, abs=1e-9)
        assert grad[1] == pytest.approx(-pull, rel=1e-9, abs=1e-9)


class TestStateInvariants:
    """The read-only fields a state builds from its periods, ascents and
    hyperparameters, against values worked out by hand."""

    # (period, route, outcome) at weeks [0, 2, 5]: route 0 is failed once,
    # route 1 twice; periods 0 and 2 hold one success each.
    ASCENTS = [(0, 0, True), (0, 1, False), (1, 0, False), (2, 1, True), (2, 1, False)]
    DERIVED = ("period_owner", "first_periods", "hess_off", "sign", "lost", "period_wins",
               "route_losses")

    def state(self, w_sq):
        return one_climber_state([0, 2, 5], [0.3, -0.2, 0.1], [0.5, -0.5], self.ASCENTS,
                                 hyper=Hyperparameters(w_sq=w_sq))

    def test_fields(self):
        state = self.state(0.5)
        assert state.period_owner.tolist() == [0, 0, 0]
        assert state.first_periods.tolist() == [0]
        # periods 0 and 1, and 1 and 2, are random-walk pairs, at precisions
        # 1 / (weeks apart * w_sq): 1 / (2 * 0.5) and 1 / (3 * 0.5)
        assert np.flatnonzero(state.hess_off).tolist() == [0, 1]
        assert state.hess_off.tolist() == [1.0, 1.0 / 1.5]
        # one block of three rows, one per level, each coupled to the row before
        assert state.climber_plan.order.tolist() == [0, 1, 2]
        assert state.climber_plan.coupling.tolist() == [0.0, 1.0, 1.0 / 1.5]
        assert state.sign.tolist() == [1.0, -1.0, -1.0, 1.0, -1.0]
        assert state.lost.tolist() == [0.0, 1.0, 1.0, 0.0, 1.0]
        assert state.period_wins.tolist() == [1.0, 0.0, 1.0]
        assert state.route_losses.tolist() == [1.0, 2.0]

    def test_zero_drift_is_floored(self):
        state = self.state(0.0)
        floored = 1.0 / MIN_WIENER_VARIANCE
        assert state.hess_off.tolist() == [floored, floored]

    def test_fields_are_read_only(self):
        state = self.state(0.5)
        plan = state.climber_plan
        for array in [getattr(state, name) for name in self.DERIVED] + [plan.order, plan.coupling]:
            with pytest.raises(ValueError):
                array[0] = 0


class TestBtDerivatives:
    def test_single_success_even_odds(self):
        d1, d2 = bt_terms(0.0, [0.0], [True], "climber")
        assert d1 == pytest.approx(0.5)
        assert d2 == pytest.approx(-0.25)

    def test_empty(self):
        # a route without ascents has no ascent terms, only its prior's
        state = lone_route_state(1.5, 1.5)
        grad, hess = route_derivatives(state, outcome_probabilities(state)[0])
        assert (grad[0], hess[0]) == (0.0, -1.0 / Hyperparameters().sigma_r_sq)

    def test_balanced_outcomes(self):
        d1, d2 = bt_terms(0.0, [0.0, 0.0], [True, False], "climber")
        assert d1 == pytest.approx(0.0)
        assert d2 == pytest.approx(-0.5)

    def test_route_wins_failed_ascent(self):
        d1, d2 = bt_terms(0.0, [0.0], [False], "route")
        assert d1 == pytest.approx(0.5)
        assert d2 == pytest.approx(-0.25)

    def test_route_loses_successful_ascent(self):
        d1, _ = bt_terms(0.0, [0.0], [True], "route")
        assert d1 == pytest.approx(-0.5)

    @given(
        own=ratings,
        opponents=st.lists(ratings, min_size=1, max_size=12),
        side=st.sampled_from(["climber", "route"]),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_matches_finite_difference(self, own, opponents, side, data):
        outcomes = data.draw(
            st.lists(
                st.sampled_from([True, False]),
                min_size=len(opponents),
                max_size=len(opponents),
            )
        )
        d1, d2 = bt_terms(own, opponents, outcomes, side)

        d1_fd = central_difference(
            lambda x: bt_log_density(x, opponents, outcomes, side), own
        )
        assert relative_error(d1, d1_fd) < 1e-5

        d2_fd = central_difference(
            lambda x: bt_gradient(x, opponents, outcomes, side), own
        )
        assert relative_error(d2, d2_fd) < 1e-5

    @given(own=ratings, opponents=st.lists(ratings, min_size=1, max_size=8))
    def test_d2_negative_with_data(self, own, opponents):
        outcomes = [True] * len(opponents)
        assert bt_terms(own, opponents, outcomes, "climber")[1] < 0.0
