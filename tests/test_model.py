"""Probability and derivative building blocks.

Derivative checks use an independent finite-difference oracle: the log-density
terms are written out directly here (plain math, no package code) and
differentiated numerically.  d2 is checked against a central difference of the
oracle's own analytic gradient, because a second difference of the log-density
itself loses too many digits at step 1e-6 to support a 1e-5 tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cragrank.model import (
    RATING_DIFF_CLAMP,
    AscentOutcome,
    DerivativePair,
    Hyperparameters,
    bt_derivatives,
    bt_probability,
    normal_prior_derivatives,
    route_prior_mean,
    wiener_variance,
    win_probabilities,
)

FD_STEP = 1e-6

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
        if outcome is AscentOutcome.SUCCESS:
            total -= math.log1p(math.exp(-z))
        else:
            total -= math.log1p(math.exp(z))
    return total


def bt_gradient(own, opponents, outcomes, side):
    # analytic gradient of bt_log_density, derived by hand: wins - sum(p),
    # where p is own's win probability logistic(own - opp) for either side
    total = 0.0
    for opp, outcome in zip(opponents, outcomes):
        won = (outcome is AscentOutcome.SUCCESS) == (side == "climber")
        total += (1.0 if won else 0.0) - logistic(own - opp)
    return total


def central_difference(f, x, h=FD_STEP):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def relative_error(got, want, floor=0.05):
    return abs(got - want) / max(abs(want), floor)


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
        [{"sigma_c_sq": 0.0}, {"sigma_c_sq": -1.0}, {"sigma_r_sq": 0.0}, {"w_sq": -0.1}],
    )
    def test_rejects_bad_variances(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparameters(**kwargs)

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

    @given(grade=st.integers(1, 40))
    def test_exactly_linear(self, grade):
        hyper = Hyperparameters()
        assert route_prior_mean(grade + 1, hyper) - route_prior_mean(grade, hyper) == (
            pytest.approx(hyper.b, abs=1e-12)
        )


class TestNormalPriorDerivatives:
    def test_at_mean_wide(self):
        assert normal_prior_derivatives(0.0, 0.0, 4.0) == DerivativePair(0.0, -0.25)

    def test_off_mean_unit(self):
        assert normal_prior_derivatives(2.0, 0.0, 1.0) == DerivativePair(-2.0, -1.0)

    def test_at_negative_mean(self):
        assert normal_prior_derivatives(-4.8, -4.8, 4.0) == DerivativePair(0.0, -0.25)

    @pytest.mark.parametrize("variance", [0.0, -1.0])
    def test_rejects_bad_variance(self, variance):
        with pytest.raises(ValueError):
            normal_prior_derivatives(0.0, 0.0, variance)

    @given(r=ratings, mean=ratings, variance=st.floats(0.01, 50))
    def test_matches_finite_difference(self, r, mean, variance):
        def log_density(x):
            return -((x - mean) ** 2) / (2.0 * variance)

        pair = normal_prior_derivatives(r, mean, variance)
        assert relative_error(pair.d1, central_difference(log_density, r)) < 1e-5
        # analytic gradient of the same density, differentiated once more
        d2_fd = central_difference(lambda x: -(x - mean) / variance, r)
        assert relative_error(pair.d2, d2_fd) < 1e-5


class TestWienerVariance:
    def test_zero_elapsed(self):
        assert wiener_variance(10, 10, Hyperparameters()) == 0.0

    def test_one_year(self):
        assert wiener_variance(0, 52, Hyperparameters()) == 1.0

    def test_absolute_difference(self):
        hyper = Hyperparameters()
        assert wiener_variance(5, 3, hyper) == 2.0 * hyper.w_sq

    @given(a=st.integers(-3000, 3000), b=st.integers(-3000, 3000))
    def test_symmetric_and_nonnegative(self, a, b):
        hyper = Hyperparameters()
        assert wiener_variance(a, b, hyper) == wiener_variance(b, a, hyper) >= 0.0


class TestBtDerivatives:
    def test_single_success_even_odds(self):
        pair = bt_derivatives(0.0, [0.0], [AscentOutcome.SUCCESS], side="climber")
        assert pair.d1 == pytest.approx(0.5)
        assert pair.d2 == pytest.approx(-0.25)

    def test_empty(self):
        assert bt_derivatives(0.0, [], [], side="climber") == DerivativePair(0.0, 0.0)

    def test_balanced_outcomes(self):
        pair = bt_derivatives(
            0.0, [0.0, 0.0], [AscentOutcome.SUCCESS, AscentOutcome.FAILURE], side="climber"
        )
        assert pair.d1 == pytest.approx(0.0)
        assert pair.d2 == pytest.approx(-0.5)

    def test_route_wins_failed_ascent(self):
        pair = bt_derivatives(0.0, [0.0], [AscentOutcome.FAILURE], side="route")
        assert pair.d1 == pytest.approx(0.5)
        assert pair.d2 == pytest.approx(-0.25)

    def test_route_loses_successful_ascent(self):
        pair = bt_derivatives(0.0, [0.0], [AscentOutcome.SUCCESS], side="route")
        assert pair.d1 == pytest.approx(-0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bt_derivatives(0.0, [0.0, 1.0], [AscentOutcome.SUCCESS], side="climber")

    def test_unknown_side(self):
        with pytest.raises(ValueError):
            bt_derivatives(0.0, [0.0], [AscentOutcome.SUCCESS], side="referee")

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
                st.sampled_from([AscentOutcome.SUCCESS, AscentOutcome.FAILURE]),
                min_size=len(opponents),
                max_size=len(opponents),
            )
        )
        pair = bt_derivatives(own, opponents, outcomes, side=side)

        d1_fd = central_difference(
            lambda x: bt_log_density(x, opponents, outcomes, side), own
        )
        assert relative_error(pair.d1, d1_fd) < 1e-5

        d2_fd = central_difference(
            lambda x: bt_gradient(x, opponents, outcomes, side), own
        )
        assert relative_error(pair.d2, d2_fd) < 1e-5

    @given(own=ratings, opponents=st.lists(ratings, min_size=1, max_size=8))
    def test_d2_negative_with_data(self, own, opponents):
        outcomes = [AscentOutcome.SUCCESS] * len(opponents)
        assert bt_derivatives(own, opponents, outcomes, side="climber").d2 < 0.0
