"""Metric, fold-plan, and cross-validation tests.

Metric oracles are hand-computed from the contingency counts; the log-loss
and baseline formulas are re-derived inline with ``math`` calls so they never
share code with the implementation.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cragrank.evaluation import (
    baseline_log_loss,
    compute_metrics,
    cross_validate_predictions,
    linear_fit_r_squared,
    make_fold_plan,
    precision_recall_curve,
    predict_probabilities,
    rating_at_nearest_week,
)
from cragrank.model import Hyperparameters, bt_probability
from cragrank.solver import initialize_state
from helpers import F, S, make_dataset


def symmetric_fixture():
    """Two exchangeable climbers: both succeed route 0 and fail route 1.

    Any stratified 2-fold split leaves one success and one failure in
    training, and that evidence always points the same way as the held-out
    outcomes, so cross-validation on this fixture is perfectly predictable.
    """
    ascents = [
        (0, 0, 0, S),
        (0, 1, 0, F),
        (1, 0, 0, S),
        (1, 1, 0, F),
    ]
    return make_dataset(ascents, n_routes=2, n_climbers=2)


def contingency_fixture(tp, fp, fn, tn):
    """Predictions/actuals vectors realizing exact contingency counts."""
    predictions = np.concatenate(
        [np.full(tp + fp, 0.9), np.full(fn + tn, 0.1)]
    )
    actuals = [S] * tp + [F] * fp + [S] * fn + [F] * tn
    return predictions, actuals


class TestComputeMetrics:
    # An ascent is classified a success iff its probability is strictly above
    # 0.5.  Probabilities stay inside (0, 1), where the log loss is finite.
    def test_above_half_is_success(self):
        report = compute_metrics([0.500001, 0.9, 0.999999], [F, S, S])
        assert (report.tp, report.fp, report.fn, report.tn) == (2, 1, 0, 0)

    def test_half_and_below_is_failure(self):
        report = compute_metrics([0.5, 0.499999, 0.000001], [S, S, F])
        assert (report.tp, report.fp, report.fn, report.tn) == (0, 0, 2, 1)

    def test_reference_contingency_counts(self):
        predictions, actuals = contingency_fixture(161253, 16968, 10755, 47119)
        report = compute_metrics(predictions, actuals)
        assert report.accuracy == pytest.approx(0.883, abs=0.0005)
        assert report.balanced_accuracy == pytest.approx(0.836, abs=0.0005)
        assert report.precision == pytest.approx(0.905, abs=0.0005)
        assert report.recall == pytest.approx(0.937, abs=0.0005)

    def test_contingency_counts_exact(self):
        predictions, actuals = contingency_fixture(161253, 16968, 10755, 47119)
        report = compute_metrics(predictions, actuals)
        assert report.tp == 161253
        assert report.fp == 16968
        assert report.fn == 10755
        assert report.tn == 47119
        assert report.tp + report.fp + report.fn + report.tn == 236095

    def test_baseline_columns_match_mean_success_rate(self):
        predictions, actuals = contingency_fixture(6, 1, 2, 3)
        report = compute_metrics(predictions, actuals)
        a_bar = 8 / 12
        assert report.baseline_accuracy == pytest.approx(a_bar, abs=1e-12)
        assert report.baseline_log_loss == pytest.approx(
            baseline_log_loss(a_bar), abs=1e-12
        )

    def test_perfect_confident_predictor(self):
        predictions = [0.99, 0.99, 0.01, 0.01]
        actuals = [S, S, F, F]
        report = compute_metrics(predictions, actuals)
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.balanced_accuracy == 1.0
        assert report.log_loss == pytest.approx(-math.log(0.99), rel=1e-9)

    def test_log_loss_formula_by_hand(self):
        predictions = [0.8, 0.3, 0.6]
        actuals = [S, S, F]
        report = compute_metrics(predictions, actuals)
        expected = -(math.log(0.8) + math.log(0.3) + math.log(1.0 - 0.6)) / 3.0
        assert report.log_loss == pytest.approx(expected, rel=1e-12)

    def test_log_loss_vanishes_for_near_certain_predictor(self):
        p = 1.0 - 1e-9
        report = compute_metrics([p, 1.0 - p], [S, F])
        assert 0.0 <= report.log_loss < 2e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([0.5, 0.5], [S])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], [])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=0.99),
                st.sampled_from([S, F]),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_log_loss_non_negative_and_metrics_bounded(self, pairs):
        predictions = [p for p, _ in pairs]
        actuals = [a for _, a in pairs]
        report = compute_metrics(predictions, actuals)
        assert report.log_loss >= 0.0
        for value in (
            report.accuracy,
            report.balanced_accuracy,
            report.precision,
            report.recall,
            report.baseline_accuracy,
        ):
            assert 0.0 <= value <= 1.0


class TestBaselineLogLoss:
    def test_matches_entropy_formula(self):
        for rate in (0.1, 0.25, 0.5, 0.727, 0.9):
            expected = (rate - 1.0) * math.log(1.0 - rate) - rate * math.log(rate)
            assert baseline_log_loss(rate) == pytest.approx(expected, rel=1e-14)

    def test_symmetric_in_success_rate(self):
        for rate in (0.01, 0.2, 0.35, 0.49):
            assert baseline_log_loss(rate) == pytest.approx(
                baseline_log_loss(1.0 - rate), abs=1e-12
            )

    def test_endpoints_are_zero(self):
        assert baseline_log_loss(0.0) == 0.0
        assert baseline_log_loss(1.0) == 0.0

    def test_maximum_at_even_odds(self):
        assert baseline_log_loss(0.5) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            baseline_log_loss(-0.1)
        with pytest.raises(ValueError):
            baseline_log_loss(1.1)


class TestRatingAtNearestWeek:
    WEEKS = np.array([10, 20, 40], dtype=np.int64)
    RATINGS = np.array([1.0, 2.0, 3.0])

    def lookup(self, *weeks):
        owner = np.zeros(len(weeks), dtype=np.int64)
        return rating_at_nearest_week([0, 0, 0], self.WEEKS, self.RATINGS, owner, weeks).tolist()

    def test_exact_week(self):
        assert self.lookup(20) == [2.0]

    def test_nearest_below_and_above(self):
        assert self.lookup(12, 18, 33) == [1.0, 2.0, 3.0]

    def test_tie_prefers_earlier_period(self):
        assert self.lookup(15, 30) == [1.0, 2.0]

    def test_clamps_to_first_and_last(self):
        assert self.lookup(0, 99) == [1.0, 3.0]

    def test_owner_without_periods_gets_prior_mean(self):
        owners = [1, 1, 1]
        got = rating_at_nearest_week(owners, self.WEEKS, self.RATINGS, [0, 1, 2, 1], [5, 5, 5, 41])
        assert got.tolist() == [0.0, 1.0, 0.0, 3.0]
        none = rating_at_nearest_week(np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                                      np.array([]), [0], [5])
        assert none.tolist() == [0.0]
        # predict looks up an unknown climber as the index past every known one
        beyond = rating_at_nearest_week([0, 0, 0], self.WEEKS, self.RATINGS, [1, 0, 1],
                                        [40, 40, 10])
        assert beyond.tolist() == [0.0, 3.0, 0.0]


    def test_distances_beyond_int64(self):
        # from week 0 the period at 2**63 - 1 is nearer than the one at
        # -2**63, and so from 2**62; from -1 the earlier one is nearer
        far = np.array([-2**63, 2**63 - 1], dtype=np.int64)
        weeks = [0, 2**62, -1, -2**63, 2**63 - 1]
        got = rating_at_nearest_week([0, 0], far, np.array([1.0, 2.0]), [0] * 5, weeks)
        assert got.tolist() == [2.0, 2.0, 1.0, 1.0, 2.0]
        # -1 is 2**63 - 1 weeks from both: the tie picks the earlier period
        tie = np.array([-2**63, 2**63 - 2], dtype=np.int64)
        assert rating_at_nearest_week([0, 0], tie, np.array([1.0, 2.0]), [0], [-1]).tolist() == [1.0]

    def test_matches_per_query_search(self):
        # reference: a binary search of each query's own owner's weeks
        def nearest(weeks, ratings, week):
            if weeks.shape[0] == 0:
                return 0.0
            pos = int(np.searchsorted(weeks, week))
            if pos in (0, weeks.shape[0]):
                return ratings[min(pos, weeks.shape[0] - 1)]
            before, after = week - weeks[pos - 1], weeks[pos] - week
            return ratings[pos - 1] if before <= after else ratings[pos]

        rng = np.random.default_rng(7)
        for _ in range(200):
            counts = rng.integers(0, 4, size=int(rng.integers(1, 6)))
            offsets = np.concatenate(([0], np.cumsum(counts)))
            weeks = np.concatenate(
                [np.sort(rng.choice(30, size=c, replace=False)) for c in counts]
            ).astype(np.int64)
            ratings = rng.normal(size=weeks.shape[0])
            owner = rng.integers(0, counts.shape[0], size=int(rng.integers(0, 10)))
            week = rng.integers(-3, 33, size=owner.shape[0])
            got = rating_at_nearest_week(np.repeat(np.arange(counts.shape[0]), counts), weeks,
                                         ratings, owner, week)
            expected = [nearest(weeks[offsets[o]:offsets[o + 1]],
                                ratings[offsets[o]:offsets[o + 1]], w)
                        for o, w in zip(owner, week)]
            assert got.tolist() == expected


class TestPredictProbabilities:
    def test_uses_nearest_period_rating(self):
        dataset = make_dataset(
            [(0, 0, 0, S), (0, 0, 30, S),
             (0, 0, 30, F)],
            n_routes=1,
            n_climbers=1,
        )
        state = initialize_state(dataset, Hyperparameters())
        state.climber_ratings[:] = [1.0, 2.5]
        state.route_ratings[0] = 0.5
        p = predict_probabilities(state, [0, 0], [0, 0], [10, 29])
        assert p[0] == pytest.approx(bt_probability(1.0, 0.5), rel=1e-15)
        assert p[1] == pytest.approx(bt_probability(2.5, 0.5), rel=1e-15)

    def test_climber_without_periods_uses_prior_mean(self):
        dataset = make_dataset([(0, 0, 0, S), (0, 0, 0, F)], n_routes=1, n_climbers=2)
        state = initialize_state(dataset, Hyperparameters())
        state.route_ratings[0] = -0.75
        p = predict_probabilities(state, [1], [0], [5])
        assert p[0] == pytest.approx(bt_probability(0.0, -0.75), rel=1e-15)


class TestMakeFoldPlan:
    def balanced_dataset(self, n_success=10, n_failure=10):
        ascents = [(0, 0, 0, S)] * n_success
        ascents += [(0, 0, 0, F)] * n_failure
        return make_dataset(ascents, n_routes=1, n_climbers=1)

    def test_perfect_stratification(self):
        dataset = self.balanced_dataset()
        plan = make_fold_plan(dataset, k=2, repeats=1, seed=0)
        outcomes = dataset.success
        for fold in range(2):
            held = plan[0] == fold
            assert int(np.count_nonzero(held & outcomes)) == 5
            assert int(np.count_nonzero(held & ~outcomes)) == 5

    def test_stratum_fold_sizes_differ_by_at_most_one(self):
        dataset = self.balanced_dataset(n_success=17, n_failure=8)
        plan = make_fold_plan(dataset, k=3, repeats=2, seed=4)
        outcomes = dataset.success
        for rep in range(2):
            for stratum in (outcomes, ~outcomes):
                sizes = [
                    int(np.count_nonzero((plan[rep] == f) & stratum))
                    for f in range(3)
                ]
                assert max(sizes) - min(sizes) <= 1

    def test_every_ascent_held_out_exactly_repeats_times(self):
        dataset = self.balanced_dataset(n_success=23, n_failure=14)
        plan = make_fold_plan(dataset, k=5, repeats=3, seed=9)
        assert plan.shape == (3, 37)
        held_counts = np.zeros(37, dtype=int)
        for rep in range(3):
            for fold in range(5):
                held_counts += plan[rep] == fold
        assert np.all(held_counts == 3)

    def test_deterministic_given_seed(self):
        dataset = self.balanced_dataset()
        a = make_fold_plan(dataset, k=2, repeats=3, seed=7)
        b = make_fold_plan(dataset, k=2, repeats=3, seed=7)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        dataset = self.balanced_dataset(n_success=40, n_failure=40)
        a = make_fold_plan(dataset, k=4, repeats=1, seed=0)
        b = make_fold_plan(dataset, k=4, repeats=1, seed=1)
        assert not np.array_equal(a, b)

    def test_small_stratum_rejected(self):
        dataset = self.balanced_dataset(n_success=10, n_failure=2)
        with pytest.raises(ValueError):
            make_fold_plan(dataset, k=3, repeats=1, seed=0)

    def test_bad_arguments_rejected(self):
        dataset = self.balanced_dataset()
        with pytest.raises(ValueError):
            make_fold_plan(dataset, k=1, repeats=1, seed=0)
        with pytest.raises(ValueError):
            make_fold_plan(dataset, k=2, repeats=0, seed=0)


class TestCrossValidate:
    def test_symmetric_fixture_is_finite_and_sane(self):
        dataset = symmetric_fixture()
        plan = make_fold_plan(dataset, k=2, repeats=1, seed=0)
        report = compute_metrics(*cross_validate_predictions(dataset, Hyperparameters(), plan)[:2])
        assert math.isfinite(report.log_loss)
        assert report.accuracy >= 0.5

    def test_pooled_predictions_cover_every_repeat(self):
        dataset = symmetric_fixture()
        plan = make_fold_plan(dataset, k=2, repeats=3, seed=1)
        pooled_p, pooled_y, fold_reports = cross_validate_predictions(
            dataset, Hyperparameters(), plan
        )
        assert len(fold_reports) == 6
        assert pooled_p.shape == (12,)
        assert pooled_y.shape == (12,)
        assert np.all((pooled_p > 0.0) & (pooled_p < 1.0))

    def test_deterministic_given_plan(self):
        rng = np.random.default_rng(3)
        ascents = []
        for c in range(6):
            for w in (0, 9):
                for _ in range(4):
                    ascents.append(
                        (c, int(rng.integers(0, 5)), w,
                                     S if rng.random() < 0.6 else F)
                    )
        dataset = make_dataset(ascents, n_routes=5, n_climbers=6)
        plan = make_fold_plan(dataset, k=3, repeats=2, seed=5)
        first = compute_metrics(*cross_validate_predictions(dataset, Hyperparameters(), plan)[:2])
        second = compute_metrics(*cross_validate_predictions(dataset, Hyperparameters(), plan)[:2])
        assert first == second

    def test_recovers_signal_on_easy_synthetic_data(self):
        # Strong climbers on easy routes succeed, weak climbers on hard
        # routes fail; CV should comfortably beat the majority-class rate.
        rng = np.random.default_rng(11)
        ascents = []
        for c in range(8):
            strong = c < 4
            for w in (0, 6):
                for _ in range(5):
                    route = int(rng.integers(0, 3)) if strong else int(rng.integers(3, 6))
                    noise = rng.random()
                    won = (strong and noise < 0.9) or (not strong and noise < 0.1)
                    ascents.append((c, route, w, S if won else F))
        dataset = make_dataset(ascents, n_routes=6, n_climbers=8)
        plan = make_fold_plan(dataset, k=4, repeats=1, seed=2)
        report = compute_metrics(*cross_validate_predictions(dataset, Hyperparameters(), plan)[:2])
        assert report.accuracy > report.baseline_accuracy
        assert report.log_loss < baseline_log_loss(report.baseline_accuracy) + 0.05

    def test_mismatched_plan_rejected(self):
        dataset = symmetric_fixture()
        plan = make_fold_plan(dataset, k=2, repeats=1, seed=0)
        smaller = dataset.subset(np.arange(len(dataset)) < 3)
        with pytest.raises(ValueError):
            cross_validate_predictions(smaller, Hyperparameters(), plan)


class TestPrecisionRecallCurve:
    def test_two_point_example(self):
        points = precision_recall_curve([0.9, 0.1], [S, F])
        curve = [(p.threshold, p.precision, p.recall)
                 for p in points if not p.classifier_point]
        assert curve == [(0.9, 1.0, 1.0), (0.1, 0.5, 1.0)]

    def test_classifier_point_marked_and_strict(self):
        points = precision_recall_curve([0.9, 0.1], [S, F])
        marked = [p for p in points if p.classifier_point]
        assert len(marked) == 1
        assert marked[0].threshold == 0.5
        assert marked[0].precision == 1.0
        assert marked[0].recall == 1.0

    def test_thresholds_descending(self):
        rng = np.random.default_rng(0)
        p = rng.random(200)
        y = [S if rng.random() < 0.6 else F for _ in range(200)]
        points = precision_recall_curve(p, y)
        thresholds = [pt.threshold for pt in points]
        assert thresholds == sorted(thresholds, reverse=True)

    def test_one_point_per_distinct_probability(self):
        points = precision_recall_curve(
            [0.7, 0.7, 0.7, 0.2, 0.2], [S, F, S, F, S]
        )
        curve = [p for p in points if not p.classifier_point]
        assert [p.threshold for p in curve] == [0.7, 0.2]
        # At threshold 0.7: 3 predicted, 2 true. At 0.2: all 5 predicted, 3 true.
        assert curve[0].precision == pytest.approx(2 / 3)
        assert curve[0].recall == pytest.approx(2 / 3)
        assert curve[1].precision == pytest.approx(3 / 5)
        assert curve[1].recall == 1.0

    def test_all_successes_give_unit_precision(self):
        points = precision_recall_curve([0.9, 0.8, 0.6], [S, S, S])
        assert all(p.precision == 1.0 for p in points)

    def test_recall_non_increasing_as_threshold_rises(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 80))
            p = rng.random(n)
            y = [S if rng.random() < 0.5 else F for _ in range(n)]
            if not any(a is S for a in y):
                continue
            curve = [pt for pt in precision_recall_curve(p, y)
                     if not pt.classifier_point]
            recalls = [pt.recall for pt in curve]
            assert recalls == sorted(recalls)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_curve([], [])

    def test_heavy_ties_give_the_stable_sort_curve(self, monkeypatch):
        rng = np.random.default_rng(6)
        p = rng.choice([0.1, 0.25, 0.5, 0.5 + 1e-16, 0.75, 0.9], size=5000)
        y = rng.random(5000) < p
        got = precision_recall_curve(p, y)
        monkeypatch.setattr(np, "argsort", functools.partial(np.argsort, kind="stable"))
        assert got.tobytes() == precision_recall_curve(p, y).tobytes()


class TestLinearFitRSquared:
    def test_perfect_line(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert linear_fit_r_squared(x, 2.0 * x - 1.0) == pytest.approx(1.0)

    def test_matches_squared_correlation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=50)
        y = 0.7 * x + rng.normal(scale=0.5, size=50)
        expected = float(np.corrcoef(x, y)[0, 1]) ** 2
        assert linear_fit_r_squared(x, y) == pytest.approx(expected, abs=1e-10)

    def test_constant_targets_give_zero(self):
        assert linear_fit_r_squared([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 0.0

    def test_constant_inputs_give_zero(self):
        assert linear_fit_r_squared([2.0, 2.0, 2.0], [1.0, 4.0, 9.0]) == 0.0
        # a single point is a constant input
        assert linear_fit_r_squared([1.0], [1.0]) == 0.0

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            linear_fit_r_squared([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            linear_fit_r_squared([], [])
