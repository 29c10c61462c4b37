"""Synthetic-world generator tests.

The generator is itself the oracle for end-to-end recovery tests, so these
tests pin it down hard: moment checks against the sampling distributions,
exact determinism, and audits of the recorded Wiener increments.
"""

import csv

import numpy as np
import pytest

from cragrank.errors import EmptyDatasetError
from cragrank.ingest import quantize_week
from cragrank.model import Hyperparameters
from cragrank.solver import initialize_state
from cragrank.synthetic import (
    SyntheticWorld,
    generate_world,
    recovery_report,
    simulate_trials,
    trials_to_raw_log,
    write_truth_csv,
)
from helpers import simulate_ascents


def flat_world(n_climbers, n_routes, n_periods, climber_level=0.0, route_level=0.0):
    """A hand-built world where every rating is a chosen constant."""
    return SyntheticWorld(
        hyper=Hyperparameters(),
        seed=0,
        route_ids=[f"r{i:05d}" for i in range(n_routes)],
        route_grades=np.full(n_routes, 22, dtype=np.int64),
        route_ratings=np.full(n_routes, route_level),
        climber_ids=[f"c{i:05d}" for i in range(n_climbers)],
        weeks=np.arange(n_periods, dtype=np.int64),
        climber_ratings=np.full((n_climbers, n_periods), climber_level),
    )


class TestGenerateWorld:
    def test_deterministic_given_seed(self):
        a = generate_world(8, 12, 4, (18, 26), seed=42)
        b = generate_world(8, 12, 4, (18, 26), seed=42)
        assert np.array_equal(a.route_grades, b.route_grades)
        assert np.array_equal(a.route_ratings, b.route_ratings)
        assert np.array_equal(a.climber_ratings, b.climber_ratings)
        assert a.route_ids == b.route_ids
        assert a.climber_ids == b.climber_ids

    def test_different_seeds_differ(self):
        a = generate_world(8, 12, 4, (18, 26), seed=0)
        b = generate_world(8, 12, 4, (18, 26), seed=1)
        assert not np.array_equal(a.route_ratings, b.route_ratings)

    def test_documented_draw_order_is_stable(self):
        # Grades, route ratings and initial climber ratings are drawn before
        # any increments, so extending the horizon must not disturb them.
        short = generate_world(5, 7, 1, (20, 24), seed=3)
        long = generate_world(5, 7, 6, (20, 24), seed=3)
        assert np.array_equal(short.route_grades, long.route_grades)
        assert np.array_equal(short.route_ratings, long.route_ratings)
        assert np.array_equal(short.climber_ratings[:, 0], long.climber_ratings[:, 0])

    def test_zero_drift_means_constant_trajectories(self):
        world = generate_world(
            6, 3, 5, (22, 22), hyper=Hyperparameters(w_sq=0.0), seed=1
        )
        assert np.ptp(world.climber_ratings, axis=1).max() == 0.0

    def test_route_rating_moments_at_anchor_grade(self):
        world = generate_world(1, 10_000, 1, (22, 22), seed=0)
        assert abs(world.route_ratings.mean()) < 0.1
        assert abs(world.route_ratings.var() - 4.0) < 0.2

    def test_route_prior_mean_tracks_grade(self):
        hyper = Hyperparameters()
        world = generate_world(1, 30_000, 1, (30, 30), seed=2)
        expected = hyper.b * (30 - hyper.g0)
        assert world.route_ratings.mean() == pytest.approx(expected, abs=0.1)

    def test_initial_climber_rating_moments(self):
        world = generate_world(10_000, 1, 1, (22, 22), seed=5)
        initial = world.climber_ratings[:, 0]
        assert abs(initial.mean()) < 0.05
        assert abs(initial.var() - 1.0) < 0.1

    def test_grades_cover_range_inclusive(self):
        world = generate_world(1, 5_000, 1, (19, 23), seed=4)
        assert set(np.unique(world.route_grades)) == {19, 20, 21, 22, 23}

    def test_standardized_increments_have_unit_variance(self):
        world = generate_world(100, 2, 11, (22, 22), seed=6)
        # each step's rating increment over its prior standard deviation
        sd = np.sqrt(np.diff(world.weeks) * world.hyper.w_sq)
        z = np.diff(world.climber_ratings, axis=1) / sd
        assert z.size == 1000
        assert 0.8 <= float(z.var()) <= 1.2

    def test_weeks_are_consecutive(self):
        world = generate_world(2, 2, 7, (22, 22), seed=0)
        assert np.array_equal(world.weeks, np.arange(7))

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            generate_world(0, 5, 1, (20, 24))
        with pytest.raises(ValueError):
            generate_world(5, 0, 1, (20, 24))
        with pytest.raises(ValueError):
            generate_world(5, 5, 0, (20, 24))
        with pytest.raises(ValueError):
            generate_world(5, 5, 1, (24, 20))


class TestSimulateTrials:
    def test_deterministic_given_seed(self):
        world = generate_world(5, 10, 3, (20, 24), seed=0)
        a = simulate_trials(world, 4, seed=9)
        b = simulate_trials(world, 4, seed=9)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    def test_shape_and_coverage(self):
        world = generate_world(5, 10, 3, (20, 24), seed=0)
        climber_idx, period_idx, route_idx, success = simulate_trials(world, 4, seed=1)
        assert climber_idx.shape == (5 * 3 * 4,)
        assert period_idx.shape == route_idx.shape == success.shape == climber_idx.shape
        # Every climber attempts exactly 4 routes in every period.
        for c in range(5):
            for k in range(3):
                assert int(np.count_nonzero((climber_idx == c) & (period_idx == k))) == 4
        assert route_idx.min() >= 0 and route_idx.max() < 10

    def test_even_odds_success_fraction(self):
        world = flat_world(10, 5, 1)
        _, _, _, success = simulate_trials(world, 1000, seed=7)
        assert success.shape == (10_000,)
        assert abs(success.mean() - 0.5) < 0.02

    def test_extreme_odds_always_succeed(self):
        world = flat_world(4, 6, 2, climber_level=20.0, route_level=-20.0)
        _, _, _, success = simulate_trials(world, 50, seed=3)
        assert bool(success.all())

    def test_extreme_odds_always_fail(self):
        world = flat_world(4, 6, 2, climber_level=-20.0, route_level=20.0)
        _, _, _, success = simulate_trials(world, 50, seed=3)
        assert not bool(success.any())

    def test_bad_attempt_count_rejected(self):
        world = flat_world(2, 2, 1)
        with pytest.raises(ValueError):
            simulate_trials(world, 0)


class TestSimulateAscents:
    def test_deterministic_given_seeds(self):
        world = generate_world(10, 20, 3, (18, 26), seed=0)
        a = simulate_ascents(world, 6, seed=1)
        b = simulate_ascents(world, 6, seed=1)
        for column in ("climber", "route", "week", "success", "climber_ids", "route_ids",
                       "route_grades"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_output_passes_activity_filters(self):
        world = generate_world(10, 20, 3, (18, 26), seed=0)
        dataset = simulate_ascents(world, 6, seed=1)
        route_counts = np.zeros(len(dataset.route_ids), dtype=int)
        climber_failures = set()
        for climber, route, success in zip(dataset.climber.tolist(), dataset.route.tolist(),
                                           dataset.success.tolist()):
            route_counts[route] += 1
            if not success:
                climber_failures.add(climber)
        assert route_counts.min() >= 2
        assert climber_failures == set(range(len(dataset.climber_ids)))

    def test_all_successes_leave_nothing(self):
        world = flat_world(4, 6, 2, climber_level=20.0, route_level=-20.0)
        with pytest.raises(EmptyDatasetError):
            simulate_ascents(world, 50, seed=3)


class TestTrialsToRawRows:
    def test_rows_mirror_trials(self):
        world = generate_world(3, 4, 2, (20, 24), seed=0)
        trials = simulate_trials(world, 2, seed=1)
        log = trials_to_raw_log(world, trials)
        climber_idx, period_idx, route_idx, success = trials
        assert len(log) == climber_idx.shape[0]
        for i, (c, k, r, s) in enumerate(zip(climber_idx, period_idx, route_idx, success)):
            assert log.climber_id.strings()[i] == world.climber_ids[c]
            assert log.route_id.strings()[i] == world.route_ids[r]
            assert log.tick_type.strings()[i] == ("redpoint" if s else "attempt")
            assert quantize_week(log.day[i]) == int(world.weeks[k])
            assert log.grade_label.strings()[i] == str(int(world.route_grades[r]))
            assert log.grade_system.strings()[i] == "ewbank"


class TestRecoveryReport:
    def fitted_state_with_true_ratings(self, world, dataset):
        state = initialize_state(dataset, world.hyper)
        true_route = dict(zip(world.route_ids, world.route_ratings))
        state.route_ratings = np.array([true_route[rid] for rid in state.route_ids])
        row_of = {cid: i for i, cid in enumerate(world.climber_ids)}
        for c, climber_id in enumerate(state.climber_ids):
            own = state.period_owner == c
            positions = np.searchsorted(world.weeks, state.period_weeks[own])
            state.climber_ratings[own] = world.climber_ratings[row_of[climber_id], positions]
        return state

    def test_injected_truth_scores_perfectly(self):
        world = generate_world(6, 10, 3, (18, 26), seed=1)
        dataset = simulate_ascents(world, 8, seed=2)
        state = self.fitted_state_with_true_ratings(world, dataset)
        report = recovery_report(world, state)
        assert report.route_correlation == pytest.approx(1.0, abs=1e-12)
        assert report.climber_correlation == pytest.approx(1.0, abs=1e-12)
        assert report.route_rmse == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_keeps_correlation(self):
        world = generate_world(6, 10, 3, (18, 26), seed=1)
        dataset = simulate_ascents(world, 8, seed=2)
        state = self.fitted_state_with_true_ratings(world, dataset)
        state.route_ratings += 3.0
        report = recovery_report(world, state)
        assert report.route_correlation == pytest.approx(1.0, abs=1e-12)
        assert report.route_rmse == pytest.approx(3.0, abs=1e-12)

    def test_too_few_routes_rejected(self):
        world = generate_world(6, 10, 3, (18, 26), seed=1)
        dataset = simulate_ascents(world, 8, seed=2)
        state = self.fitted_state_with_true_ratings(world, dataset)
        lonely = SyntheticWorld(
            hyper=world.hyper,
            seed=world.seed,
            route_ids=world.route_ids[:1],
            route_grades=world.route_grades[:1],
            route_ratings=world.route_ratings[:1],
            climber_ids=world.climber_ids,
            weeks=world.weeks,
            climber_ratings=world.climber_ratings,
        )
        with pytest.raises(ValueError):
            recovery_report(lonely, state)


class TestWriteTruthCsv:
    def test_round_trip_values(self, tmp_path):
        world = generate_world(3, 4, 2, (20, 24), seed=0)
        path = tmp_path / "truth.csv"
        write_truth_csv(world, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["entity_type", "entity_idx", "week", "true_rating"]
        routes = [r for r in rows[1:] if r[0] == "route"]
        climbers = [r for r in rows[1:] if r[0] == "climber"]
        assert len(routes) == 4
        assert len(climbers) == 3 * 2
        assert all(r[2] == "" for r in routes)
        for r in routes:
            idx = int(r[1])
            assert float(r[3]) == pytest.approx(world.route_ratings[idx], rel=1e-8)
        for r in climbers:
            idx, week = int(r[1]), int(r[2])
            assert float(r[3]) == pytest.approx(
                world.climber_ratings[idx, week], rel=1e-8
            )
