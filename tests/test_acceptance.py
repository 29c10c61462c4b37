"""End-to-end acceptance tests.

One test per shipping criterion, each printing a single summary line
(visible with ``pytest -s``) before asserting.  Oracles are independent of
the library code paths they check: finite differences for derivatives,
exhaustive/coordinate grid search for the MAP optimum, dense linear algebra
for the tridiagonal solver, and a generative world with known ratings for
recovery.
"""

import csv
import io
import math
import time
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from cragrank.cli import main as cli_main
from cragrank.errors import EmptyDatasetError
from cragrank.evaluation import (
    baseline_log_loss,
    compute_metrics,
    cross_validate_predictions,
    make_fold_plan,
)
from cragrank.ingest import (
    RAW_COLUMNS,
    parse_ascent_log,
    preprocess,
)
from cragrank.model import Hyperparameters
from cragrank.solver import (
    climber_derivatives,
    fit,
    initialize_state,
    outcome_probabilities,
    route_derivatives,
    solve_tridiagonal,
    tridiagonal_plan,
)
from cragrank.synthetic import (
    generate_world,
    recovery_report,
)
from helpers import (
    F,
    S,
    central_difference,
    dataset_to_raw_log,
    level_matched_dataset,
    make_dataset,
    relative_error,
    simulate_ascents,
)


def announce(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number:02d}] {status} — {detail}", flush=True)


# ---------------------------------------------------------------------------
# Criterion 1 — metric arithmetic on the reference contingency counts


def test_criterion_01_metric_arithmetic():
    tp, fp, fn, tn = 161253, 16968, 10755, 47119
    predictions = np.concatenate([np.full(tp + fp, 0.9), np.full(fn + tn, 0.1)])
    actuals = [S] * tp + [F] * fp + [S] * fn + [F] * tn
    report = compute_metrics(predictions, actuals)
    checks = {
        "accuracy": (report.accuracy, 0.883, 0.0005),
        "balanced_accuracy": (report.balanced_accuracy, 0.836, 0.0005),
        "precision": (report.precision, 0.905, 0.0005),
        "recall": (report.recall, 0.937, 0.0005),
    }
    ok = all(abs(got - want) <= tol for got, want, tol in checks.values())
    detail = ", ".join(
        f"{name}={got:.6f} (want {want}±{tol})"
        for name, (got, want, tol) in checks.items()
    )
    announce(1, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# Criterion 2 — baseline log-loss value at the reference mean success rate


def test_criterion_02_baseline_log_loss():
    value = baseline_log_loss(0.727)
    ok = abs(value - 0.585) <= 0.001
    detail = f"baseline_log_loss(0.727)={value:.7f} (want 0.585±0.001)"
    announce(2, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# Criteria 3 & 4 — hand-written log posterior on random small instances


def _log_density_machine(dataset, hyper):
    """Hand-written log posterior over a flat coordinate vector.

    Coordinates are all (climber, period) ratings in climber-major order,
    followed by all route ratings.  Written directly from the model formulas
    with numpy/math primitives only.
    """
    ascent_climbers, ascent_weeks = dataset.climber.tolist(), dataset.week.tolist()
    weeks_of = {}
    for climber, week in zip(ascent_climbers, ascent_weeks):
        weeks_of.setdefault(climber, set()).add(week)
    weeks_of = {c: sorted(ws) for c, ws in sorted(weeks_of.items())}
    coord_of = {}
    for c, weeks in weeks_of.items():
        for w in weeks:
            coord_of[(c, w)] = len(coord_of)
    route_base = len(coord_of)
    n_coords = route_base + len(dataset.route_ids)

    climber_coord = np.array(
        [coord_of[(c, w)] for c, w in zip(ascent_climbers, ascent_weeks)]
    )
    route_coord = route_base + dataset.route
    sign = np.where(dataset.success, 1.0, -1.0)
    route_prior = hyper.b * (dataset.route_grades - hyper.g0)

    def log_f(x):
        """The log posterior at a vector, or at each row of a matrix."""
        rows = np.atleast_2d(x)
        # take() keeps each row's terms contiguous, so that every row is summed
        # exactly as a single vector is
        z = sign * (rows.take(climber_coord, axis=1) - rows.take(route_coord, axis=1))
        total = -np.logaddexp(0.0, -z).sum(axis=1)
        for c, weeks in weeks_of.items():
            first = rows[:, coord_of[(c, weeks[0])]]
            total -= first * first / (2.0 * hyper.sigma_c_sq)
            for k in range(1, len(weeks)):
                variance = (weeks[k] - weeks[k - 1]) * hyper.w_sq
                step = rows[:, coord_of[(c, weeks[k])]] - rows[:, coord_of[(c, weeks[k - 1])]]
                total -= step * step / (2.0 * variance)
        deviations = rows[:, route_base:] - route_prior
        total -= (deviations * deviations).sum(axis=1) / (2.0 * hyper.sigma_r_sq)
        return total if np.ndim(x) == 2 else float(total[0])

    return log_f, coord_of, route_base, n_coords


def _random_small_instance(seed):
    rng = np.random.default_rng(seed)
    n_climbers = int(rng.integers(1, 4))
    n_routes = int(rng.integers(1, 4))
    ascents = []
    for c in range(n_climbers):
        n_periods = int(rng.integers(1, 4))
        weeks = np.sort(rng.choice(np.arange(0, 40, 3), size=n_periods, replace=False))
        for w in weeks:
            for _ in range(int(rng.integers(1, 4))):
                ascents.append(
                    (c, int(rng.integers(0, n_routes)), int(w),
                                 S if rng.random() < 0.55 else F)
                )
    for r in range(n_routes):
        if not any(a[1] == r for a in ascents):
            ascents.append((0, r, int(ascents[0][2]), F))
    grades = [int(g) for g in rng.integers(18, 28, size=n_routes)]
    return make_dataset(ascents, n_routes, n_climbers, grades)


# ---------------------------------------------------------------------------
# Criterion 3 — the solver's derivatives vs central finite differences


def _log_gradient_machine(dataset, hyper, coord_of, route_base, n_coords):
    """Hand-written gradient of :func:`_log_density_machine`'s log posterior.

    Same coordinates; written directly from the model formulas with numpy
    primitives only.
    """
    climber_coord = np.array(
        [coord_of[(c, w)] for c, w in zip(dataset.climber.tolist(), dataset.week.tolist())]
    )
    route_coord = route_base + dataset.route
    won = dataset.success.astype(float)
    route_prior = hyper.b * (dataset.route_grades - hyper.g0)

    def gradient(x):
        p = 1.0 / (1.0 + np.exp(x[route_coord] - x[climber_coord]))
        g = np.zeros(n_coords)
        np.add.at(g, climber_coord, won - p)
        np.add.at(g, route_coord, p - won)
        previous = None
        for (c, week), i in coord_of.items():
            if previous is None or previous[0] != c:
                g[i] -= x[i] / hyper.sigma_c_sq
            else:
                _, previous_week, h = previous
                pull = (x[i] - x[h]) / ((week - previous_week) * hyper.w_sq)
                g[h] += pull
                g[i] -= pull
            previous = (c, week, i)
        g[route_base:] -= (x[route_base:] - route_prior) / hyper.sigma_r_sq
        return g

    return gradient


def _check_derivatives_config(seed, rng):
    """Worst relative error of the solver's derivatives at one random coordinate each.

    Gradients are checked against central differences of the log posterior,
    Hessian entries against central differences of its hand-written
    gradient: a second difference of the log posterior itself loses too many
    digits at step 1e-6 to support a 1e-5 tolerance.
    """
    hyper = Hyperparameters(
        sigma_c_sq=float(rng.uniform(0.2, 5.0)),
        sigma_r_sq=float(rng.uniform(0.5, 10.0)),
        w_sq=float(rng.uniform(0.001, 0.5)),
        g0=int(rng.integers(16, 29)),
        b=float(rng.uniform(0.1, 0.8)),
    )
    dataset = _random_small_instance(seed)
    log_f, coord_of, route_base, n_coords = _log_density_machine(dataset, hyper)
    gradient = _log_gradient_machine(dataset, hyper, coord_of, route_base, n_coords)
    state = initialize_state(dataset, hyper)
    state.climber_ratings = rng.uniform(-6.0, 6.0, size=state.climber_ratings.shape[0])
    state.route_ratings = rng.uniform(-6.0, 6.0, size=state.route_ratings.shape[0])
    period_coord = [coord_of[(int(c), int(w))]
                    for c, w in zip(state.period_owner, state.period_weeks)]
    x = np.zeros(n_coords)
    x[period_coord] = state.climber_ratings
    x[route_base:] = state.route_ratings

    def partial(f, i):
        """Central difference of ``f`` in coordinate ``i`` at ``x``."""
        unit = np.arange(n_coords) == i
        return central_difference(lambda t: f(np.where(unit, t, x)), x[i])

    errors = []
    grad, hess_diag, hess_off = climber_derivatives(state, outcome_probabilities(state))
    k = int(rng.integers(0, len(period_coord)))
    i = period_coord[k]
    column = partial(gradient, i)
    errors.append(relative_error(grad[k], partial(log_f, i)))
    errors.append(relative_error(hess_diag[k], column[i]))
    if k > 0:
        errors.append(relative_error(hess_off[k - 1], column[period_coord[k - 1]]))
    if k + 1 < len(period_coord):
        errors.append(relative_error(hess_off[k], column[period_coord[k + 1]]))

    grad, hess = route_derivatives(state, outcome_probabilities(state))
    j = int(rng.integers(0, len(dataset.route_ids)))
    errors.append(relative_error(grad[j], partial(log_f, route_base + j)))
    column = partial(gradient, route_base + j)
    errors.append(relative_error(hess[j], column[route_base + j]))
    return max(errors)


def test_criterion_03_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = max(_check_derivatives_config(seed, rng) for seed in range(1000))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 5.0
    detail = (f"1000 configs, worst relative error {worst:.3g} (limit 1e-5), "
              f"{elapsed:.2f}s (limit 5s)")
    announce(3, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# Criterion 4 — fitted ratings vs grid-search MAP


def _scan_coordinate(log_f, x, i, lo, hi, step):
    """Set ``x[i]`` to the first grid candidate of highest ``log_f``, scored in one call."""
    candidates = np.arange(lo, hi + step * 0.5, step)
    rows = np.tile(x, (candidates.shape[0], 1))
    rows[:, i] = candidates
    x[i] = candidates[np.argmax(log_f(rows))]
    return x[i]


def _coordinate_grid_map(log_f, n_coords):
    """Per-coordinate exhaustive grid maximization, refined to step 1e-8."""
    x = np.zeros(n_coords)
    for sweep in range(200):
        biggest_move = 0.0
        for i in range(n_coords):
            old = x[i]
            if sweep == 0:
                lo, hi, step = -10.0, 10.0, 0.1
            else:
                lo, hi, step = old - 0.2, old + 0.2, 0.01
            best = _scan_coordinate(log_f, x, i, lo, hi, step)
            for _ in range(6):
                step /= 10.0
                best = _scan_coordinate(
                    log_f, x, i, best - 20.0 * step, best + 20.0 * step, step
                )
            biggest_move = max(biggest_move, abs(x[i] - old))
        if biggest_move < 1e-7:
            break
    return x


def _max_fit_vs_oracle_gap(dataset, oracle, coord_of, route_base):
    state, _ = fit(dataset, None, 3000, convergence_span=1e-10)
    gap = 0.0
    for k, ci in enumerate(state.period_owner.tolist()):
        coord = coord_of[(ci, int(state.period_weeks[k]))]
        gap = max(gap, abs(float(state.climber_ratings[k]) - oracle[coord]))
    for ri, rating in enumerate(state.route_ratings):
        gap = max(gap, abs(float(rating) - oracle[route_base + ri]))
    return gap


def test_criterion_04_map_matches_grid_search():
    start = time.perf_counter()

    # Part 1: exhaustive 2-D grid over [-5, 5]^2 at step 1e-3 for the
    # 1-climber/1-route fixture (3 successes, 2 failures, defaults).
    grid = np.arange(-5.0, 5.0 + 5e-4, 1e-3)
    best_value, best_climber, best_route = -math.inf, 0.0, 0.0
    for c in grid:
        z = c - grid
        values = (
            3.0 * -np.logaddexp(0.0, -z)
            + 2.0 * -np.logaddexp(0.0, z)
            - c * c / 2.0
            - grid * grid / 8.0
        )
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_value, best_climber, best_route = float(values[i]), float(c), float(grid[i])

    fixture = make_dataset(
        [(0, 0, 0, S)] * 3 + [(0, 0, 0, F)] * 2,
        n_routes=1,
        n_climbers=1,
    )
    state, _ = fit(fixture, None, 3000, convergence_span=1e-10)
    fixture_gap = max(
        abs(float(state.climber_ratings[0]) - best_climber),
        abs(float(state.route_ratings[0]) - best_route),
    )

    # Part 2: five randomized small instances vs per-coordinate grid search.
    instance_gap = 0.0
    for seed in range(5):
        dataset = _random_small_instance(seed)
        log_f, coord_of, route_base, n_coords = _log_density_machine(
            dataset, Hyperparameters()
        )
        oracle = _coordinate_grid_map(log_f, n_coords)
        instance_gap = max(
            instance_gap,
            _max_fit_vs_oracle_gap(dataset, oracle, coord_of, route_base),
        )

    elapsed = time.perf_counter() - start
    ok = fixture_gap <= 1e-3 and instance_gap <= 1e-3 and elapsed < 60.0
    detail = (f"fixture gap {fixture_gap:.2e}, randomized-instance gap "
              f"{instance_gap:.2e} (limit 1e-3), {elapsed:.1f}s (limit 60s)")
    announce(4, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# Criterion 5 — tridiagonal solver vs dense linear algebra


def test_criterion_05_tridiagonal_matches_dense_solver():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        off = -rng.uniform(0.05, 2.0, size=max(n - 1, 0))
        dominance = np.zeros(n)
        if n > 1:
            dominance[:-1] += np.abs(off)
            dominance[1:] += np.abs(off)
        diag = -(dominance + rng.uniform(0.1, 3.0, size=n))
        rhs = rng.normal(size=n)
        got = solve_tridiagonal(diag, rhs, tridiagonal_plan(off))
        dense = np.diag(diag)
        if n > 1:
            dense += np.diag(off, 1) + np.diag(off, -1)
        worst = max(worst, float(np.abs(got - np.linalg.solve(dense, rhs)).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    detail = (f"200 systems ≤ dim 50, worst deviation {worst:.2e} "
              f"(limit 1e-10), {elapsed:.2f}s (limit 5s)")
    announce(5, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# Criteria 6 & 7 — synthetic recovery and the convergence protocol


@pytest.fixture(scope="module")
def recovery_fit():
    world = generate_world(100, 200, 10, (18, 28), seed=0)
    dataset = simulate_ascents(world, 20, seed=1)
    start = time.perf_counter()
    state, report = fit(dataset, None, 1000)
    seconds = time.perf_counter() - start
    return world, dataset, state, report, seconds


def test_criterion_06_synthetic_recovery(recovery_fit):
    world, dataset, state, _, fit_seconds = recovery_fit
    start = time.perf_counter()
    correlation = recovery_report(world, state).route_correlation
    plan = make_fold_plan(dataset, k=5, repeats=1, seed=0)
    held_out = compute_metrics(*cross_validate_predictions(dataset, None, plan)[:2])
    gain = held_out.accuracy - held_out.baseline_accuracy
    elapsed = fit_seconds + time.perf_counter() - start
    ok = correlation > 0.9 and gain >= 0.05 and elapsed < 120.0
    detail = (f"route correlation {correlation:.4f} (need >0.9), held-out "
              f"accuracy {held_out.accuracy:.4f} vs baseline "
              f"{held_out.baseline_accuracy:.4f} (gain {gain * 100:.1f}pp, "
              f"need ≥5pp), {elapsed:.1f}s (limit 120s)")
    announce(6, ok, detail)
    assert ok, detail


def test_criterion_07_convergence_protocol(recovery_fit):
    _, _, state, report, _ = recovery_fit
    history = state.bt_log_likelihood_history
    window_span = max(history[-9:]) - min(history[-9:])
    ok = (
        report.converged
        and report.iterations < 1000
        and len(history) >= 9
        and window_span <= 1.0
        and history[-1] > history[0]
    )
    detail = (f"converged={report.converged} after {report.iterations} "
              f"iterations, last-9 span {window_span:.4f} (limit 1.0), "
              f"log-likelihood {history[0]:.1f} → {history[-1]:.1f}")
    announce(7, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# Criterion 8 — byte-identical CLI fits across runs and thread counts


def test_criterion_08_cli_determinism(tmp_path):
    header = "climber_id,route_id,tick_type,date,grade_label,grade_system\n"
    rng = np.random.default_rng(8)
    lines = []
    for c in range(6):
        for week_day in ("2020-01-06", "2020-03-02"):
            for _ in range(4):
                tick = "redpoint" if rng.random() < 0.6 else "attempt"
                lines.append(
                    f"c{c},r{rng.integers(0, 5)},{tick},{week_day},22,ewbank"
                )
    raw = tmp_path / "raw.csv"
    raw.write_text(header + "".join(f"{line}\n" for line in lines), encoding="utf-8")
    dataset_dir = tmp_path / "dataset"
    assert cli_main(["preprocess", str(raw), "--out", str(dataset_dir)]) == 0

    trees = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        code = cli_main(["fit", str(dataset_dir), "--out", str(out),
                         "--threads", threads])
        assert code == 0
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = trees[0] == trees[1] == trees[2]
    detail = ("rating files byte-identical across two runs and threads 1 vs 4"
              if ok else "outputs differ between runs or thread counts")
    announce(8, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# Criterion 9 — pipeline invariants over randomized raw logs


def _random_raw_log(rng):
    ticks = ["onsight", "redpoint", "flash", "dog", "attempt", "hangdog",
             "pinkpoint", "mystery-tick", "", "top rope"]
    grade_labels = ["18", "20", "21", "22", "24", "27", "5.11a", "x"]
    systems = ["ewbank", "ewbank", "ewbank", "yds"]
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(RAW_COLUMNS)
    for _ in range(int(rng.integers(1, 60))):
        writer.writerow([
            f"c{rng.integers(0, 8)}",
            f"r{rng.integers(0, 10)}",
            ticks[int(rng.integers(0, len(ticks)))],
            (date(2015, 1, 5) + timedelta(days=int(rng.integers(0, 2200)))).isoformat(),
            grade_labels[int(rng.integers(0, len(grade_labels)))],
            systems[int(rng.integers(0, len(systems)))],
        ])
    text.seek(0)
    return parse_ascent_log(text)


def test_criterion_09_pipeline_invariants():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    survived = 0
    for _ in range(500):
        log = _random_raw_log(rng)
        try:
            dataset = preprocess(log)
        except EmptyDatasetError:
            continue
        survived += 1

        route_counts = np.zeros(len(dataset.route_ids), dtype=int)
        climbers_with_failure = set()
        for climber, route, success in zip(dataset.climber.tolist(), dataset.route.tolist(),
                                           dataset.success.tolist()):
            route_counts[route] += 1
            if not success:
                climbers_with_failure.add(climber)
        assert route_counts.min() >= 2, "route with fewer than two ascents survived"
        assert climbers_with_failure == set(range(len(dataset.climber_ids)))

        again = preprocess(dataset_to_raw_log(dataset))
        for column in ("climber", "route", "week", "success", "climber_ids", "route_ids",
                       "route_grades"):
            assert np.array_equal(getattr(again, column), getattr(dataset, column))
        assert again.provenance["rows_kept"] == again.provenance["rows_read"]
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0 and survived > 100
    detail = (f"500 randomized logs ({survived} non-empty), invariants and "
              f"idempotence held, {elapsed:.1f}s (limit 30s)")
    announce(9, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# Criterion 10 — fit at full logbook scale, with linear memory


def test_criterion_10_scale_and_memory():
    dataset = level_matched_dataset(3000, 8900, 20, 4, world_seed=0, log_seed=1)
    n_ascents = len(dataset)

    start = time.perf_counter()
    _, report = fit(dataset, None, 1000)
    fit_seconds = time.perf_counter() - start

    peaks = []
    for n_climbers, n_routes in ((750, 2225), (1500, 4450)):
        small = level_matched_dataset(n_climbers, n_routes, 20, 4,
                                       world_seed=0, log_seed=1)
        tracemalloc.start()
        fit(small, None, 12, convergence_span=0.0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks.append((len(small), peak))
    (n_small, peak_small), (n_large, peak_large) = peaks
    memory_ratio = peak_large / peak_small

    ok = (
        n_ascents >= 200_000
        and report.converged
        and fit_seconds < 600.0
        and memory_ratio < 3.0
    )
    detail = (f"{n_ascents} ascents fitted in {fit_seconds:.1f}s "
              f"(limit 600s), converged={report.converged} after "
              f"{report.iterations} iterations; fixed-iteration memory "
              f"{peak_small / 1e6:.0f}MB@{n_small} → {peak_large / 1e6:.0f}MB@"
              f"{n_large} ascents, ratio {memory_ratio:.2f} (limit 3.0)")
    announce(10, ok, detail)
    assert ok, detail
