"""Independent checks of the CLI's output files.

Every expected value is recomputed here with numpy from the benchmark's own
knowledge of the inputs or from the files another command wrote; nothing
is imported from ``cragrank`` and nothing is compared with a stored copy of
earlier output.  The model constants are the documented CLI defaults.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from inputs import KEPT, AMBIGUOUS, INVALID_GRADE, NON_EWBANK, AscentLog

# Documented default hyperparameters and the logistic clamp.
SIGMA_C_SQ = 1.0
SIGMA_R_SQ = 4.0
W_SQ = 1.0 / 52.0
G0 = 22
B = 0.4
DIFF_CLAMP = 36.0

# Largest |d log posterior / d rating| accepted as a stationary point.  A
# converged fit leaves about 1e-3 at 240k ascents and 1e-2 at 20k; a fit
# stuck in a cycle leaves tens.
GRADIENT_TOLERANCE = 0.25
# Floats in output files carry 9 significant digits.
REL_TOLERANCE = 1e-6

PROVENANCE_KEYS = ("rows_read", "dropped_ambiguous_tick", "dropped_non_ewbank",
                   "dropped_invalid_grade", "dropped_route_few_ascents",
                   "dropped_climber_no_failure", "rows_kept")


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a comma-separated file without quoted fields, as strings."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path.name}: ragged rows")
    columns = list(zip(*rows)) if rows else [()] * len(header)
    return {name: np.array(col, dtype=object) for name, col in zip(header, columns)}


def read_keyvalues(path: Path) -> dict[str, str]:
    pairs = (line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines() if line)
    return {key: value for key, value in pairs}


def _close(actual: float, expected: float, rel: float = REL_TOLERANCE) -> bool:
    return abs(actual - expected) <= rel * max(abs(expected), 1.0)


def _probability(climber_rating, route_rating):
    return 1.0 / (1.0 + np.exp(-np.clip(climber_rating - route_rating, -DIFF_CLAMP, DIFF_CLAMP)))


# ---------------------------------------------------------------------------
# Expectations computed from the generated rows


class CleanExpectation:
    """The cleaning result the benchmark derives from rows it generated.

    Row-level drops are known by construction.  The activity fixpoint is
    recomputed with bincounts: routes with fewer than two ascents go, then
    climbers without a failure, until a round removes nothing.  A route's
    grade is the lower median of the grades its graded rows report.
    """

    def __init__(self, log: AscentLog):
        kept = log.kind == KEPT
        climber, route = log.climber_id[kept], log.route_id[kept]
        week, success, grade = log.week[kept], log.success[kept], log.grade[kept]
        route_names, route_code = np.unique(route, return_inverse=True)
        climber_names, climber_code = np.unique(climber, return_inverse=True)

        by_route = np.lexsort((grade, route_code))
        starts = np.searchsorted(route_code[by_route], np.arange(route_names.shape[0]))
        counts = np.bincount(route_code, minlength=route_names.shape[0])
        median = grade[by_route][starts + (counts - 1) // 2]
        self.route_grade = dict(zip(route_names.tolist(), median.tolist()))

        alive = np.ones(climber.shape[0], bool)
        dropped_route = dropped_climber = 0
        while True:
            before = int(alive.sum())
            per_route = np.bincount(route_code[alive], minlength=route_names.shape[0])
            alive &= per_route[route_code] >= 2
            after_routes = int(alive.sum())
            dropped_route += before - after_routes
            failures = np.bincount(climber_code[alive & ~success],
                                   minlength=climber_names.shape[0])
            alive &= failures[climber_code] > 0
            dropped_climber += after_routes - int(alive.sum())
            if int(alive.sum()) == before:
                break

        self.provenance = {
            "rows_read": len(log),
            "dropped_ambiguous_tick": int((log.kind == AMBIGUOUS).sum()),
            "dropped_non_ewbank": int((log.kind == NON_EWBANK).sum()),
            "dropped_invalid_grade": int((log.kind == INVALID_GRADE).sum()),
            "dropped_route_few_ascents": dropped_route,
            "dropped_climber_no_failure": dropped_climber,
            "rows_kept": int(alive.sum()),
        }
        self.ascents = _ascent_keys(climber[alive], route[alive], week[alive], success[alive])
        self.true_route_rating = log.true_route_rating


def _ascent_keys(climber, route, week, success) -> np.ndarray:
    """Ascents as sorted 'climber|route|week|outcome' strings, for multiset equality."""
    keys = [f"{c}|{r}|{w}|{int(s)}" for c, r, w, s in zip(climber, route, week.tolist(),
                                                          success.tolist())]
    return np.sort(np.array(keys, dtype=object))


# ---------------------------------------------------------------------------
# A cleaned dataset and a fit, as read back from files


class Dataset:
    """``cragrank preprocess`` output with ids resolved."""

    def __init__(self, directory: Path):
        ascents = read_csv(directory / "ascents.csv")
        routes = read_csv(directory / "routes.csv")
        climbers = read_csv(directory / "climbers.csv")
        self.route_ids = routes["route_id"]
        self.route_grade = routes["grade"].astype(np.int64)
        self.climber_ids = climbers["climber_id"]
        self.climber = ascents["climber_idx"].astype(np.int64)
        self.route = ascents["route_idx"].astype(np.int64)
        self.week = ascents["week"].astype(np.int64)
        self.success = ascents["outcome"].astype(np.int64) == 1
        self.provenance = {k: int(v) for k, v in
                           read_keyvalues(directory / "provenance.txt").items()}


class Ratings:
    """``cragrank fit`` output: route ratings and per-week climber ratings."""

    def __init__(self, directory: Path):
        routes = read_csv(directory / "route_ratings.csv")
        climbers = read_csv(directory / "climber_ratings.csv")
        self.route_ids = routes["route_id"]
        self.route_rating = routes["rating"].astype(float)
        self.route_text = routes["rating"]
        self.climber_idx = climbers["climber_idx"].astype(np.int64)
        self.climber_ids = climbers["climber_id"]
        self.week = climbers["week"].astype(np.int64)
        self.climber_rating = climbers["rating"].astype(float)
        self.report = read_keyvalues(directory / "fit_report.txt")

    def climber_period(self, climber_idx: np.ndarray, week: np.ndarray) -> np.ndarray:
        """Row of the exact (climber, week) period; -1 where there is none."""
        key = self.climber_idx * 1_000_000 + self.week
        order = np.argsort(key, kind="stable")
        wanted = climber_idx * 1_000_000 + week
        pos = np.clip(np.searchsorted(key[order], wanted), 0, key.shape[0] - 1)
        row = order[pos]
        return np.where(key[row] == wanted, row, -1)


# ---------------------------------------------------------------------------
# Per-command checks


def check_preprocess(dataset_dir: Path, expect: CleanExpectation) -> list[str]:
    problems = []
    data = Dataset(dataset_dir)
    for key in PROVENANCE_KEYS:
        if data.provenance.get(key) != expect.provenance[key]:
            problems.append(f"provenance {key}={data.provenance.get(key)}, "
                            f"expected {expect.provenance[key]}")
    got = _ascent_keys(data.climber_ids[data.climber], data.route_ids[data.route],
                       data.week, data.success)
    if got.shape != expect.ascents.shape or not np.array_equal(got, expect.ascents):
        problems.append("cleaned ascents differ from the expected survivors")
    grades = [expect.route_grade.get(rid) for rid in data.route_ids.tolist()]
    if grades != data.route_grade.tolist():
        problems.append("route grades are not the lower medians of reported grades")
    if list(data.route_ids) != sorted(data.route_ids) or \
            list(data.climber_ids) != sorted(data.climber_ids):
        problems.append("entity tables are not sorted by id")
    if (np.bincount(data.route, minlength=data.route_ids.shape[0]) < 2).any():
        problems.append("a route has fewer than 2 ascents")
    failures = np.bincount(data.climber[~data.success], minlength=data.climber_ids.shape[0])
    if (failures == 0).any():
        problems.append("a climber has no failed ascent")
    return problems


def log_posterior_gradient(data: Dataset, ratings: Ratings) -> tuple[np.ndarray, np.ndarray]:
    """d log posterior / d rating for every climber period and every route."""
    period = ratings.climber_period(data.climber, data.week)
    if (period < 0).any():
        raise ValueError("an ascent's climber week has no rating")
    p = _probability(ratings.climber_rating[period], ratings.route_rating[data.route])
    y = data.success.astype(float)
    climber_grad = np.bincount(period, weights=y - p, minlength=ratings.climber_rating.shape[0])
    route_grad = np.bincount(data.route, weights=p - y, minlength=ratings.route_rating.shape[0])
    route_grad -= (ratings.route_rating - B * (data.route_grade - G0)) / SIGMA_R_SQ

    # Climber priors: N(0, sigma_c^2) at the first week, then a random walk.
    order = np.lexsort((ratings.week, ratings.climber_idx))
    c, w, r = ratings.climber_idx[order], ratings.week[order], ratings.climber_rating[order]
    first = np.ones(c.shape[0], bool)
    first[1:] = c[1:] != c[:-1]
    prior = np.where(first, -r / SIGMA_C_SQ, 0.0)
    link = ~first[1:]
    pull = np.zeros(c.shape[0])
    step = (r[1:] - r[:-1]) / np.maximum((w[1:] - w[:-1]) * W_SQ, 1e-12)
    pull[1:] -= np.where(link, step, 0.0)
    pull[:-1] += np.where(link, step, 0.0)
    climber_grad[order] += prior + pull
    return climber_grad, route_grad


def bt_log_likelihood(data: Dataset, ratings: Ratings) -> float:
    period = ratings.climber_period(data.climber, data.week)
    z = np.clip(ratings.climber_rating[period] - ratings.route_rating[data.route],
                -DIFF_CLAMP, DIFF_CLAMP)
    z = np.where(data.success, z, -z)
    return float(-np.logaddexp(0.0, -z).sum())


def check_fit(dataset_dir: Path, ratings_dir: Path, expect: CleanExpectation,
              min_route_correlation: float) -> list[str]:
    problems = []
    data = Dataset(dataset_dir)
    ratings = Ratings(ratings_dir)
    if list(ratings.route_ids) != list(data.route_ids):
        return ["route_ratings.csv does not list the dataset's routes"]
    periods = set(zip(data.climber.tolist(), data.week.tolist()))
    if periods != set(zip(ratings.climber_idx.tolist(), ratings.week.tolist())) or \
            len(periods) != ratings.week.shape[0]:
        return ["climber_ratings.csv does not hold one rating per logged climber week"]
    if ratings.report.get("converged") != "true":
        problems.append(f"fit_report says converged={ratings.report.get('converged')} "
                        f"after {ratings.report.get('iterations')} iterations")
    climber_grad, route_grad = log_posterior_gradient(data, ratings)
    worst = max(float(np.abs(climber_grad).max()), float(np.abs(route_grad).max()))
    if worst > GRADIENT_TOLERANCE:
        problems.append(f"not a stationary point: largest |gradient| {worst:.3g} "
                        f"> {GRADIENT_TOLERANCE}")
    reported = float(ratings.report.get("final_bt_log_likelihood", "nan"))
    own = bt_log_likelihood(data, ratings)
    if not _close(reported, own):
        problems.append(f"final_bt_log_likelihood {reported} != recomputed {own:.9g}")
    truth = np.array([expect.true_route_rating[r] for r in ratings.route_ids.tolist()])
    corr = float(np.corrcoef(truth, ratings.route_rating)[0, 1])
    if not corr >= min_route_correlation:
        problems.append(f"route ratings correlate {corr:.3f} with the truth "
                        f"(< {min_route_correlation})")
    return problems


def _metrics(p: np.ndarray, y: np.ndarray) -> dict[str, float]:
    """Report values the CLI documents, recomputed from probabilities."""
    hit = p > 0.5
    tp, fp = int((hit & y).sum()), int((hit & ~y).sum())
    fn, tn = int((~hit & y).sum()), int((~hit & ~y).sum())
    a = float(y.mean())
    return {
        "log_loss": float(-np.mean(np.where(y, np.log(p), np.log1p(-p)))),
        "accuracy": (tp + tn) / y.shape[0],
        "tp": tp, "fp": fp, "fn": fn, "tn": tn,
        "baseline_log_loss": _entropy(a),
        "baseline_accuracy": max(a, 1.0 - a),
    }


def _entropy(a: float) -> float:
    return -(a * np.log(a) if a > 0 else 0.0) - ((1 - a) * np.log1p(-a) if a < 1 else 0.0)


def _compare_report(report: dict[str, str], expected: dict[str, float]) -> list[str]:
    problems = []
    for key, value in expected.items():
        if key not in report:
            problems.append(f"report.txt lacks {key}")
        elif isinstance(value, int):
            if int(report[key]) != value:
                problems.append(f"report {key}={report[key]}, expected {value}")
        elif not _close(float(report[key]), value):
            problems.append(f"report {key}={report[key]}, expected {value:.9g}")
    return problems


def check_pr_curve(path: Path) -> list[str]:
    curve = read_csv(path)
    marker = curve["classifier_point"] == "1"
    threshold = curve["threshold"][~marker].astype(float)
    recall = curve["recall"][~marker].astype(float)
    problems = []
    if int(marker.sum()) != 1:
        problems.append("precision-recall curve lacks exactly one classifier point")
    # Distinct thresholds can print alike at 9 significant digits.
    if threshold.size == 0 or (np.diff(threshold) > 0).any():
        problems.append("precision-recall thresholds do not descend")
    if threshold.size and (np.diff(recall) < 0).any():
        problems.append("precision-recall curve: recall falls as the threshold drops")
    if threshold.size and recall[-1] != 1.0:
        problems.append(f"last precision-recall point has recall {recall[-1]}, not 1")
    return problems


def check_evaluate(dataset_dir: Path, ratings_dir: Path, eval_dir: Path) -> list[str]:
    data = Dataset(dataset_dir)
    ratings = Ratings(ratings_dir)
    period = ratings.climber_period(data.climber, data.week)
    p = _probability(ratings.climber_rating[period], ratings.route_rating[data.route])
    report = read_keyvalues(eval_dir / "report.txt")
    problems = _compare_report(report, _metrics(p, data.success))
    problems += check_pr_curve(eval_dir / "pr_curve.csv")
    vs = read_csv(eval_dir / "ratings_vs_grades.csv")
    if list(vs["rating"]) != list(ratings.route_text) or \
            not np.allclose(vs["prior_mean"].astype(float), B * (data.route_grade - G0)):
        problems.append("ratings_vs_grades.csv disagrees with the fitted routes")
    slope, intercept = np.polyfit(data.route_grade, ratings.route_rating, 1)
    resid = ratings.route_rating - (slope * data.route_grade + intercept)
    centred = ratings.route_rating - ratings.route_rating.mean()
    r_squared = 1.0 - float((resid ** 2).sum()) / float((centred ** 2).sum())
    if not _close(float(report.get("ratings_grades_r_squared", "nan")), r_squared, 1e-5):
        problems.append(f"ratings_grades_r_squared={report.get('ratings_grades_r_squared')}, "
                        f"expected {r_squared:.9g}")
    return problems


def expected_predictions(ratings: Ratings, queries: list[tuple[str, str, int]]):
    """Probability and fallback label of every query, nearest week, ties earlier."""
    route_of = dict(zip(ratings.route_ids.tolist(), ratings.route_rating.tolist()))
    order = np.lexsort((ratings.week, ratings.climber_idx))
    c_idx, weeks, values = (ratings.climber_idx[order], ratings.week[order],
                            ratings.climber_rating[order])
    code_of = dict(zip(ratings.climber_ids[order].tolist(), c_idx.tolist()))
    starts = np.searchsorted(c_idx, np.arange(int(c_idx.max()) + 2))
    probabilities, fallbacks = [], []
    for climber, route, week in queries:
        missing = []
        code = code_of.get(climber)
        if code is None:
            climber_rating = 0.0
            missing.append("climber")
        else:
            lo, hi = starts[code], starts[code + 1]
            pos = lo + int(np.searchsorted(weeks[lo:hi], week))
            if pos == lo:
                climber_rating = values[lo]
            elif pos == hi:
                climber_rating = values[hi - 1]
            else:
                earlier = week - weeks[pos - 1] <= weeks[pos] - week
                climber_rating = values[pos - 1] if earlier else values[pos]
        route_rating = route_of.get(route)
        if route_rating is None:
            route_rating = 0.0
            missing.append("route")
        probabilities.append(_probability(climber_rating, route_rating))
        fallbacks.append("+".join(missing) or "none")
    return np.array(probabilities), fallbacks


def check_predict(ratings_dir: Path, queries: list[tuple[str, str, int]],
                  predictions_path: Path) -> list[str]:
    out = read_csv(predictions_path)
    if out["week"].shape[0] != len(queries):
        return [f"{out['week'].shape[0]} predictions for {len(queries)} queries"]
    echoed = list(zip(out["climber_id"].tolist(), out["route_id"].tolist(),
                      out["week"].astype(np.int64).tolist()))
    if echoed != queries:
        return ["predictions do not echo the queries in order"]
    expected_p, expected_fallback = expected_predictions(Ratings(ratings_dir), queries)
    problems = []
    wrong_p = np.abs(out["probability"].astype(float) - expected_p) > 1e-7
    if wrong_p.any():
        problems.append(f"{int(wrong_p.sum())} probabilities differ from the recomputation")
    wrong_f = sum(a != b for a, b in zip(out["fallback"].tolist(), expected_fallback))
    if wrong_f:
        problems.append(f"{wrong_f} fallback values differ from the recomputation")
    return problems


def check_crossval(dataset_dir: Path, cv_dir: Path, repeats: int) -> list[str]:
    data = Dataset(dataset_dir)
    report = read_keyvalues(cv_dir / "report.txt")
    problems = []
    total = sum(int(report[key]) for key in ("tp", "fp", "fn", "tn"))
    if total != repeats * data.success.shape[0]:
        problems.append(f"contingency total {total} != {repeats} x {data.success.shape[0]}")
    a = float(data.success.mean())
    problems += _compare_report(report, {"baseline_log_loss": _entropy(a),
                                         "baseline_accuracy": max(a, 1.0 - a)})
    if not float(report["accuracy"]) >= max(a, 1.0 - a) + 0.05:
        problems.append(f"held-out accuracy {report['accuracy']} does not beat the constant "
                        f"predictor by 5 points")
    if not float(report["log_loss"]) < _entropy(a):
        problems.append(f"held-out log loss {report['log_loss']} is not below the baseline")
    problems += check_pr_curve(cv_dir / "pr_curve.csv")
    return problems
