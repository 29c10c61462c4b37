"""Prediction quality metrics, stratified cross-validation, and PR curves."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import CleanDataset
from .model import AscentOutcome, Hyperparameters, bt_probability
from .solver import FitReport, ModelState, fit


@dataclass(frozen=True)
class ContingencyTable:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class EvaluationReport:
    """Flat bundle of prediction metrics.

    Ratios with an empty denominator (e.g. precision when nothing was
    predicted successful) are defined as 0.  ``baseline_*`` metrics describe
    the constant predictor that always emits the mean success rate.
    """

    log_loss: float
    accuracy: float
    balanced_accuracy: float
    precision: float
    recall: float
    contingency: ContingencyTable
    baseline_log_loss: float
    baseline_accuracy: float

    def as_dict(self) -> dict:
        return {
            "log_loss": self.log_loss,
            "accuracy": self.accuracy,
            "balanced_accuracy": self.balanced_accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "tp": self.contingency.tp,
            "fp": self.contingency.fp,
            "fn": self.contingency.fn,
            "tn": self.contingency.tn,
            "baseline_log_loss": self.baseline_log_loss,
            "baseline_accuracy": self.baseline_accuracy,
        }


@dataclass(frozen=True)
class FoldPlan:
    """Fold assignment for repeated stratified k-fold cross-validation.

    ``assignments[rep, i]`` is the fold that holds out ascent ``i`` in
    repeat ``rep``.
    """

    k: int
    repeats: int
    seed: int
    assignments: np.ndarray


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    precision: float
    recall: float
    classifier_point: bool = False


def classify(probability: float) -> AscentOutcome:
    """Hard-classify a success probability: success iff strictly above 0.5."""
    return AscentOutcome.SUCCESS if probability > 0.5 else AscentOutcome.FAILURE


def baseline_log_loss(success_rate: float) -> float:
    """Log loss of always predicting the mean success rate.

    Equals ``(a - 1) * log(1 - a) - a * log(a)`` for rate ``a``, with the
    usual 0*log(0) = 0 limits at the endpoints.
    """
    if not 0.0 <= success_rate <= 1.0:
        raise ValueError(f"success_rate must be within [0, 1], got {success_rate}")
    loss = 0.0
    if success_rate > 0.0:
        loss -= success_rate * math.log(success_rate)
    if success_rate < 1.0:
        loss -= (1.0 - success_rate) * math.log1p(-success_rate)
    return loss


def _safe_ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute_metrics(predictions, actuals) -> EvaluationReport:
    """Score predicted success probabilities against observed outcomes.

    Classification uses the strict 0.5 threshold of :func:`classify`.  The
    log loss is the mean negative log probability assigned to what actually
    happened.
    """
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(actuals, dtype=bool)
    if p.ndim != 1 or p.shape[0] != y.shape[0]:
        raise ValueError("predictions and actuals must be 1-D and equally long")
    if p.shape[0] == 0:
        raise ValueError("cannot compute metrics on zero predictions")

    predicted_success = p > 0.5
    tp = int(np.count_nonzero(predicted_success & y))
    fp = int(np.count_nonzero(predicted_success & ~y))
    fn = int(np.count_nonzero(~predicted_success & y))
    tn = int(np.count_nonzero(~predicted_success & ~y))
    table = ContingencyTable(tp=tp, fp=fp, fn=fn, tn=tn)

    log_loss = float(-np.mean(np.where(y, np.log(p), np.log1p(-p))))
    recall = _safe_ratio(tp, tp + fn)
    specificity = _safe_ratio(tn, tn + fp)
    a_bar = float(np.count_nonzero(y)) / y.shape[0]
    return EvaluationReport(
        log_loss=log_loss,
        accuracy=(tp + tn) / table.total,
        balanced_accuracy=(recall + specificity) / 2.0,
        precision=_safe_ratio(tp, tp + fp),
        recall=recall,
        contingency=table,
        baseline_log_loss=baseline_log_loss(a_bar),
        baseline_accuracy=a_bar if a_bar > 0.5 else 1.0 - a_bar,
    )


def make_fold_plan(dataset: CleanDataset, k: int, repeats: int, seed: int) -> FoldPlan:
    """Plan repeated stratified k-fold assignments over a dataset's ascents.

    Within each repeat, the successful and the failed ascents are each
    shuffled and dealt round-robin into the k folds, so fold sizes within a
    stratum differ by at most one.  Deterministic given the seed.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    n = len(dataset)
    strata = (np.flatnonzero(dataset.success), np.flatnonzero(~dataset.success))
    for stratum in strata:
        if stratum.shape[0] < k:
            raise ValueError(
                f"outcome stratum has {stratum.shape[0]} ascents, fewer than k={k}"
            )
    rng = np.random.default_rng(seed)
    assignments = np.empty((repeats, n), dtype=np.int64)
    for rep in range(repeats):
        for stratum in strata:
            shuffled = rng.permutation(stratum)
            assignments[rep, shuffled] = np.arange(shuffled.shape[0]) % k
    return FoldPlan(k=k, repeats=repeats, seed=seed, assignments=assignments)


def rating_at_nearest_week(period_offsets, period_weeks, period_ratings, owner, week) -> np.ndarray:
    """Each query's rating at its owner's period nearest in week.

    Owner ``o`` holds the periods ``period_offsets[o]`` up to
    ``period_offsets[o + 1]`` of ``period_weeks`` (strictly increasing within
    an owner) and ``period_ratings``.  Query ``i`` asks for owner
    ``owner[i]`` at week ``week[i]``.  A tie between two periods picks the
    earlier one; an owner without periods gets the prior mean of 0.
    """
    offsets = np.asarray(period_offsets)
    owner = np.asarray(owner, dtype=np.int64)
    week = np.asarray(week, dtype=np.int64)
    n_periods = period_weeks.shape[0]
    if n_periods == 0:
        return np.zeros(owner.shape[0])
    # Number the distinct weeks in order, so that (owner, week) pairs become
    # increasing keys: a query's insertion point among the period keys is
    # then its insertion point into its owner's weeks, as a flat index.
    period_owner = np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))
    _, rank = np.unique(np.concatenate((period_weeks, week)), return_inverse=True)
    keys = np.concatenate((period_owner, owner)) * rank.shape[0] + rank
    insert_at = np.searchsorted(keys[:n_periods], keys[n_periods:])

    lo, hi = offsets[owner], offsets[owner + 1]
    has_periods = hi > lo
    before = np.where(has_periods, np.maximum(insert_at - 1, lo), 0)
    after = np.where(has_periods, np.minimum(insert_at, hi - 1), 0)
    earlier = week - period_weeks[before] <= period_weeks[after] - week
    return np.where(has_periods, period_ratings[np.where(earlier, before, after)], 0.0)


def predict_probabilities(state: ModelState, climber, route, week) -> np.ndarray:
    """Success probabilities of climbers on routes in weeks, under a fitted state.

    A climber's rating is taken from their fitted period nearest in time to
    the queried week.  Climbers with no fitted periods fall back to the prior
    mean of 0; routes always carry a rating (the prior mean if never updated).
    """
    climber_rating = rating_at_nearest_week(
        state.period_offsets, state.period_weeks, state.climber_ratings, climber, week
    )
    return bt_probability(climber_rating, state.route_ratings[route])


def cross_validate_predictions(
    dataset: CleanDataset,
    hyper: Hyperparameters | None,
    plan: FoldPlan,
    *,
    max_iterations: int = 1000,
) -> tuple[np.ndarray, np.ndarray, list[FitReport]]:
    """Held-out predictions for every (repeat, ascent) pair of a fold plan.

    For each fold, the model is fitted on the other folds' ascents (entity
    tables unchanged; entities left without training ascents stay at their
    prior means) and the held-out ascents are predicted from that fit.
    Returns pooled predictions and actuals, ordered by repeat then ascent
    index, and the fit report of every fold, ordered by repeat then fold.
    """
    n = len(dataset)
    if plan.assignments.shape != (plan.repeats, n):
        raise ValueError("fold plan does not match the dataset")
    predictions = np.empty((plan.repeats, n))
    fold_reports = []
    for rep in range(plan.repeats):
        fold_of = plan.assignments[rep]
        for fold in range(plan.k):
            held = fold_of == fold
            state, report = fit(dataset.subset(~held), hyper, max_iterations)
            fold_reports.append(report)
            predictions[rep, held] = predict_probabilities(
                state, dataset.climber[held], dataset.route[held], dataset.week[held]
            )
    pooled_p = predictions.reshape(-1)
    pooled_y = np.tile(dataset.success, plan.repeats)
    return pooled_p, pooled_y, fold_reports


def cross_validate(
    dataset: CleanDataset,
    hyper: Hyperparameters | None,
    plan: FoldPlan,
    *,
    max_iterations: int = 1000,
) -> EvaluationReport:
    """Micro-averaged metrics over all held-out predictions of a fold plan."""
    pooled_p, pooled_y, _ = cross_validate_predictions(
        dataset, hyper, plan, max_iterations=max_iterations
    )
    return compute_metrics(pooled_p, pooled_y)


def precision_recall_curve(predictions, actuals) -> list[PRPoint]:
    """Precision/recall at every distinct predicted probability.

    Each curve point uses the inclusive rule "predict success iff p >=
    threshold", one point per distinct probability, thresholds descending.
    One extra point (``classifier_point=True``) records the strict-0.5
    classifier of :func:`classify`.  Empty-denominator ratios are 0.
    """
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(actuals, dtype=bool)
    if p.ndim != 1 or p.shape[0] != y.shape[0]:
        raise ValueError("predictions and actuals must be 1-D and equally long")
    if p.shape[0] == 0:
        raise ValueError("cannot build a curve from zero predictions")

    order = np.argsort(-p, kind="stable")
    p_sorted = p[order]
    cum_tp = np.cumsum(y[order].astype(np.int64))
    total_success = int(cum_tp[-1])
    # Last index of each run of equal probabilities = counts with p >= that value.
    last_of_group = np.flatnonzero(np.diff(p_sorted) != 0.0)
    group_ends = np.concatenate([last_of_group, [p.shape[0] - 1]])

    tp = cum_tp[group_ends]
    thresholds = p_sorted[group_ends]
    points = list(map(PRPoint, thresholds.tolist(), (tp / (group_ends + 1)).tolist(),
                      (tp / max(total_success, 1)).tolist()))

    strict = p > 0.5
    tp_c = int(np.count_nonzero(strict & y))
    classifier = PRPoint(
        threshold=0.5,
        precision=_safe_ratio(tp_c, int(np.count_nonzero(strict))),
        recall=_safe_ratio(tp_c, total_success),
        classifier_point=True,
    )
    points.insert(int(np.count_nonzero(thresholds > 0.5)), classifier)
    return points


def linear_fit_r_squared(x, y) -> float:
    """R-squared of the least-squares line through (x, y) pairs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D and equally long")
    if x.shape[0] < 2:
        raise ValueError("need at least two points")
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0 or np.all(x == x[0]):
        return 0.0
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    return 1.0 - float((residuals**2).sum()) / ss_tot
