"""Prediction quality metrics, stratified cross-validation, and PR curves."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError
from .ingest import CleanDataset
from .model import Hyperparameters, bt_probability
from .solver import MAX_ITERATIONS, FitReport, ModelState, fit


@dataclass(frozen=True)
class EvaluationReport:
    """Flat record of prediction metrics, its fields in the order the reports list them.

    ``tp``, ``fp``, ``fn`` and ``tn`` count the contingency table of the
    classifier "success iff p > 0.5".  Ratios with an empty denominator
    (e.g. precision when nothing was predicted successful) are defined as 0.
    ``baseline_*`` metrics describe the constant predictor that always emits
    the mean success rate.
    """

    log_loss: float
    accuracy: float
    balanced_accuracy: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int
    tn: int
    baseline_log_loss: float
    baseline_accuracy: float


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


def _scored(predictions, actuals, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The inputs as floats and bools; ValueError unless 1-D, equally long and not empty."""
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(actuals, dtype=bool)
    if p.ndim != 1 or p.shape[0] != y.shape[0]:
        raise ValueError("predictions and actuals must be 1-D and equally long")
    if p.shape[0] == 0:
        raise ValueError(f"cannot {what} zero predictions")
    return p, y


def compute_metrics(predictions, actuals) -> EvaluationReport:
    """Score predicted success probabilities against observed outcomes.

    An ascent is classified a success iff its probability is above 0.5.  The
    log loss is the mean negative log probability of what actually happened.
    Inputs that are not 1-D, equally long and non-empty raise ValueError.
    """
    p, y = _scored(predictions, actuals, "compute metrics on")
    codes = 2 * (p > 0.5)
    codes += y
    tn, fn, fp, tp = np.bincount(codes, minlength=4).tolist()

    log_loss = float(-np.mean(np.where(y, np.log(p), np.log1p(-p))))
    recall = _safe_ratio(tp, tp + fn)
    specificity = _safe_ratio(tn, tn + fp)
    a_bar = (tp + fn) / y.shape[0]
    return EvaluationReport(
        log_loss=log_loss,
        accuracy=(tp + tn) / y.shape[0],
        balanced_accuracy=(recall + specificity) / 2.0,
        precision=_safe_ratio(tp, tp + fp),
        recall=recall,
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        baseline_log_loss=baseline_log_loss(a_bar),
        baseline_accuracy=a_bar if a_bar > 0.5 else 1.0 - a_bar,
    )


def make_fold_plan(dataset: CleanDataset, k: int, repeats: int, seed: int) -> np.ndarray:
    """Plan repeated stratified k-fold assignments over a dataset's ascents.

    Returns a ``(repeats, len(dataset))`` int array: ``plan[rep, i]`` is the
    fold, from 0 to k - 1, that holds out ascent ``i`` in repeat ``rep``.
    Within each repeat, the successful and the failed ascents are each
    shuffled and dealt round-robin into the k folds, so fold sizes within a
    stratum differ by at most one.  Deterministic given the seed.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    n = len(dataset)
    if n == 0:
        raise EmptyDatasetError("dataset contains no ascents", {})
    strata = (np.flatnonzero(dataset.success), np.flatnonzero(~dataset.success))
    for stratum in strata:
        if stratum.shape[0] < k:
            raise ValueError(
                f"outcome stratum has {stratum.shape[0]} ascents, fewer than k={k}"
            )
    rng = np.random.default_rng(seed)
    plan = np.empty((repeats, n), dtype=np.int64)
    for rep in range(repeats):
        for stratum in strata:
            shuffled = rng.permutation(stratum)
            plan[rep, shuffled] = np.arange(shuffled.shape[0]) % k
    return plan


def rating_at_nearest_week(period_owner, period_weeks, period_ratings, owner, week) -> np.ndarray:
    """Each query's rating at its owner's period nearest in week.

    Period ``j`` belongs to owner ``period_owner[j]`` (non-decreasing) and has
    the week ``period_weeks[j]`` (strictly increasing within an owner) and the
    rating ``period_ratings[j]``.  Query ``i`` asks for owner ``owner[i]`` at
    week ``week[i]``.  A tie between two periods picks the earlier one; an
    owner without periods, such as one beyond every period's owner, gets the
    prior mean of 0.
    """
    period_owner = np.asarray(period_owner, dtype=np.int64)
    owner = np.asarray(owner, dtype=np.int64)
    week = np.asarray(week, dtype=np.int64)
    n_periods = period_weeks.shape[0]
    if n_periods == 0:
        return np.zeros(owner.shape[0])
    # Number the distinct weeks in order, so that (owner, week) pairs become
    # increasing keys: a query's insertion point among the period keys then
    # lies next to its owner's periods, if the owner has any.  Its candidates
    # are the two neighbours there, each counting only if the query owns it.
    _, rank = np.unique(np.concatenate((period_weeks, week)), return_inverse=True)
    keys = np.concatenate((period_owner, owner)) * rank.shape[0] + rank
    insert_at = np.searchsorted(keys[:n_periods], keys[n_periods:])

    before, after = np.maximum(insert_at - 1, 0), np.minimum(insert_at, n_periods - 1)
    own_before, own_after = period_owner[before] == owner, period_owner[after] == owner
    # Where the query owns both, before < week <= after: the uint64 distances are exact.
    earlier = ((week - period_weeks[before]).view(np.uint64)
               <= (period_weeks[after] - week).view(np.uint64))
    pick = np.where(own_before & (earlier | ~own_after), before, after)
    return np.where(own_before | own_after, period_ratings[pick], 0.0)


def predict_probabilities(state: ModelState, climber, route, week) -> np.ndarray:
    """Success probabilities of climbers on routes in weeks, under a fitted state.

    A climber's rating is taken by :func:`rating_at_nearest_week` from their
    fitted period nearest in time to the queried week, looked up through the
    state's ``period_owner``.  Climbers with no fitted periods fall back to the
    prior mean of 0; routes always carry a rating (the prior mean if never
    updated).
    """
    climber_rating = rating_at_nearest_week(
        state.period_owner, state.period_weeks, state.climber_ratings, climber, week
    )
    return bt_probability(climber_rating, state.route_ratings[route])


def cross_validate_predictions(
    dataset: CleanDataset,
    hyper: Hyperparameters,
    plan: np.ndarray,
    *,
    max_iterations: int = MAX_ITERATIONS,
) -> tuple[np.ndarray, np.ndarray, list[FitReport]]:
    """Held-out predictions for every (repeat, ascent) pair of a fold plan.

    ``plan`` is a :func:`make_fold_plan` array, whose folds are 0 to
    ``plan.max()``.  For each fold, the model is fitted on the other folds'
    ascents (entity tables unchanged; entities left without training ascents
    stay at their prior means) and the held-out ascents are predicted from
    that fit.
    Returns pooled predictions and actuals, ordered by repeat then ascent
    index, and the fit report of every fold, ordered by repeat then fold.
    """
    if plan.ndim != 2 or plan.shape[1] != len(dataset):
        raise ValueError("fold plan does not match the dataset")
    predictions = np.empty(plan.shape)
    fold_reports = []
    for rep, fold_of in enumerate(plan):
        for fold in range(plan.max() + 1):
            held = fold_of == fold
            state, report = fit(dataset.subset(~held), hyper, max_iterations)
            fold_reports.append(report)
            predictions[rep, held] = predict_probabilities(
                state, dataset.climber[held], dataset.route[held], dataset.week[held]
            )
    pooled_p = predictions.reshape(-1)
    pooled_y = np.tile(dataset.success, plan.shape[0])
    return pooled_p, pooled_y, fold_reports


def precision_recall_curve(predictions, actuals) -> np.recarray:
    """Precision/recall at every distinct predicted probability.

    Returns one record per point, with the fields ``threshold``,
    ``precision``, ``recall`` and ``classifier_point``.  Each curve point
    uses the inclusive rule "predict success iff p >= threshold", one point
    per distinct probability, thresholds descending.  One extra point
    (``classifier_point`` true) records the classifier of
    :func:`compute_metrics`, success iff ``p > 0.5``.  Empty-denominator
    ratios are 0.  Inputs are checked as :func:`compute_metrics` checks them.
    """
    p, y = _scored(predictions, actuals, "build a curve from")

    order = np.argsort(-p)  # tied probabilities fall in one group, in any order
    p_sorted = p[order]
    cum_tp = np.cumsum(y[order].astype(np.int64))
    # Last index of each run of equal probabilities = counts with p >= that value.
    last_of_group = np.flatnonzero(np.diff(p_sorted) != 0.0)
    group_ends = np.concatenate([last_of_group, [p.shape[0] - 1]])

    tp = cum_tp[group_ends]
    thresholds = p_sorted[group_ends]

    precision = tp / (group_ends + 1)
    recall = tp / max(int(cum_tp[-1]), 1)
    # The classifier p > 0.5 takes the ratios of the last point above 0.5, or 0 if none is.
    at = int(np.count_nonzero(thresholds > 0.5))
    precision, recall = (np.insert(r, at, r[at - 1] if at else 0.0) for r in (precision, recall))
    return np.rec.fromarrays(
        [np.insert(thresholds, at, 0.5), precision, recall,
         np.arange(thresholds.shape[0] + 1) == at],
        names="threshold,precision,recall,classifier_point",
    )


def linear_fit_r_squared(x, y) -> float:
    """R-squared of the least-squares line through (x, y) pairs; 0 for constant x or y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D and equally long")
    if x.shape[0] < 1:
        raise ValueError("need at least one point")
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0 or np.all(x == x[0]):
        return 0.0
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    return 1.0 - float((residuals**2).sum()) / ss_tot
