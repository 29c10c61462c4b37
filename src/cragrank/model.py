"""Core paired-comparison model: win probabilities, priors, and the first and
second derivatives that drive the Newton updates.

Climbers and routes live on a shared log-odds rating scale.  An ascent is a
contest between a climber and a route; the climber succeeds with probability
``logistic(climber_rating - route_rating)``.  Route ratings are anchored by a
normal prior whose mean is linear in the route's grade, climber ratings by a
normal prior at their first active period plus a random-walk coupling between
consecutive periods.

Everything in this module is a pure function of its inputs; the coordinate
optimization loop lives in :mod:`cragrank.solver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Literal, Sequence

import numpy as np

# Rating differences are clamped to this magnitude before the logistic.
# exp(36) is far from float64 overflow, and logistic(+/-36) is still strictly
# inside (0, 1), so no ascent probability ever collapses to exactly 0 or 1.
RATING_DIFF_CLAMP = 36.0


class AscentOutcome(IntEnum):
    """Outcome of a single ascent; as a number, whether the climber succeeded."""

    FAILURE = 0
    SUCCESS = 1


@dataclass(frozen=True)
class Hyperparameters:
    """Model hyperparameters, with tuned defaults.

    Attributes
    ----------
    sigma_c_sq:
        Variance of the prior on a climber's rating at their first active
        period (prior mean is 0).  Must be positive.
    sigma_r_sq:
        Variance of the prior on a route's rating.  Must be positive.
    w_sq:
        Variance added to a climber's rating per elapsed week (random-walk
        drift).  May be 0, which freezes climbers in time.
    g0:
        Reference grade: a route at this grade has prior mean rating 0.
    b:
        Prior-mean slope, in rating units per grade point.
    """

    sigma_c_sq: float = 1.0
    sigma_r_sq: float = 4.0
    w_sq: float = 1.0 / 52.0
    g0: int = 22
    b: float = 0.4

    def __post_init__(self) -> None:
        if not self.sigma_c_sq > 0.0:
            raise ValueError(f"sigma_c_sq must be positive, got {self.sigma_c_sq}")
        if not self.sigma_r_sq > 0.0:
            raise ValueError(f"sigma_r_sq must be positive, got {self.sigma_r_sq}")
        if self.w_sq < 0.0:
            raise ValueError(f"w_sq must be non-negative, got {self.w_sq}")


@dataclass(frozen=True)
class DerivativePair:
    """First and second derivative of a log-density term wrt one rating."""

    d1: float
    d2: float


def bt_probability(climber_rating, route_rating):
    """Probability that the climber succeeds on the route, elementwise.

    Takes arrays or plain floats (a float result is a numpy float).  The
    rating difference is clamped to ``+/-RATING_DIFF_CLAMP`` and the logistic
    is evaluated from exp of a non-positive argument, so the result is always
    strictly inside (0, 1) and ``bt_probability(a, b) + bt_probability(b, a)``
    rounds to exactly 1.0.
    """
    diff = np.asarray(climber_rating, dtype=float) - np.asarray(route_rating, dtype=float)
    diff = np.clip(diff, -RATING_DIFF_CLAMP, RATING_DIFF_CLAMP)
    t = np.exp(-np.abs(diff))
    losing = t / (1.0 + t)  # probability of the lower-rated side, in (0, 0.5]
    return np.where(diff >= 0, 1.0 - losing, losing)[()]


#: The same function, under the name the solver calls it by: the win
#: probability of ``own`` ratings against ``opponent`` ratings.
win_probabilities = bt_probability


def route_prior_mean(grade: int, hyper: Hyperparameters) -> float:
    """Prior mean rating of a route: ``b * (grade - g0)``."""
    return hyper.b * (grade - hyper.g0)


def normal_prior_derivatives(rating: float, mean: float, variance: float) -> DerivativePair:
    """Derivatives of ``log N(rating; mean, variance)`` wrt the rating."""
    if not variance > 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    return DerivativePair(-(rating - mean) / variance, -1.0 / variance)


def wiener_variance(week_a: int, week_b: int, hyper: Hyperparameters) -> float:
    """Variance of the rating drift between two weeks: ``|week_b - week_a| * w_sq``."""
    return abs(week_b - week_a) * hyper.w_sq


def bt_derivatives(
    own_rating: float,
    opponent_ratings: Sequence[float],
    outcomes: Sequence[AscentOutcome],
    side: Literal["climber", "route"] = "climber",
) -> DerivativePair:
    """Derivatives of the ascent log-likelihood wrt one entity's rating.

    ``side`` picks whose rating ``own_rating`` is.  A climber "wins" an ascent
    it succeeds on; a route "wins" an ascent the climber fails.  Writing
    ``p_k`` for the win probability of the owning side against opponent ``k``:

        d1 = wins - sum(p_k)          d2 = -sum(p_k * (1 - p_k))

    Returns (0, 0) for an empty ascent list.
    """
    if side not in ("climber", "route"):
        raise ValueError(f"side must be 'climber' or 'route', got {side!r}")
    opponents = np.asarray(opponent_ratings, dtype=float)
    if opponents.ndim != 1:
        raise ValueError("opponent_ratings must be one-dimensional")
    if opponents.shape[0] != len(outcomes):
        raise ValueError(
            f"{opponents.shape[0]} opponent ratings but {len(outcomes)} outcomes"
        )
    if opponents.shape[0] == 0:
        return DerivativePair(0.0, 0.0)
    winning_outcome = AscentOutcome.SUCCESS if side == "climber" else AscentOutcome.FAILURE
    wins = sum(1 for o in outcomes if o is winning_outcome)
    p = win_probabilities(own_rating, opponents)
    return DerivativePair(float(wins - p.sum()), float(-(p * (1.0 - p)).sum()))
