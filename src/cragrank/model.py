"""Core paired-comparison model: hyperparameters, win probabilities and the
route prior mean.

Climbers and routes live on a shared log-odds rating scale.  An ascent is a
contest between a climber and a route; the climber succeeds with probability
``logistic(climber_rating - route_rating)``.  Route ratings are anchored by a
normal prior whose mean is linear in the route's grade, climber ratings by a
normal prior at their first active period plus a random-walk coupling between
consecutive periods.

Everything in this module is a pure function of its inputs.  The gradient
and Hessian of the log posterior, and the optimization loop, live in
:mod:`cragrank.solver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

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
