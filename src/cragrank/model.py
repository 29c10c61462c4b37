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

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Rating differences are clamped to this magnitude before the logistic.
# exp(36) is far from float64 overflow, and logistic(+/-36) is still strictly
# inside (0, 1), so no ascent probability ever collapses to exactly 0 or 1.
RATING_DIFF_CLAMP = 36.0


@dataclass(frozen=True)
class Hyperparameters:
    """Model hyperparameters, with tuned defaults; a bad value raises ValueError.

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
        Reference grade, a 64-bit int: a route at this grade has prior mean 0.
    b:
        Prior-mean slope, in rating units per grade point.
    """

    sigma_c_sq: float = 1.0
    sigma_r_sq: float = 4.0
    w_sq: float = 1.0 / 52.0
    g0: int = 22
    b: float = 0.4

    def __post_init__(self) -> None:
        for name in ("sigma_c_sq", "sigma_r_sq", "w_sq", "g0", "b"):
            value = getattr(self, name)
            try:
                valid = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                         and math.isfinite(value))
            except OverflowError:  # an int beyond the float range
                valid = False
            if name == "g0":
                valid = valid and value == int(value) and -2**63 <= value < 2**63
            if not valid:
                raise ValueError(f"hyperparameter {name} must be a finite "
                                 f"{'64-bit integer' if name == 'g0' else 'number'}, got {value!r}")
            object.__setattr__(self, name, int(value) if name == "g0" else float(value))
        for name, rule, holds in (("sigma_c_sq", "positive", self.sigma_c_sq > 0.0),
                                  ("sigma_r_sq", "positive", self.sigma_r_sq > 0.0),
                                  ("w_sq", "non-negative", self.w_sq >= 0.0)):
            if not holds:
                raise ValueError(f"hyperparameter {name} must be {rule}, got {getattr(self, name)}")


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


def clamp_shortfall(margin):
    """``min(margin + RATING_DIFF_CLAMP, 0)`` at each log-odds margin, in place.

    Below ``-RATING_DIFF_CLAMP`` the clamped :func:`win_probabilities` stops
    falling, but the logistic's log keeps falling by one per unit of margin.
    Added to the log of the clamped probability, this gives the logistic's
    own log, so a fit maximizes the unclamped posterior and the clamp bounds
    only probabilities.  Returns ``margin``, overwritten.
    """
    margin += RATING_DIFF_CLAMP
    return np.minimum(margin, 0.0, out=margin)


def route_prior_mean(grade, hyper: Hyperparameters):
    """Prior mean rating of a grade or of each of an array of grades: ``b * (grade - g0)``.

    Raises ValueError if a mean is beyond the float range.
    """
    with np.errstate(over="ignore"):
        mean = hyper.b * (grade - float(hyper.g0))  # in floats: an int64 difference can wrap
    if not np.isfinite(mean).all():
        raise ValueError(f"hyperparameter b={hyper.b} with g0={hyper.g0} gives a route prior "
                         "mean beyond the float range")
    return mean
