"""Helpers shared by the test modules: ascent-log fixtures and numerical oracles.

The oracles share no code with the implementation they check.
"""

import numpy as np

from cragrank.ingest import CleanDataset

S = True
F = False

FD_STEP = 1e-6


def make_dataset(ascents, n_routes, n_climbers, grades=None):
    """A dataset of (climber, route, week, outcome) tuples over generated id tables."""
    if grades is None:
        grades = [22] * n_routes
    table = np.array([(c, r, w, o is S) for c, r, w, o in ascents], dtype=np.int64)
    table = table.reshape(-1, 4)
    return CleanDataset(
        climber=table[:, 0], route=table[:, 1], week=table[:, 2], success=table[:, 3] == 1,
        climber_ids=np.array([f"c{i}" for i in range(n_climbers)], dtype=object),
        route_ids=np.array([f"r{i}" for i in range(n_routes)], dtype=object),
        route_grades=np.array(grades, dtype=np.int64),
        provenance={"rows_read": len(ascents), "rows_kept": len(ascents)},
    )


def central_difference(f, x, h=FD_STEP):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def relative_error(got, want, floor=0.05):
    return abs(got - want) / max(abs(want), floor)
