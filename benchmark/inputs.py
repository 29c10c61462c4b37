"""Seeded input generators for the pipeline benchmark.

The benchmark draws its own logs with numpy's PCG64 generator and writes
them as raw ascent-log CSVs, so a change to the program can never change
what the program is fed.  Nothing here imports ``cragrank``.

Each log comes from two seeds.  The *world seed* fixes everything that
reaches the fit: ratings, who attempted what and when, outcomes, reported
grades, and the extra rows the activity filters remove.  The *run seed*
fixes the rest: the day within each week, the spelling of ticks, grade
systems and labels, which attempts are copied as rows the row-level
filters drop, the row order of the level-matched log, and the prediction
queries.  So every run seed gives the same cleaned ascents, and the same
fit.

Every generator returns an :class:`AscentLog`: the rows exactly as written,
plus what the benchmark knows about them by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

RAW_HEADER = "climber_id,route_id,tick_type,date,grade_label,grade_system"

# Week 2600 starts on 2019-10-31; any base works, this one gives real dates.
BASE_WEEK = 2600

# Row kinds.  KEPT rows reach the activity fixpoint; the others are dropped
# by the row-level filters, each counted under its own provenance key.
KEPT = 0
AMBIGUOUS = 1
NON_EWBANK = 2
INVALID_GRADE = 3

# Tick labels as the documented default table classifies them.  The
# ambiguous ones are absent from that table.
SUCCESS_TICKS = ("onsight", "flash", "redpoint", "pinkpoint", "clean", "send")
FAILURE_TICKS = ("dog", "hang dog", "attempt", "retreat", "working")
AMBIGUOUS_TICKS = ("top rope", "lap", "toprope", "hung")
OTHER_SYSTEMS = ("yds", "french", "font", "uiaa")
BAD_GRADE_LABELS = ("", "abc", "0", "-3", "5a", "2.5")


@dataclass
class AscentLog:
    """A generated raw log and the facts the checks need about it.

    All arrays are parallel, one entry per written row.  ``grade`` is the
    integer grade a row reports, or -1 where its label is not a positive
    integer.  ``true_route_rating`` maps route id to the rating it was drawn
    with.
    """

    climber_id: np.ndarray
    route_id: np.ndarray
    week: np.ndarray
    day: np.ndarray
    success: np.ndarray
    kind: np.ndarray
    grade: np.ndarray
    tick: np.ndarray
    grade_label: np.ndarray
    grade_system: np.ndarray
    true_route_rating: dict[str, float]

    def __len__(self) -> int:
        return self.kind.shape[0]

    def write(self, path: Path) -> None:
        dates = np.datetime_as_string(self.day.astype("datetime64[D]"))
        lines = [RAW_HEADER]
        lines.extend(map(",".join, zip(
            self.climber_id.tolist(), self.route_id.tolist(), self.tick.tolist(),
            dates.tolist(), self.grade_label.tolist(), self.grade_system.tolist(),
        )))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ids(prefix: str, n: int) -> np.ndarray:
    return np.array([f"{prefix}{i:05d}" for i in range(n)])


def _logistic(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _trajectories(rng, n_climbers: int, weeks: np.ndarray) -> np.ndarray:
    """Climber ratings per logged week: N(0, 1) start, N(0, gap/52) drift."""
    ratings = np.empty((n_climbers, weeks.shape[0]))
    ratings[:, 0] = rng.normal(0.0, 1.0, n_climbers)
    if weeks.shape[0] > 1:
        steps = rng.normal(0.0, np.sqrt(np.diff(weeks) / 52.0),
                           (n_climbers, weeks.shape[0] - 1))
        ratings[:, 1:] = ratings[:, :1] + np.cumsum(steps, axis=1)
    return ratings


def _rows(climber, route, week, success, grade, kind=KEPT) -> dict:
    return {"climber": climber, "route": route, "week": week, "success": success,
            "grade": grade, "kind": np.full(climber.shape[0], kind)}


def _row_defects(rng, rows: dict, counts: dict[int, int]) -> list[dict]:
    """Copies of random rows, each with one defect the row filters catch."""
    n = rows["kind"].shape[0]
    copies = []
    for kind, count in counts.items():
        pick = rng.integers(0, n, count)
        grade = np.full(count, -1) if kind == INVALID_GRADE else rows["grade"][pick]
        copies.append(_rows(rows["climber"][pick], rows["route"][pick], rows["week"][pick],
                            rows["success"][pick], grade, kind))
    return copies


def _render(look, parts: list[dict], route_rating: dict[str, float],
            order: np.ndarray) -> AscentLog:
    """Put the row groups in ``order`` and spell out their text fields.

    ``look`` draws the day within each week and the spelling of ticks,
    grade systems and grade labels, none of which changes what the cleaner
    keeps.
    """
    cat = {key: np.concatenate([p[key] for p in parts])[order] for key in parts[0]}
    n = order.shape[0]
    kind, success, grade, week = cat["kind"], cat["success"], cat["grade"], cat["week"]

    day = week * 7 + look.integers(0, 7, n)
    tick = np.where(success, look.choice(SUCCESS_TICKS, n), look.choice(FAILURE_TICKS, n))
    tick = np.where(kind == AMBIGUOUS, look.choice(AMBIGUOUS_TICKS, n), tick).astype(object)
    system = np.full(n, "ewbank", dtype=object)
    other = kind == NON_EWBANK
    system[other] = look.choice(OTHER_SYSTEMS, int(other.sum()))
    label = grade.astype(str).astype(object)
    bad = kind == INVALID_GRADE
    label[bad] = look.choice(BAD_GRADE_LABELS, int(bad.sum()))
    # Spellings the cleaner must normalise: case and padding.
    for field in (tick, system):
        for spell in (str.upper, str.title, lambda s: f"  {s} "):
            pick = look.random(n) < 0.05
            field[pick] = [spell(s) for s in field[pick]]
    pick = (look.random(n) < 0.03) & (kind == KEPT)
    label[pick] = [f" {s} " for s in label[pick]]

    return AscentLog(
        climber_id=cat["climber"], route_id=cat["route"], week=week, day=day,
        success=success, kind=kind, grade=grade, tick=tick, grade_label=label,
        grade_system=system, true_route_rating=route_rating,
    )


def level_matched_log(world_seed: int, seed: int, n_climbers: int = 3000,
                      n_routes: int = 8900, n_periods: int = 20,
                      per_period: int = 4) -> AscentLog:
    """A logbook at the paper's scale where climbers pick routes near their level.

    Routes get grades 18..28 and ratings N(0.4 (grade - 22), 1).  Each
    climber logs ``per_period`` attempts in each of ``n_periods`` consecutive
    weeks, on the route whose rating is nearest to their ability plus N(0, 2)
    noise, and succeeds with the logistic of the rating gap.  One climber in
    thirty more logs every third week, so queries can fall between periods.
    Reported grades are off by one on a fifth of the rows, so a route's
    grade is a median.

    Extra rows exercise the cleaner: ambiguous ticks, other grade systems,
    invalid grade labels, routes climbed once and climbers who never fail
    are dropped; mixed-case and padded ticks, systems and labels are kept.
    """
    world = np.random.default_rng([world_seed, 240])
    climbers = _ids("c", n_climbers)
    routes = _ids("r", n_routes)
    grades = world.integers(18, 29, n_routes)
    rating = world.normal(0.4 * (grades - 22), 1.0)
    order = np.argsort(rating)
    sorted_rating = rating[order]

    def attempts(ids, weeks):
        """``per_period`` level-matched attempts per climber and week."""
        ability = _trajectories(world, ids.shape[0], weeks)
        c = np.repeat(np.arange(ids.shape[0]), weeks.shape[0] * per_period)
        k = np.tile(np.repeat(np.arange(weeks.shape[0]), per_period), ids.shape[0])
        own = ability[c, k]
        target = own + world.normal(0.0, 2.0, c.shape[0])
        pos = np.clip(np.searchsorted(sorted_rating, target), 1, n_routes - 1)
        left_nearer = target - sorted_rating[pos - 1] <= sorted_rating[pos] - target
        r = order[np.where(left_nearer, pos - 1, pos)]
        noise = world.choice([-1, 0, 0, 0, 0, 0, 0, 0, 0, 1], c.shape[0])
        return _rows(ids[c], routes[r], weeks[k],
                     world.random(c.shape[0]) < _logistic(own - rating[r]), grades[r] + noise)

    main = attempts(climbers, BASE_WEEK + np.arange(n_periods))
    gappy = attempts(_ids("g", n_climbers // 30), BASE_WEEK + 3 * np.arange(n_periods))

    # Routes climbed once: the fixpoint drops them, and with them the only
    # failure of some climbers.
    n_once = n_climbers // 5
    pick = world.integers(0, main["kind"].shape[0], n_once)
    once = _rows(main["climber"][pick], _ids("q", n_once), main["week"][pick],
                 world.random(n_once) < 0.5, world.integers(18, 29, n_once))

    # Climbers who never fail, on routes others climb.
    n_clean, each = n_climbers // 15, 12
    pick = world.integers(0, main["kind"].shape[0], n_clean * each)
    never_fail = _rows(np.repeat(_ids("s", n_clean), each), main["route"][pick],
                       main["week"][pick], np.ones(n_clean * each, bool), main["grade"][pick])

    look = np.random.default_rng([seed, 241])
    defects = _row_defects(look, main, {AMBIGUOUS: n_climbers * 2 // 3,
                                        NON_EWBANK: n_climbers // 2,
                                        INVALID_GRADE: n_climbers // 3})
    # The world fixes the order of the rows that survive the row filters, so
    # every run seed gives the same cleaned log and the same crossval folds;
    # the run seed scatters the defect rows among them.
    n_world = sum(p["kind"].shape[0] for p in (main, gappy, once, never_fail))
    rank = np.empty(n_world)
    rank[world.permutation(n_world)] = np.arange(n_world)
    scatter = look.uniform(-0.5, n_world - 0.5, sum(p["kind"].shape[0] for p in defects))
    order = np.argsort(np.concatenate([rank, scatter]), kind="stable")
    parts = [main, gappy, once, never_fail, *defects]
    return _render(look, parts, dict(zip(routes.tolist(), rating.tolist())), order)


def uniform_log(world_seed: int, seed: int, n_climbers: int, n_routes: int,
                n_periods: int, per_period: int) -> AscentLog:
    """A log drawn the way the model's priors describe, with uniform route choice.

    Routes get grades 18..28 and ratings N(0.4 (grade - 22), 4); climbers
    start at N(0, 1) and drift N(0, 1/52) per week over consecutive weeks;
    every climber attempts ``per_period`` uniformly chosen routes per week.
    Every grade is Ewbank.  The row order comes from the world seed too,
    because cross-validation folds follow it.
    """
    world = np.random.default_rng([world_seed, 20])
    climbers = _ids("c", n_climbers)
    routes = _ids("r", n_routes)
    grades = world.integers(18, 29, n_routes)
    rating = world.normal(0.4 * (grades - 22), 2.0)
    weeks = BASE_WEEK + np.arange(n_periods)
    ability = _trajectories(world, n_climbers, weeks)

    total = n_climbers * n_periods * per_period
    c = np.repeat(np.arange(n_climbers), n_periods * per_period)
    k = np.tile(np.repeat(np.arange(n_periods), per_period), n_climbers)
    r = world.integers(0, n_routes, total)
    success = world.random(total) < _logistic(ability[c, k] - rating[r])
    rows = _rows(climbers[c], routes[r], weeks[k], success, grades[r])
    return _render(np.random.default_rng([seed, 21]), [rows],
                   dict(zip(routes.tolist(), rating.tolist())), world.permutation(total))


def query_rows(seed: int, log: AscentLog, n_queries: int) -> list[tuple[str, str, int]]:
    """Prediction queries mixing known and unknown ids and weeks.

    About a sixth of climber ids and a tenth of route ids are unknown to any
    fit; weeks fall on logged weeks, in the gaps between them, and up to ten
    weeks before the first or after the last.
    """
    rng = np.random.default_rng([seed, 7])
    climber = rng.choice(np.unique(log.climber_id), n_queries).astype(object)
    unknown = rng.random(n_queries) < 1 / 6
    climber[unknown] = [f"u{i:05d}" for i in rng.integers(0, 99999, int(unknown.sum()))]
    route = rng.choice(np.unique(log.route_id), n_queries).astype(object)
    unknown = rng.random(n_queries) < 0.1
    route[unknown] = [f"v{i:05d}" for i in rng.integers(0, 99999, int(unknown.sum()))]
    week = rng.integers(int(log.week.min()) - 10, int(log.week.max()) + 11, n_queries)
    return list(zip(climber.tolist(), route.tolist(), week.tolist()))


def write_queries(rows: list[tuple[str, str, int]], path: Path) -> None:
    lines = ["climber_id,route_id,week"]
    lines.extend(f"{c},{r},{w}" for c, r, w in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
