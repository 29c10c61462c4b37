"""Ascent-log parsing and the cleaning pipeline that produces model-ready data.

The raw input is a CSV of individual ascents
(``climber_id,route_id,tick_type,date,grade_label,grade_system``).  Cleaning
classifies tick types into successful/unsuccessful/ambiguous, keeps only
Ewbank-graded ascents, assigns each route the median grade of its ascents,
quantizes dates to week indices, and then repeatedly drops routes with fewer
than two ascents and climbers with no failed ascent until both filters are
stable.  Every dropped row is tallied in the provenance counters.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import EmptyDatasetError, ParseError

WEEK_EPOCH = np.datetime64("1970-01-01", "D")

RAW_COLUMNS = ("climber_id", "route_id", "tick_type", "date", "grade_label", "grade_system")

# Per-row drop counters, in reporting order.  rows_read = rows_kept + drops.
_DROP_KEYS = (
    "dropped_ambiguous_tick",
    "dropped_non_ewbank",
    "dropped_invalid_grade",
    "dropped_route_few_ascents",
    "dropped_climber_no_failure",
)


class TickClass(Enum):
    SUCCESSFUL = "successful"
    UNSUCCESSFUL = "unsuccessful"
    AMBIGUOUS = "ambiguous"


#: Default tick-type classification (keys lowercase).  Unknown ticks are
#: ambiguous and excluded, so top-roping with rests, unlabeled laps, etc.
#: never count as clean ascents.
DEFAULT_TICK_MAPPING: dict[str, TickClass] = {
    "onsight": TickClass.SUCCESSFUL,
    "flash": TickClass.SUCCESSFUL,
    "redpoint": TickClass.SUCCESSFUL,
    "pinkpoint": TickClass.SUCCESSFUL,
    "clean": TickClass.SUCCESSFUL,
    "send": TickClass.SUCCESSFUL,
    "top rope clean": TickClass.SUCCESSFUL,
    "dog": TickClass.UNSUCCESSFUL,
    "hang dog": TickClass.UNSUCCESSFUL,
    "attempt": TickClass.UNSUCCESSFUL,
    "retreat": TickClass.UNSUCCESSFUL,
    "working": TickClass.UNSUCCESSFUL,
    "top rope with rest": TickClass.UNSUCCESSFUL,
}


@dataclass
class RawAscentLog:
    """A raw ascent log as parallel columns, one entry per data row.

    The string columns are object arrays holding each field verbatim;
    ``day`` holds the parsed dates as ``datetime64[D]``.
    """

    climber_id: np.ndarray
    route_id: np.ndarray
    tick_type: np.ndarray
    day: np.ndarray
    grade_label: np.ndarray
    grade_system: np.ndarray

    def __len__(self) -> int:
        return self.day.shape[0]


@dataclass(frozen=True)
class RouteInfo:
    route_id: str
    grade: int


@dataclass
class CleanDataset:
    """Preprocessed ascents as four parallel arrays, plus the entity tables.

    Ascent ``i`` is climber ``climber[i]`` on route ``route[i]`` in week
    ``week[i]``, successful iff ``success[i]``.  ``routes[r].route_id`` and
    ``climbers[c]`` give the external ids of route index ``r`` and climber
    index ``c``; both tables are sorted by id.  ``provenance`` counts rows
    read, kept, and dropped per filter rule.
    """

    climber: np.ndarray
    route: np.ndarray
    week: np.ndarray
    success: np.ndarray
    routes: list[RouteInfo]
    climbers: list[str]
    provenance: dict[str, int]

    def __len__(self) -> int:
        return self.climber.shape[0]

    def subset(self, keep: np.ndarray) -> CleanDataset:
        """The ascents selected by a boolean mask, over the same entity tables."""
        n = int(np.count_nonzero(keep))
        return CleanDataset(
            self.climber[keep], self.route[keep], self.week[keep], self.success[keep],
            self.routes, self.climbers, {"rows_read": n, "rows_kept": n},
        )

    def check_invariants(self) -> None:
        """Raise ValueError if the cleaned-data guarantees do not hold."""
        n_routes, n_climbers = len(self.routes), len(self.climbers)
        if not (np.all((self.route >= 0) & (self.route < n_routes))
                and np.all((self.climber >= 0) & (self.climber < n_climbers))):
            raise ValueError("ascent index out of range")
        sparse = np.flatnonzero(np.bincount(self.route, minlength=n_routes) < 2)
        if sparse.size:
            raise ValueError(f"route {sparse[0]} has fewer than 2 ascents")
        failures = np.bincount(self.climber[~self.success], minlength=n_climbers)
        if not failures.all():
            raise ValueError(f"climber {np.argmin(failures)} has no failed ascent")


def classify_tick(tick_type: str, mapping: Mapping[str, TickClass] | None = None) -> TickClass:
    """Classify a tick string, case-insensitively; unknown ticks are ambiguous."""
    table = DEFAULT_TICK_MAPPING if mapping is None else mapping
    return table.get(tick_type.strip().lower(), TickClass.AMBIGUOUS)


def load_tick_mapping(path: str | Path) -> dict[str, TickClass]:
    """Read a ``tick_string,class`` mapping file (class is a TickClass name)."""
    mapping: dict[str, TickClass] = {}
    classes = {c.value: c for c in TickClass}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tick, sep, cls = line.rpartition(",")
            if not sep:
                raise ParseError(f"line {lineno}: expected 'tick_string,class', got {line!r}")
            cls = cls.strip().lower()
            if cls not in classes:
                raise ParseError(f"line {lineno}: unknown tick class {cls!r}")
            mapping[tick.strip().lower()] = classes[cls]
    return mapping


def quantize_week(day):
    """Week index of a date or of each of an array of dates.

    The index is the floor of the days since 1970-01-01, divided by 7.
    """
    return (np.asarray(day, dtype="datetime64[D]") - WEEK_EPOCH).astype(np.int64) // 7


def week_start_date(week):
    """First day of a week index or of each of an array of them.

    The inverse of :func:`quantize_week`.
    """
    return WEEK_EPOCH + 7 * np.asarray(week, dtype=np.int64)


def median_grade(grades: Sequence[int]) -> int:
    """Median of a non-empty grade list; even lengths take the lower middle."""
    if len(grades) == 0:
        raise ValueError("median_grade of an empty sequence")
    return sorted(grades)[(len(grades) - 1) // 2]


def unique_strings(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What ``np.unique(column, return_inverse=True)`` returns for a column of strings.

    The column is hashed rather than sorted: only its distinct strings are
    sorted, which is much faster for an object array with few of them.
    """
    values = column.tolist()
    distinct = sorted(dict.fromkeys(values))
    code = dict(zip(distinct, range(len(distinct))))
    inverse = np.fromiter(map(code.__getitem__, values), dtype=np.int64, count=len(values))
    return np.array(distinct, dtype=object), inverse


def convert_distinct(column: np.ndarray, convert, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Apply ``convert`` once to each distinct string of ``column``, spread over its rows.

    Returns the results as an array of ``dtype``, and a mask of the rows
    whose string ``convert`` rejects with ValueError, or whose result
    ``dtype`` cannot hold (they hold zero).
    """
    distinct, inverse = unique_strings(column)
    values = np.zeros(distinct.shape[0], dtype=dtype)
    rejected = np.zeros(distinct.shape[0], dtype=bool)
    for i, text in enumerate(distinct.tolist()):
        try:
            values[i] = convert(text)
        except (ValueError, OverflowError):
            rejected[i] = True
    return values[inverse], rejected[inverse]


def _parse_int(text: str) -> int:
    return int(text.strip())


class CsvTable:
    """The named columns of a CSV file with a header line, and checks on its rows.

    ``text[c]`` holds column ``c`` as an object array of the fields verbatim.
    A repeated column name refers to its last occurrence, as in
    ``csv.DictReader``, and blank lines are skipped.  Checks are recorded in
    the order a row is checked, starting with a row too short to hold every
    named field (its fields read as empty strings).  ``name`` prefixes the
    error messages.
    """

    def __init__(self, stream: IO[str], columns: Sequence[str], name: str = ""):
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{name}: empty file" if name else "empty input: no header line")
        self.prefix = f"{name} " if name else ""
        missing = [c for c in columns if c not in header]
        if missing:
            raise ParseError(f"{name + ': ' if name else ''}missing required columns: "
                             f"{', '.join(missing)}")
        index = [len(header) - 1 - header[::-1].index(c) for c in columns]
        need = max(index) + 1
        rows, self.lines, short = [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) < need:
                short.append(len(rows))
                row = [""] * need
            rows.append(row)
            self.lines.append(reader.line_num)
        self.rows = len(rows)
        self.text = {c: np.fromiter(map(itemgetter(i), rows), dtype=object, count=self.rows)
                     for c, i in zip(columns, index)}
        self.checks = []
        self.check(np.isin(np.arange(self.rows), short), "too few fields")

    @classmethod
    def read(cls, path: Path, columns: Sequence[str]) -> CsvTable:
        """The table of a file, whose name then prefixes the error messages."""
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return cls(fh, columns, path.name)

    def check(self, failed: np.ndarray, problem: str, text: np.ndarray | None = None) -> None:
        """Record that the rows in ``failed`` have ``problem``, formatted with their ``text``."""
        self.checks.append((failed, problem, text))

    def convert(self, column: str, convert, dtype, problem: str) -> np.ndarray:
        """Column ``column`` converted by :func:`convert_distinct`, checking for rejects."""
        values, rejected = convert_distinct(self.text[column], convert, dtype)
        self.check(rejected, problem, self.text[column])
        return values

    def integers(self, column: str) -> np.ndarray:
        return self.convert(column, _parse_int, np.int64, column + " must be an integer, got {!r}")

    def problems(self) -> list[str]:
        """For each failing row in order, the first check it fails, with its line number."""
        messages = []
        for i in np.flatnonzero(np.logical_or.reduce([mask for mask, _, _ in self.checks])):
            problem, text = next((p, t) for mask, p, t in self.checks if mask[i])
            messages.append(f"{self.prefix}line {self.lines[i]}: "
                            f"{problem.format(None if text is None else text[i])}")
        return messages

    def raise_first(self) -> None:
        problems = self.problems()
        if problems:
            raise ParseError(problems[0])


def parse_ascent_log(source: str | Path | IO) -> RawAscentLog:
    """Parse a raw ascent-log CSV into columns, reporting bad lines by number."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return _parse_stream(fh)
    if isinstance(source, io.TextIOBase):
        return _parse_stream(source)
    return _parse_stream(io.TextIOWrapper(source, encoding="utf-8", newline=""))


def _parse_stream(stream: IO[str]) -> RawAscentLog:
    table = CsvTable(stream, RAW_COLUMNS)
    day = table.convert("date", lambda text: date.fromisoformat(text.strip()), "datetime64[D]",
                        "invalid date {!r}")
    table.raise_first()
    text = table.text
    return RawAscentLog(text["climber_id"], text["route_id"], text["tick_type"], day,
                        text["grade_label"], text["grade_system"])


def assemble_clean_dataset(
    climber_ids: Sequence[str],
    route_ids: Sequence[str],
    route_grades,
    climber: np.ndarray,
    route: np.ndarray,
    week: np.ndarray,
    success: np.ndarray,
    provenance: dict[str, int] | None = None,
) -> CleanDataset:
    """Run the minimum-activity filters and index the survivors.

    Row ``i`` is an ascent of climber ``climber_ids[climber[i]]`` on route
    ``route_ids[route[i]]`` in week ``week[i]``; both id tables are sorted
    and ``route_grades`` is parallel to ``route_ids``.  Routes with fewer
    than two ascents and climbers with no failed ascent are dropped
    alternately until neither rule removes anything; dropping a route can
    strip a climber's last failure and vice versa, hence the fixpoint loop.
    Surviving entities are indexed in sorted-id order, and the surviving
    rows keep their order.
    """
    n = climber.shape[0]
    prov = provenance if provenance is not None else {"rows_read": n}
    for key in _DROP_KEYS:
        prov.setdefault(key, 0)

    keep = np.ones(n, dtype=bool)
    kept = n
    while True:
        before = kept
        keep &= np.bincount(route[keep], minlength=len(route_ids))[route] >= 2
        after_routes = int(np.count_nonzero(keep))
        prov["dropped_route_few_ascents"] += before - after_routes

        failures = np.bincount(climber[keep & ~success], minlength=len(climber_ids))
        keep &= failures[climber] > 0
        kept = int(np.count_nonzero(keep))
        prov["dropped_climber_no_failure"] += after_routes - kept
        if kept == before:  # a full round removed nothing: fixpoint
            break

    prov["rows_kept"] = kept
    if not kept:
        raise EmptyDatasetError("no ascents survived preprocessing", prov)

    climbers_used, climber_index = np.unique(climber[keep], return_inverse=True)
    routes_used, route_index = np.unique(route[keep], return_inverse=True)
    route_id_of = np.asarray(route_ids, dtype=object)[routes_used].tolist()
    grade_of = np.asarray(route_grades)[routes_used].tolist()
    return CleanDataset(
        climber=climber_index,
        route=route_index,
        week=week[keep],
        success=success[keep],
        routes=[RouteInfo(rid, grade) for rid, grade in zip(route_id_of, grade_of)],
        climbers=np.asarray(climber_ids, dtype=object)[climbers_used].tolist(),
        provenance=prov,
    )


def preprocess(
    log: RawAscentLog,
    mapping: Mapping[str, TickClass] | None = None,
) -> CleanDataset:
    """Clean a raw ascent log into a CleanDataset.

    Stages: classify ticks and drop ambiguous ones; keep only Ewbank-graded
    rows with a positive integer grade label; compute each route's median
    grade; quantize dates to weeks; then apply the minimum-activity fixpoint
    filters.  Every distinct tick, grade system and grade label string is
    classified or converted once.  Raises EmptyDatasetError if nothing
    survives.
    """
    tick, _ = convert_distinct(log.tick_type, lambda text: classify_tick(text, mapping), object)
    ewbank, _ = convert_distinct(
        log.grade_system, lambda text: text.strip().lower() == "ewbank", bool
    )
    # A label int() rejects counts as grade 0, so as invalid.  Grades stay
    # Python ints, of any size, as int() returns them.
    grade, _ = convert_distinct(log.grade_label, _parse_int, object)

    ambiguous = tick == TickClass.AMBIGUOUS
    foreign = ~ambiguous & ~ewbank
    invalid = ~ambiguous & ewbank & (grade <= 0)
    prov = {"rows_read": len(log),
            "dropped_ambiguous_tick": int(np.count_nonzero(ambiguous)),
            "dropped_non_ewbank": int(np.count_nonzero(foreign)),
            "dropped_invalid_grade": int(np.count_nonzero(invalid))}
    graded = ~(ambiguous | foreign | invalid)

    climber_ids, climber = unique_strings(log.climber_id[graded])
    route_ids, route = unique_strings(log.route_id[graded])
    # Each route's median grade (the lower middle for even counts), as
    # median_grade computes it: sort by (route, grade), index each group.
    grade = grade[graded]
    counts = np.bincount(route, minlength=route_ids.shape[0])
    lower_middle = np.cumsum(counts) - counts + (counts - 1) // 2
    route_grades = grade[np.lexsort((grade, route))][lower_middle]
    return assemble_clean_dataset(
        climber_ids, route_ids, route_grades, climber, route,
        quantize_week(log.day[graded]), tick[graded] == TickClass.SUCCESSFUL, prov,
    )


# ---------------------------------------------------------------------------
# Serialization


def write_clean_dataset(dataset: CleanDataset, out_dir: str | Path) -> None:
    """Write ascents.csv, routes.csv, climbers.csv and provenance.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "ascents.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["climber_idx", "route_idx", "week", "outcome"])
        writer.writerows(zip(dataset.climber.tolist(), dataset.route.tolist(),
                             dataset.week.tolist(), dataset.success.astype(int).tolist()))
    with open(out / "routes.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["route_idx", "route_id", "grade"])
        writer.writerows((i, route.route_id, route.grade) for i, route in enumerate(dataset.routes))
    with open(out / "climbers.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["climber_idx", "climber_id"])
        writer.writerows(enumerate(dataset.climbers))
    with open(out / "provenance.txt", "w", encoding="utf-8") as fh:
        for key in ("rows_read", *_DROP_KEYS, "rows_kept"):
            fh.write(f"{key}={dataset.provenance.get(key, 0)}\n")


def read_clean_dataset(in_dir: str | Path) -> CleanDataset:
    """Read a dataset directory written by :func:`write_clean_dataset`.

    Raises ParseError naming the file and line of the first malformed row,
    including an ascent whose climber or route index is outside its table.
    """
    src = Path(in_dir)
    routes = CsvTable.read(src / "routes.csv", ("route_idx", "route_id", "grade"))
    routes.check(routes.integers("route_idx") != np.arange(routes.rows), "route_idx out of order")
    grades = routes.integers("grade").tolist()
    routes.raise_first()
    climbers = CsvTable.read(src / "climbers.csv", ("climber_idx", "climber_id"))
    climbers.check(climbers.integers("climber_idx") != np.arange(climbers.rows),
                   "climber_idx out of order")
    climbers.raise_first()

    ascents = CsvTable.read(src / "ascents.csv", ("climber_idx", "route_idx", "week", "outcome"))
    # the index of "1" in ("0", "1") is True; any other outcome raises ValueError
    success = ascents.convert("outcome", lambda text: ("0", "1").index(text.strip()), bool,
                              "outcome must be 0 or 1")
    climber, route, week = (ascents.integers(c) for c in ("climber_idx", "route_idx", "week"))
    ascents.raise_first()
    ascents.check((climber < 0) | (climber >= climbers.rows),
                  f"climber_idx out of range for {climbers.rows} climbers")
    ascents.check((route < 0) | (route >= routes.rows),
                  f"route_idx out of range for {routes.rows} routes")
    ascents.raise_first()

    prov_path = src / "provenance.txt"
    if prov_path.exists():
        provenance = {}
        for line in prov_path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                key, _, value = line.partition("=")
                provenance[key.strip()] = int(value)
    else:
        provenance = {"rows_read": ascents.rows, "rows_kept": ascents.rows}
    return CleanDataset(
        climber=climber, route=route, week=week, success=success,
        routes=[RouteInfo(rid, g) for rid, g in zip(routes.text["route_id"].tolist(), grades)],
        climbers=climbers.text["climber_id"].tolist(),
        provenance=provenance,
    )


def write_raw_ascent_log(log: RawAscentLog, path: str | Path) -> None:
    """Write a raw ascent log as an ingest-compatible CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_COLUMNS)
        writer.writerows(zip(
            log.climber_id.tolist(), log.route_id.tolist(), log.tick_type.tolist(),
            np.datetime_as_string(log.day).tolist(), log.grade_label.tolist(),
            log.grade_system.tolist(),
        ))
