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
import re
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from enum import Enum
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyDatasetError, ParseError

WEEK_EPOCH = np.datetime64("1970-01-01", "D")

RAW_COLUMNS = ("climber_id", "route_id", "tick_type", "date", "grade_label", "grade_system")

ASCENT_COLUMNS = ("climber_idx", "route_idx", "week", "outcome")
# The first line of an ascents.csv as write_csv writes it.
_ASCENTS_HEADER = ",".join(ASCENT_COLUMNS).encode() + b"\r\n"

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
class CodedColumn:
    """A column of strings as its distinct strings and one code per row.

    ``distinct`` is an object array holding each string once, and ``code``
    an int64 array: row ``i`` holds ``distinct[code[i]]``.  A function of
    the strings is computed once per distinct string and spread over the
    rows by ``code``.
    """

    distinct: np.ndarray
    code: np.ndarray

    def strings(self) -> np.ndarray:
        """The column as an object array of one string per row."""
        return self.distinct[self.code]

    def convert(self, convert, dtype) -> tuple[np.ndarray, np.ndarray]:
        """Each row's string by ``convert``, applied once per distinct string.

        Returns the results as an array of ``dtype``, and a mask of the rows
        whose string ``convert`` rejects with ValueError, or whose result
        ``dtype`` cannot hold (they hold zero).
        """
        values = np.zeros(self.distinct.shape[0], dtype=dtype)
        rejected = np.zeros(self.distinct.shape[0], dtype=bool)
        for i, text in enumerate(self.distinct.tolist()):
            try:
                values[i] = convert(text)
            except (ValueError, OverflowError):
                rejected[i] = True
        return values[self.code], rejected[self.code]

    def ranked(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """What ``np.unique(self.strings()[rows], return_inverse=True)`` returns.

        That is the sorted distinct strings of the rows that the mask
        ``rows`` selects, and each selected row's index into them; only the
        distinct strings are sorted.
        """
        code = self.code[rows]
        used = np.flatnonzero(np.bincount(code, minlength=self.distinct.shape[0]))
        order = used[np.argsort(self.distinct[used])]
        rank = np.zeros(self.distinct.shape[0], dtype=np.int64)
        rank[order] = np.arange(order.shape[0])
        return self.distinct[order], rank[code]


@dataclass
class RawAscentLog:
    """A raw ascent log as parallel columns, one entry per data row.

    The string columns are :class:`CodedColumn` s of the fields verbatim;
    ``day`` holds the parsed dates as ``datetime64[D]``.
    """

    climber_id: CodedColumn
    route_id: CodedColumn
    tick_type: CodedColumn
    day: np.ndarray
    grade_label: CodedColumn
    grade_system: CodedColumn

    def __len__(self) -> int:
        return self.day.shape[0]


@dataclass
class CleanDataset:
    """Preprocessed ascents as four parallel arrays, plus the entity tables.

    Ascent ``i`` is climber ``climber[i]`` on route ``route[i]`` in week
    ``week[i]``, successful iff ``success[i]``.  Climber index ``c`` has the
    external id ``climber_ids[c]``, and route index ``r`` the id
    ``route_ids[r]`` and the grade ``route_grades[r]``; both id arrays are
    object arrays sorted by id.  ``provenance`` counts rows read, kept, and
    dropped per filter rule.
    """

    climber: np.ndarray
    route: np.ndarray
    week: np.ndarray
    success: np.ndarray
    climber_ids: np.ndarray
    route_ids: np.ndarray
    route_grades: np.ndarray
    provenance: dict[str, int]

    def __len__(self) -> int:
        return self.climber.shape[0]

    def subset(self, keep: np.ndarray) -> CleanDataset:
        """The ascents selected by a boolean mask, over the same entity tables."""
        n = int(np.count_nonzero(keep))
        return CleanDataset(
            self.climber[keep], self.route[keep], self.week[keep], self.success[keep],
            self.climber_ids, self.route_ids, self.route_grades,
            {"rows_read": n, "rows_kept": n},
        )


def classify_tick(tick_type: str,
                  mapping: Mapping[str, TickClass] = DEFAULT_TICK_MAPPING) -> TickClass:
    """Classify a tick string, case-insensitively; unknown ticks are ambiguous."""
    return mapping.get(tick_type.strip().lower(), TickClass.AMBIGUOUS)


@contextmanager
def open_input(path: Path):
    """``path`` as a text stream: UTF-8, a leading byte-order mark skipped, line ends as read.
    A byte that is not UTF-8 raises ParseError naming the file and its first such line."""
    with open(path, encoding="utf-8-sig", newline="") as stream:
        try:
            yield stream
        except UnicodeDecodeError:  # each line decodes alone: no UTF-8 character holds \r or \n
            lineno = next(i for i, line in enumerate(path.read_bytes().splitlines(), 1)
                          if line.decode("utf-8", "ignore").encode() != line)
            raise ParseError(f"{path.name} line {lineno}: not UTF-8 text") from None


def load_tick_mapping(path: Path) -> dict[str, TickClass]:
    """Read a ``tick_string,class`` mapping file (class is a TickClass name).

    Each line is read as a CSV row, so a tick may be quoted; the fields
    before the last, joined by commas, are the tick.  Errors name the file
    and line, as ``ticks.csv line 3: not UTF-8 text``, a line the csv module
    cannot read among them.  A leading UTF-8 byte-order mark is skipped.
    """
    mapping: dict[str, TickClass] = {}
    classes = {c.value: c for c in TickClass}
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                *tick, cls = next(csv.reader([line]))
            except csv.Error as exc:
                raise ParseError(f"{path.name} line {lineno}: {exc}") from None
            if not tick:
                raise ParseError(f"{path.name} line {lineno}: expected 'tick_string,class', "
                                 f"got {line!r}")
            cls = cls.strip().lower()
            if cls not in classes:
                raise ParseError(f"{path.name} line {lineno}: unknown tick class {cls!r}")
            mapping[",".join(tick).strip().lower()] = classes[cls]
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


_INT = re.compile(r"[+-]?[0-9]+")


def _parse_int(text: str) -> int:
    """An optional sign and ASCII digits, not the ``2_0`` or other scripts'
    digits that ``int`` also takes."""
    text = text.strip()
    if not _INT.fullmatch(text):
        raise ValueError(text)
    return int(text)


_DATE = re.compile(r"\d{4}-\d{2}-\d{2}")


def _parse_date(text: str) -> date:
    """A ``YYYY-MM-DD`` date, not the other ISO forms that Python 3.11's parser takes."""
    if not _DATE.fullmatch(text.strip()):
        raise ValueError(text)
    return date.fromisoformat(text.strip())


# Lines that CsvTable reads at a time.  Parsing a 161,781-row raw log took a
# tracemalloc peak of 13.0 MB in chunks of this size (1024 lines: 12.9 MB,
# 16384 lines: 18.6 MB), in about the same time.
_READ_ROWS = 4096


class _Codes(dict):
    """Codes 0, 1, 2, ... for strings, in the order they are first looked up."""

    def __missing__(self, text: str) -> int:
        code = self[text] = len(self)
        return code


def _split_chunk(lines: list[str], width: int) -> list[str] | None:
    """The fields of ``lines``, row after row, split by one ``str.split``.

    Returns None unless :func:`csv.reader` reads each line as a row of
    ``width`` fields, the same ones: for lines with a quote, a NUL, a blank
    line, a lone carriage return, a line of another number of fields, or a
    line longer than the csv module's field size limit.
    """
    text = "".join(lines)
    if '"' in text or "\0" in text or "\n" in lines or "\r\n" in lines:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if list(map(str.count, lines, repeat(","))).count(width - 1) != len(lines):
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    fields = text.replace("\n", ",").split(",")
    if text.endswith("\n"):
        fields.pop()  # the empty string after the last line end
    return fields


class CsvTable:
    """The named columns of the CSV file at ``path``, with a header line, and checks on its rows.

    ``text[c]`` holds column ``c`` as a :class:`CodedColumn` of the fields
    verbatim, its distinct strings in the order they first appear.  The file
    is opened by :func:`open_input`, and its lines after the header are read
    :data:`_READ_ROWS` at a time.  A chunk without a quote, a NUL,
    a blank line or a lone carriage return, whose every line holds as many
    fields as the header, is split by one ``str.split``; any other chunk goes
    through :func:`csv.reader`, which reads on past the chunk to finish a
    quoted field.  Both give the same fields and line numbers.  A repeated
    column name refers to its last occurrence, as in ``csv.DictReader``, and
    blank lines are skipped.  Checks are recorded in the order a row is
    checked, starting with a row too short to hold every named field (its
    fields read as empty strings), and :meth:`raise_first` rejects the file at
    the first row that fails one.  Errors name the file, and the line of a
    failing row, of a line the csv module cannot read or of one not UTF-8.
    """

    def __init__(self, path: Path, columns: Sequence[str]):
        self.name = name = path.name
        with open_input(path) as stream:
            reader = csv.reader(stream)
            try:
                header = next(reader, None)
            except csv.Error as exc:
                raise ParseError(f"{name} line {reader.line_num}: {exc}") from None
            if header is None:
                raise ParseError(f"{name}: empty file")
            missing = [c for c in columns if c not in header]
            if missing:
                raise ParseError(f"{name}: missing required columns: {', '.join(missing)}")
            index = [len(header) - 1 - header[::-1].index(c) for c in columns]
            need = max(index) + 1
            codes = [_Codes() for _ in index]
            parts = [[np.zeros(0, dtype=np.int64)] for _ in index]  # each column's chunk codes
            lines, short = [np.zeros(0, dtype=np.int64)], []
            self.rows, read = 0, reader.line_num  # rows kept and lines read so far
            while chunk := list(islice(stream, _READ_ROWS)):
                fields = _split_chunk(chunk, len(header))
                if fields is not None:
                    fields = [fields[i::len(header)] for i in index]
                    chunk_lines = np.arange(read + 1, read + 1 + len(chunk))
                    read += len(chunk)
                else:
                    rows, chunk_lines = [], []
                    reader = csv.reader(chain(chunk, stream))
                    try:
                        for row in reader:
                            if row:
                                if len(row) < need:
                                    short.append(self.rows + len(rows))
                                    row = [""] * need
                                rows.append(row)
                                chunk_lines.append(read + reader.line_num)
                            if reader.line_num >= len(chunk):
                                break
                    except csv.Error as exc:
                        line = read + reader.line_num
                        raise ParseError(f"{name} line {line}: {exc}") from None
                    read += reader.line_num
                    fields = [list(map(itemgetter(i), rows)) for i in index]
                    del rows, reader
                self.rows += len(chunk_lines)
                for column_codes, column, chunks in zip(codes, fields, parts):
                    chunks.append(np.fromiter(map(column_codes.__getitem__, column),
                                              dtype=np.int64, count=len(column)))
                lines.append(np.asarray(chunk_lines, dtype=np.int64))
                del chunk, fields  # free this chunk's strings before the next is read
        self.lines = np.concatenate(lines)
        self.text = {}
        for c, column_codes, chunks in zip(columns, codes, parts):  # free each column's chunks
            self.text[c] = CodedColumn(np.array(list(column_codes), dtype=object),
                                       np.concatenate(chunks))
            chunks.clear()
        self.checks = []
        self.check(np.isin(np.arange(self.rows), short), "too few fields")

    def check(self, failed: np.ndarray, problem: str, text: CodedColumn | None = None) -> None:
        """Record that the rows in ``failed`` have ``problem``, formatted with their ``text``."""
        self.checks.append((failed, problem, text))

    def convert(self, column: str, convert, dtype, problem: str) -> np.ndarray:
        """Column ``column`` by :meth:`CodedColumn.convert`, checking for rejects."""
        values, rejected = self.text[column].convert(convert, dtype)
        self.check(rejected, problem, self.text[column])
        return values

    def integers(self, column: str) -> np.ndarray:
        return self.convert(column, _parse_int, np.int64, column + " must be an integer, got {!r}")

    def floats(self, column: str) -> np.ndarray:
        """Column ``column`` by ``float`` through :meth:`convert`, checking
        that every number is finite."""
        values = self.convert(column, float, float, column + " must be a number, got {!r}")
        self.check(~np.isfinite(values), column + " must be finite, got {!r}", self.text[column])
        return values

    def check_distinct(self, column: str) -> None:
        """Check that no row's field of ``column`` repeats an earlier row's."""
        again = np.ones(self.rows, dtype=bool)
        again[np.unique(self.text[column].code, return_index=True)[1]] = False
        self.check(again, column + " repeats an earlier row's")

    def raise_first(self) -> None:
        """Raise ParseError naming the file, the line of the first row that
        fails a check, and the first check it fails, if any row fails one."""
        failed = np.logical_or.reduce([mask for mask, _, _ in self.checks])
        if failed.any():
            i = int(np.argmax(failed))
            problem, text = next((p, t) for mask, p, t in self.checks if mask[i])
            field = None if text is None else text.distinct[text.code[i]]
            raise ParseError(f"{self.name} line {self.lines[i]}: {problem.format(field)}")


_FLOAT_FIELD = "%.9g"

# A CSV field holding one of these is quoted, as the csv module's default
# (excel) dialect quotes it.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


# Rows that write_csv formats at a time.  Writing the 60k points of a
# pr_curve.csv took 12.6 MB above the live arrays as one chunk and 1.0 MB in
# chunks of this size (tracemalloc), in about the same time.
_WRITE_ROWS = 4096


def format_float(x: float) -> str:
    """A float at the 9 significant digits of every number the package writes."""
    return _FLOAT_FIELD % x


def _csv_texts(texts: list[str]) -> list[str]:
    """``texts`` as fields of the csv module's default dialect in a row of two
    or more fields: quoted, with quotes doubled, where a text holds a comma, a
    quote or a line break."""
    if not _NEEDS_QUOTES.search("".join(texts)):
        return texts
    return ['"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text
            for text in texts]


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write two or more parallel ``columns`` under a ``header`` line as a CSV file.

    A column of float dtype is written by :func:`format_float`, one of bool
    dtype as 0/1, and any other value as its ``str``, quoted where the CSV
    dialect needs it, so that :class:`CsvTable` reads each field back
    verbatim.  The bytes are those of :func:`csv.writer`.  The rows are
    formatted :data:`_WRITE_ROWS` at a time, by one ``%`` of the row
    template repeated once per row, over the rows' fields interleaved.
    """
    columns = [np.asarray(column) for column in columns]
    specs = [_FLOAT_FIELD if column.dtype.kind == "f" else "%d" if column.dtype.kind in "biu"
             else "%s" for column in columns]
    row = ",".join(specs) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_csv_texts(list(header))) + "\r\n")
        for start in range(0, len(columns[0]), _WRITE_ROWS):
            fields = [column[start:start + _WRITE_ROWS].tolist() for column in columns]
            rows = len(fields[0])
            interleaved = [None] * (rows * len(fields))
            for i, (spec, values) in enumerate(zip(specs, fields)):
                interleaved[i::len(fields)] = (_csv_texts(list(map(str, values)))
                                               if spec == "%s" else values)
            fh.write((row * rows) % tuple(interleaved))


def write_keyvalues(path: str | Path, mapping: Mapping) -> None:
    """Write one ``key=value`` line per item of ``mapping``, in its order.

    A bool is written as true/false, a float by :func:`format_float`, and any
    other value as its ``str``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in mapping.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = format_float(value)
            fh.write(f"{key}={value}\n")


def parse_ascent_log(path: str | Path) -> RawAscentLog:
    """Parse a raw ascent-log CSV file into columns; errors name the file and the line."""
    table = CsvTable(Path(path), RAW_COLUMNS)
    day = table.convert("date", _parse_date, "datetime64[D]", "invalid date {!r}")
    table.raise_first()
    text = table.text
    return RawAscentLog(text["climber_id"], text["route_id"], text["tick_type"], day,
                        text["grade_label"], text["grade_system"])


def assemble_clean_dataset(
    climber_ids: np.ndarray,
    route_ids: np.ndarray,
    route_grades: np.ndarray,
    climber: np.ndarray,
    route: np.ndarray,
    week: np.ndarray,
    success: np.ndarray,
    provenance: dict[str, int],
) -> CleanDataset:
    """Run the minimum-activity filters and index the survivors.

    Row ``i`` is an ascent of climber ``climber_ids[climber[i]]`` on route
    ``route_ids[route[i]]`` in week ``week[i]``; the id tables are sorted
    object arrays and ``route_grades`` an int64 array parallel to ``route_ids``.
    Routes with fewer than two ascents and climbers with no failed ascent
    are dropped alternately until neither rule removes anything; dropping a
    route can strip a climber's last failure and vice versa, hence the
    fixpoint loop.  Surviving entities are indexed in sorted-id order, and
    the surviving rows keep their order.  ``provenance`` gains the two drop
    counts, ``dropped_route_few_ascents`` and ``dropped_climber_no_failure``,
    each started at 0, and ``rows_kept``; the dataset keeps it.
    """
    n = climber.shape[0]
    provenance["dropped_route_few_ascents"] = provenance["dropped_climber_no_failure"] = 0

    keep = np.ones(n, dtype=bool)
    kept = n
    while True:
        before = kept
        keep &= np.bincount(route[keep], minlength=len(route_ids))[route] >= 2
        after_routes = int(np.count_nonzero(keep))
        provenance["dropped_route_few_ascents"] += before - after_routes

        failures = np.bincount(climber[keep & ~success], minlength=len(climber_ids))
        keep &= failures[climber] > 0
        kept = int(np.count_nonzero(keep))
        provenance["dropped_climber_no_failure"] += after_routes - kept
        if kept == before:  # a full round removed nothing: fixpoint
            break

    provenance["rows_kept"] = kept
    if not kept:
        raise EmptyDatasetError("no ascents survived preprocessing", provenance)

    climbers_used, climber_index = np.unique(climber[keep], return_inverse=True)
    routes_used, route_index = np.unique(route[keep], return_inverse=True)
    return CleanDataset(
        climber=climber_index,
        route=route_index,
        week=week[keep],
        success=success[keep],
        climber_ids=climber_ids[climbers_used],
        route_ids=route_ids[routes_used],
        route_grades=route_grades[routes_used],
        provenance=provenance,
    )


def preprocess(
    log: RawAscentLog,
    mapping: Mapping[str, TickClass] = DEFAULT_TICK_MAPPING,
) -> CleanDataset:
    """Clean a raw ascent log into a CleanDataset.

    Stages: map each tick to its class and drop ambiguous ones; keep only
    Ewbank-graded rows whose grade label is a positive integer of ASCII
    digits that fits a 64-bit integer; compute each route's median grade;
    quantize dates to weeks; then apply the minimum-activity fixpoint
    filters.  Each distinct string of a column is classified, converted or
    sorted once, and reaches its rows through their codes.
    Raises EmptyDatasetError if nothing survives.
    """
    tick, _ = log.tick_type.convert(lambda text: classify_tick(text, mapping), object)
    ewbank, _ = log.grade_system.convert(lambda text: text.strip().lower() == "ewbank", bool)
    # A label that is not an integer, or one outside the 64-bit range, counts
    # as grade 0, so as invalid.
    grade, _ = log.grade_label.convert(_parse_int, np.int64)

    ambiguous = tick == TickClass.AMBIGUOUS
    foreign = ~ambiguous & ~ewbank
    invalid = ~ambiguous & ewbank & (grade <= 0)
    prov = {"rows_read": len(log),
            "dropped_ambiguous_tick": int(np.count_nonzero(ambiguous)),
            "dropped_non_ewbank": int(np.count_nonzero(foreign)),
            "dropped_invalid_grade": int(np.count_nonzero(invalid))}
    graded = ~(ambiguous | foreign | invalid)

    climber_ids, climber = log.climber_id.ranked(graded)
    route_ids, route = log.route_id.ranked(graded)
    # Each route's median grade: the middle of its sorted grades, or the
    # lower of the two middle ones for an even count.  Sort by (route,
    # grade) and index each group at (count - 1) // 2.
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
    write_csv(out / "ascents.csv", ASCENT_COLUMNS,
              (dataset.climber, dataset.route, dataset.week, dataset.success))
    write_csv(out / "routes.csv", ("route_idx", "route_id", "grade"),
              (np.arange(len(dataset.route_ids)), dataset.route_ids, dataset.route_grades))
    write_csv(out / "climbers.csv", ("climber_idx", "climber_id"),
              (np.arange(len(dataset.climber_ids)), dataset.climber_ids))
    write_keyvalues(out / "provenance.txt", {key: dataset.provenance.get(key, 0)
                                             for key in ("rows_read", *_DROP_KEYS, "rows_kept")})


def _read_written_ascents(path: Path, n_climbers: int, n_routes: int) -> tuple | None:
    """The columns of an ``ascents.csv`` in the form :func:`write_csv` writes,
    parsed by numpy, or None for a file in any other form or with an index
    outside its table.

    The form is the header line, then at least one row of three integers and
    an outcome ``0`` or ``1``, each line ending in CRLF.  The bytes are
    checked for that shape first; a field of digits and minus signs that is
    not an int64 (empty, ``1-2``, beyond the 64-bit range) makes numpy's
    parser raise ValueError, which also means "not this form".
    """
    data = path.read_bytes()
    body = data[len(_ASCENTS_HEADER):]
    rows = body.count(b"\n")
    if not (rows and data.startswith(_ASCENTS_HEADER)
            and body.translate(None, b"0123456789-") == b",,,\r\n" * rows
            and body.count(b",0\r\n") + body.count(b",1\r\n") == rows):
        return None
    try:
        table = np.loadtxt(io.StringIO(body.decode("ascii")), dtype=np.int64, delimiter=",",
                           comments=None, ndmin=2)
    except ValueError:
        return None
    climber, route, week, outcome = table.T.copy()
    if np.any((climber < 0) | (climber >= n_climbers) | (route < 0) | (route >= n_routes)):
        return None
    return climber, route, week, outcome == 1


def _read_checked_ascents(path: Path, n_climbers: int, n_routes: int) -> tuple[np.ndarray, ...]:
    """The columns of any ``ascents.csv`` with the four named columns, checked line by line.

    Every check is recorded before one :meth:`CsvTable.raise_first`, so the
    ParseError names the first row that is malformed or holds an index outside
    its table of ``n_climbers`` climbers or ``n_routes`` routes.
    """
    ascents = CsvTable(path, ASCENT_COLUMNS)
    # the index of "1" in ("0", "1") is True; any other outcome raises ValueError
    success = ascents.convert("outcome", lambda text: ("0", "1").index(text.strip()), bool,
                              "outcome must be 0 or 1")
    climber, route, week = (ascents.integers(c) for c in ASCENT_COLUMNS[:3])
    ascents.check((climber < 0) | (climber >= n_climbers),
                  f"climber_idx out of range for {n_climbers} climbers")
    ascents.check((route < 0) | (route >= n_routes), f"route_idx out of range for {n_routes} routes")
    ascents.raise_first()
    return climber, route, week, success


def read_clean_dataset(in_dir: str | Path) -> CleanDataset:
    """Read a dataset directory written by :func:`write_clean_dataset`.

    The files are read in the order routes, climbers, ascents.  Any CSV with
    their headers is accepted and checked line by line: this raises
    ParseError naming the file and line of the first malformed row,
    including a route or climber whose id repeats an earlier row's and an
    ascent whose climber or route index is outside its table.
    An ``ascents.csv`` exactly as :func:`write_csv` writes it, with every
    index in range, is parsed by numpy instead, to the same arrays.
    ``provenance.txt``, a report for people, is not read: the dataset's
    provenance counts its ascents as read and kept, as a subset's does.
    """
    src = Path(in_dir)
    routes = CsvTable(src / "routes.csv", ("route_idx", "route_id", "grade"))
    routes.check(routes.integers("route_idx") != np.arange(routes.rows), "route_idx out of order")
    grades = routes.integers("grade")
    routes.check_distinct("route_id")
    routes.raise_first()
    climbers = CsvTable(src / "climbers.csv", ("climber_idx", "climber_id"))
    climbers.check(climbers.integers("climber_idx") != np.arange(climbers.rows),
                   "climber_idx out of order")
    climbers.check_distinct("climber_id")
    climbers.raise_first()

    path = src / "ascents.csv"
    climber, route, week, success = (
        _read_written_ascents(path, climbers.rows, routes.rows)
        or _read_checked_ascents(path, climbers.rows, routes.rows))
    n = len(climber)
    return CleanDataset(
        climber=climber, route=route, week=week, success=success,
        climber_ids=climbers.text["climber_id"].strings(),
        route_ids=routes.text["route_id"].strings(),
        route_grades=grades, provenance={"rows_read": n, "rows_kept": n},
    )


def write_raw_ascent_log(log: RawAscentLog, path: str | Path) -> None:
    """Write a raw ascent log as an ingest-compatible CSV."""
    write_csv(path, RAW_COLUMNS, (log.climber_id.strings(), log.route_id.strings(),
                                  log.tick_type.strings(), np.datetime_as_string(log.day),
                                  log.grade_label.strings(), log.grade_system.strings()))
