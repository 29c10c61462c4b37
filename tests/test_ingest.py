"""Raw-log parsing and the preprocessing pipeline."""

import csv
import io
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cragrank import ingest
from cragrank.cli import main
from cragrank.errors import EmptyDatasetError, ParseError
from cragrank.ingest import (
    RAW_COLUMNS,
    CleanDataset,
    CsvTable,
    TickClass,
    _read_checked_ascents,
    _read_written_ascents,
    _split_chunk,
    classify_tick,
    format_float,
    load_tick_mapping,
    parse_ascent_log,
    preprocess,
    quantize_week,
    read_clean_dataset,
    week_start_date,
    write_clean_dataset,
    write_csv,
    write_raw_ascent_log,
)
from helpers import dataset_to_raw_log

HEADER = "climber_id,route_id,tick_type,date,grade_label,grade_system"


def row(climber="alice", route="route-1", tick="redpoint", day="2020-03-14",
        grade="21", system="ewbank"):
    return (climber, route, tick, day, grade, system)


def raw_log(rows):
    """Parse rows of raw fields (dates as ISO text) as a raw ascent log."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(RAW_COLUMNS)
    writer.writerows(rows)
    text.seek(0)
    return parse_ascent_log(text)


def ascents(dataset):
    """The dataset's ascents as (climber, route, week, success) tuples."""
    return list(zip(dataset.climber.tolist(), dataset.route.tolist(),
                    dataset.week.tolist(), dataset.success.tolist()))


def tables(dataset):
    """The dataset's entity tables: climber ids, route ids and route grades, as lists."""
    return (dataset.climber_ids.tolist(), dataset.route_ids.tolist(),
            dataset.route_grades.tolist())


class TestClassifyTick:
    def test_default_successes(self):
        for tick in ("onsight", "flash", "redpoint", "pinkpoint", "clean", "send",
                     "top rope clean"):
            assert classify_tick(tick) is TickClass.SUCCESSFUL

    def test_default_failures(self):
        for tick in ("dog", "hang dog", "attempt", "retreat", "working",
                     "top rope with rest"):
            assert classify_tick(tick) is TickClass.UNSUCCESSFUL

    def test_unknown_is_ambiguous(self):
        assert classify_tick("zzz-unknown") is TickClass.AMBIGUOUS

    def test_case_insensitive(self):
        assert classify_tick("OnSight") is TickClass.SUCCESSFUL
        assert classify_tick("DOG") is TickClass.UNSUCCESSFUL

    def test_custom_mapping_wins(self):
        mapping = {"redpoint": TickClass.UNSUCCESSFUL}
        assert classify_tick("redpoint", mapping) is TickClass.UNSUCCESSFUL
        # ...and the default table is not consulted for the rest
        assert classify_tick("onsight", mapping) is TickClass.AMBIGUOUS


class TestLoadTickMapping:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ticks.txt"
        path.write_text(
            "# site-specific ticks\n"
            "ground up,successful\n"
            "second go,unsuccessful\n"
            "\n"
            "tick,with,commas,ambiguous\n"
        )
        mapping = load_tick_mapping(path)
        assert mapping["ground up"] is TickClass.SUCCESSFUL
        assert mapping["second go"] is TickClass.UNSUCCESSFUL
        assert mapping["tick,with,commas"] is TickClass.AMBIGUOUS

    def test_quoted_ticks_read_as_csv(self, tmp_path):
        path = tmp_path / "ticks.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("hang, dog", "unsuccessful"),
                                      ('said "take"', "ambiguous")])
        assert load_tick_mapping(path) == {"hang, dog": TickClass.UNSUCCESSFUL,
                                           'said "take"': TickClass.AMBIGUOUS}

    def test_bad_class_rejected(self, tmp_path):
        path = tmp_path / "ticks.txt"
        path.write_text("onsight,triumphant\n")
        with pytest.raises(ParseError):
            load_tick_mapping(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "ticks.txt"
        path.write_text("onsight,unsuccessful\nflash,unsuccessful\n", encoding="utf-8-sig")
        assert load_tick_mapping(path) == {"onsight": TickClass.UNSUCCESSFUL,
                                           "flash": TickClass.UNSUCCESSFUL}


class TestQuantizeWeek:
    def test_epoch(self):
        assert quantize_week(date(1970, 1, 1)) == 0

    def test_one_week_later(self):
        assert quantize_week(date(1970, 1, 8)) == 1

    def test_2020(self):
        assert quantize_week(date(2020, 1, 1)) == 2608

    def test_pre_epoch_is_monotone(self):
        assert quantize_week(date(1969, 12, 31)) < quantize_week(date(1970, 1, 1))

    @given(st.dates(min_value=date(1950, 1, 1), max_value=date(2050, 1, 1)))
    def test_shift_by_week(self, day):
        assert quantize_week(day + timedelta(days=7)) == quantize_week(day) + 1

    @given(st.integers(-2000, 5000))
    def test_week_start_date_inverts(self, week):
        assert quantize_week(week_start_date(week)) == week


def route_grades(grades_by_route):
    """Each route's grade in the preprocessed table, for routes with the given grade labels.

    One climber logs every ascent as a failure, so every route with two or
    more graded ascents survives cleaning.
    """
    rows = [row(route=route, tick="attempt", grade=grade)
            for route, grades in grades_by_route.items() for grade in grades]
    ds = preprocess(raw_log(rows))
    return dict(zip(ds.route_ids.tolist(), ds.route_grades.tolist()))


class TestMedianGrade:
    def test_label_beyond_64_bits_is_invalid(self):
        big = str(2**63)
        assert route_grades({"r": [big, "21", "22"]}) == {"r": 21}
        rows = [row(route="r", tick="attempt", grade=g) for g in (big, "21", "22")]
        ds = preprocess(raw_log(rows))
        assert ds.provenance["dropped_invalid_grade"] == 1

    def test_singleton(self):
        assert route_grades({"r": ["21", "21"]}) == {"r": 21}

    def test_odd(self):
        assert route_grades({"r": ["22", "20", "21"]}) == {"r": 21}

    def test_even_takes_lower_middle(self):
        assert route_grades({"r": ["23", "21", "20", "22"]}) == {"r": 21}

    def test_empty_rejected(self):
        # a route without a valid grade label has no median and leaves the table
        rows = [row(route="r", tick="attempt", grade="x"),
                row(route="r", tick="attempt", grade="0"),
                row(route="s", tick="attempt"), row(route="s", tick="attempt")]
        ds = preprocess(raw_log(rows))
        assert ds.route_ids.tolist() == ["s"]
        assert ds.provenance["dropped_invalid_grade"] == 2

    @given(st.lists(st.lists(st.integers(1, 40), min_size=2, max_size=25),
                    min_size=1, max_size=4))
    def test_result_is_an_observed_grade(self, grade_lists):
        got = route_grades({f"r{i}": [str(g) for g in grades]
                            for i, grades in enumerate(grade_lists)})
        for i, grades in enumerate(grade_lists):
            assert got[f"r{i}"] in grades
            assert got[f"r{i}"] == sorted(grades)[(len(grades) - 1) // 2]


class TestParseAscentLog:
    def test_header_only(self):
        assert len(parse_ascent_log(io.StringIO(HEADER + "\n"))) == 0

    def test_single_row_verbatim(self):
        text = HEADER + "\nalice,cave-route,redpoint,2020-03-14,21,ewbank\n"
        log = parse_ascent_log(io.StringIO(text))
        assert len(log) == 1
        assert [column.strings()[0] for column in (log.climber_id, log.route_id, log.tick_type,
                                                   log.grade_label, log.grade_system)] == [
            "alice", "cave-route", "redpoint", "21", "ewbank"]
        assert log.day[0] == np.datetime64(date(2020, 3, 14))

    def test_invalid_date_names_line(self):
        text = (HEADER + "\n"
                "alice,r1,redpoint,2020-03-14,21,ewbank\n"
                "bob,r2,dog,2020-13-40,21,ewbank\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_ascent_log(io.StringIO(text))

    def test_missing_column_rejected(self):
        with pytest.raises(ParseError):
            parse_ascent_log(io.StringIO("climber_id,route_id,tick_type\na,b,c\n"))

    def test_short_row_rejected(self):
        text = HEADER + "\nalice,r1,redpoint\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_ascent_log(io.StringIO(text))

    def test_blank_lines_skipped_and_short_row_named(self):
        ascent = "alice,r1,redpoint,2020-03-14,21,ewbank\n"
        text = HEADER + "\n\n\n" + ascent + "\n\n" + ascent
        assert parse_ascent_log(io.StringIO(text)).climber_id.strings().tolist() == [
            "alice", "alice"]
        with pytest.raises(ParseError, match="^line 8: too few fields$"):
            parse_ascent_log(io.StringIO(text + "bob,r2\n"))

    def test_quoted_fields(self):
        text = HEADER + '\n"alice, a",r1,redpoint,2020-03-14,21,ewbank\n'
        log = parse_ascent_log(io.StringIO(text))
        assert log.climber_id.strings()[0] == "alice, a"

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(HEADER + "\nalice,r1,redpoint,2020-03-14,21,ewbank\n")
        assert len(parse_ascent_log(path)) == 1

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(HEADER + "\nalice,r1,redpoint,2020-03-14,21,ewbank\n",
                        encoding="utf-8-sig")
        log = parse_ascent_log(path)
        assert log.climber_id.strings().tolist() == ["alice"]
        assert log.grade_system.strings().tolist() == ["ewbank"]


@pytest.fixture(scope="class", params=[1, 2], ids=lambda rows: f"read_rows={rows}")
def small_read_chunks(request):
    """CsvTable reading 1 or 2 rows at a time, so that rows and blank lines straddle chunks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_READ_ROWS", request.param)
        yield


@pytest.mark.usefixtures("small_read_chunks")
class TestParseAscentLogInSmallChunks(TestParseAscentLog):
    pass


class TestParseMemory:
    def test_equal_fields_share_one_string(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path)]) == 0
        path = tmp_path / "raw_ascents.csv"
        parse_ascent_log(path)  # one-time allocations stay outside the traced parse
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            log = parse_ascent_log(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(log) == 20000
        for column in (log.climber_id, log.route_id, log.tick_type, log.grade_label,
                       log.grade_system):
            # each distinct string is stored once, and each row holds its code
            assert len(set(column.distinct.tolist())) == len(column.distinct)
            assert column.code.dtype == np.int64 and column.code.shape == (len(log),)
        assert len(log.climber_id.distinct) == 100 and len(log.route_id.distinct) == 200
        # One list and one str per field would take over 500 bytes a row.
        assert peak / len(log) < 250


class TestPreprocess:
    def test_small_pipeline(self):
        rows = [
            row(climber="a", route="r1", tick="attempt", day="2020-01-06", grade="20"),
            row(climber="a", route="r1", tick="redpoint", day="2020-01-13", grade="22"),
            row(climber="b", route="r1", tick="dog", day="2020-01-06", grade="21"),
            row(climber="b", route="r1", tick="flash", day="2020-01-06", grade="23"),
        ]
        ds = preprocess(raw_log(rows))
        ds.check_invariants()
        assert ds.climber_ids.tolist() == ["a", "b"]
        assert ds.route_ids.tolist() == ["r1"]
        assert ds.route_grades[0] == 21  # lower middle of 20, 21, 22, 23
        weeks = set(ds.week.tolist())
        assert weeks == {quantize_week(date(2020, 1, 6)), quantize_week(date(2020, 1, 13))}
        assert ds.provenance["rows_read"] == 4
        assert ds.provenance["rows_kept"] == 4

    def test_single_ascent_route_dropped(self):
        rows = [
            row(climber="a", route="lonely", tick="attempt", day="2020-01-06"),
            row(climber="a", route="pop", tick="attempt", day="2020-01-06"),
            row(climber="b", route="pop", tick="dog", day="2020-01-06"),
        ]
        ds = preprocess(raw_log(rows))
        assert ds.route_ids.tolist() == ["pop"]
        assert ds.provenance["dropped_route_few_ascents"] == 1

    def test_all_success_climber_dropped(self):
        rows = [
            row(climber="crusher", route="r1", tick="onsight"),
            row(climber="crusher", route="r2", tick="flash"),
            row(climber="mortal", route="r1", tick="attempt"),
            row(climber="mortal", route="r1", tick="dog"),
            row(climber="mortal", route="r2", tick="attempt"),
        ]
        ds = preprocess(raw_log(rows))
        assert ds.climber_ids.tolist() == ["mortal"]
        assert ds.provenance["dropped_climber_no_failure"] == 2

    def test_cascade_to_fixpoint(self):
        # dropping the all-success climber leaves r2 with one ascent, which
        # must then be dropped as well
        rows = [
            row(climber="a", route="r1", tick="attempt"),
            row(climber="a", route="r2", tick="redpoint"),
            row(climber="b", route="r2", tick="onsight"),
            row(climber="c", route="r1", tick="dog"),
        ]
        ds = preprocess(raw_log(rows))
        ds.check_invariants()
        assert ds.climber_ids.tolist() == ["a", "c"]
        assert ds.route_ids.tolist() == ["r1"]
        assert len(ds) == 2
        assert ds.provenance["dropped_climber_no_failure"] == 1
        assert ds.provenance["dropped_route_few_ascents"] == 1

    def test_ambiguous_and_foreign_grades_dropped(self):
        rows = [
            row(climber="a", route="r1", tick="attempt"),
            row(climber="a", route="r1", tick="mystery-tick"),
            row(climber="a", route="r1", tick="dog", system="yds", grade="5.10a"),
            row(climber="a", route="r1", tick="dog", grade="hard"),
            row(climber="a", route="r1", tick="dog", grade="0"),
            row(climber="b", route="r1", tick="working"),
        ]
        ds = preprocess(raw_log(rows))
        assert ds.provenance["dropped_ambiguous_tick"] == 1
        assert ds.provenance["dropped_non_ewbank"] == 1
        assert ds.provenance["dropped_invalid_grade"] == 2
        assert len(ds) == 2

    def test_everything_filtered_raises_with_provenance(self):
        rows = [row(climber="a", route="r1", tick="onsight")]
        with pytest.raises(EmptyDatasetError) as exc:
            preprocess(raw_log(rows))
        assert exc.value.provenance is not None
        assert exc.value.provenance["rows_read"] == 1

    def test_provenance_sums(self):
        rows = [
            row(climber="a", route="r1", tick="attempt"),
            row(climber="a", route="r1", tick="???"),
            row(climber="b", route="r1", tick="dog"),
            row(climber="c", route="solo", tick="dog"),
        ]
        ds = preprocess(raw_log(rows))
        dropped = sum(v for k, v in ds.provenance.items()
                      if k.startswith("dropped_"))
        assert ds.provenance["rows_read"] == ds.provenance["rows_kept"] + dropped

    def test_custom_mapping(self):
        mapping = {"whipper": TickClass.UNSUCCESSFUL, "tick": TickClass.SUCCESSFUL}
        rows = [
            row(climber="a", route="r1", tick="whipper"),
            row(climber="b", route="r1", tick="tick"),
            row(climber="b", route="r1", tick="whipper"),
        ]
        ds = preprocess(raw_log(rows), mapping)
        assert len(ds) == 3


class TestParsingSemantics:
    """Field spellings whose handling each distinct string's conversion must keep."""

    LOG = HEADER + (
        "\na,r1, REDPOINT ,2020-01-06, 12,EWBANK \n"
        "a,r1,Hang Dog,2020-01-06,+12,ewbank\n"
        "b,r1,attempt,2020-01-13,1_2,ewbank\n"
        "b,r2,redpoint,2020-01-13,\uff11\uff12,ewbank\n"
        "b,r2,dog,2020-01-13,12.0,ewbank\n"
        "c,r2,dog,2020-01-13,0,ewbank\n"
        '"d\nd",r2,dog,2020-01-20,13,ewbank\n'
    )

    def test_spellings_and_line_numbers(self):
        # " 12" and "+12" are grade 12; "1_2", fullwidth digits, "12.0" and
        # "0" are invalid, which leaves route r2 one ascent
        ds = preprocess(parse_ascent_log(io.StringIO(self.LOG)))
        assert ds.climber_ids.tolist() == ["a"]
        assert ds.route_ids.tolist() == ["r1"]
        assert ds.route_grades.tolist() == [12]
        assert ascents(ds) == [(0, 0, 2609, True), (0, 0, 2609, False)]
        assert ds.provenance == {
            "rows_read": 7, "dropped_ambiguous_tick": 0, "dropped_non_ewbank": 0,
            "dropped_invalid_grade": 4, "dropped_route_few_ascents": 1,
            "dropped_climber_no_failure": 0, "rows_kept": 2,
        }
        # the quoted id spans lines 8-9, so the next row is line 10
        bad = self.LOG + "e,r1,dog,2020-02-30,12,ewbank\n"
        with pytest.raises(ParseError, match="^line 10: invalid date '2020-02-30'$"):
            parse_ascent_log(io.StringIO(bad))


@pytest.mark.usefixtures("small_read_chunks")
class TestParsingSemanticsInSmallChunks(TestParsingSemantics):
    pass


class TestIntegerFields:
    """An integer field is an optional sign and ASCII digits, with spaces around them."""

    # each of these is 20 to int()
    @pytest.mark.parametrize("label", ["2_0", "\u0662\u0660", "\uff12\uff10"])
    def test_other_digits_are_an_invalid_grade(self, label):
        ds = preprocess(raw_log([row(climber="a", tick="attempt", grade="20"),
                                 row(climber="a", tick="redpoint", grade="20"),
                                 row(climber="b", tick="attempt", grade=label)]))
        assert ds.provenance["dropped_invalid_grade"] == 1
        assert ds.provenance["rows_kept"] == 2

    @pytest.mark.parametrize("name, column", [("routes.csv", "route_idx"), ("routes.csv", "grade"),
                                              ("climbers.csv", "climber_idx"),
                                              ("ascents.csv", "week")])
    def test_other_digits_in_a_dataset_table_are_an_error(self, tmp_path, name, column):
        ds = preprocess(raw_log([row(climber="a", tick="attempt", grade="20"),
                                 row(climber="a", tick="redpoint", grade="20")]))
        write_clean_dataset(ds, tmp_path)
        path = tmp_path / name
        lines = path.read_bytes().decode().split("\r\n")
        fields = lines[1].split(",")
        at = lines[0].split(",").index(column)
        # Arabic-Indic digits, which int() reads as the ASCII ones
        fields[at] = fields[at].translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663"
                                                        "\u0664\u0665\u0666\u0667\u0668\u0669"))
        lines[1] = ",".join(fields)
        path.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(ParseError, match=f"^{name} line 2: {column} must be an integer, "
                                             f"got {fields[at]!r}$"):
            read_clean_dataset(tmp_path)


def table_outcome(text: str, newline: str, columns=("x", "z")):
    """The columns, line numbers and problems of CsvTable on a text, or its ParseError."""
    try:
        table = CsvTable(io.StringIO(text, newline=newline), columns)
    except ParseError as exc:
        return str(exc)
    return ({c: (text.distinct.tolist(), text.code.tolist()) for c, text in table.text.items()},
            table.lines.tolist(), table.problems())


# Fields, rare quotes among them, and the line ends of random tables with the header
# x,y,z or x.
csv_fields = st.sampled_from(["", "a", "b", "ab", " a", "a ", "\0", "a\0b", "\ufeff", "\ufeffa",
                              '"', '"q"', '"a,\nb"'])
csv_line_ends = st.sampled_from(["\n", "\r\n", "\r"])
csv_tables = st.tuples(
    st.booleans(),  # a byte-order mark before the header
    st.sampled_from(["x,y,z", "x"]),
    csv_line_ends,  # the header's line end
    st.lists(st.tuples(st.lists(csv_fields, max_size=5), csv_line_ends), max_size=8),
    st.booleans(),  # the last line ends in a line end
)


def table_text(table) -> str:
    mark, header, header_end, lines, last_end = table
    text = ("\ufeff" if mark else "") + header + header_end
    text += "".join(",".join(fields) + end for fields, end in lines)
    if lines and not last_end:
        text = text[:-len(lines[-1][1])]
    return text


class TestCsvRoutes:
    """CsvTable splits a chunk in one call only where csv.reader reads it the same."""

    def test_unquoted_lines_split_in_one_call(self):
        assert _split_chunk(["a,b\n", "c,d\r\n", "e,\n", "g,h"], 2) == [
            "a", "b", "c", "d", "e", "", "g", "h"]

    @pytest.mark.parametrize("lines", [
        ['a,"b"\n'], ["a,b\n", "\n", "c,d\n"], ["a,b\r\n", "\r\n"], ["a,b\r"], ["a\rb,c\n"],
        ["a,b,c\n"], ["a\n"], ["a,b\0\n"],
    ], ids=["quote", "blank", "crlf-blank", "lone-cr", "cr-inside", "long-row", "short-row",
            "nul"])
    def test_other_lines_go_through_the_csv_reader(self, lines):
        assert _split_chunk(lines, 2) is None

    def test_a_line_over_the_field_limit_goes_through_the_csv_reader(self):
        # the csv module's limit is 131,072 characters a field; a longer line might hold one
        assert _split_chunk(["a," + "b" * 131_070 + "\n"], 2) is None
        assert _split_chunk(["a," + "b" * 131_069 + "\n"], 2) == ["a", "b" * 131_069]

    @settings(max_examples=300, deadline=None)
    @given(csv_tables, st.sampled_from(["", "\n"]), st.sampled_from([131_072, 1]))
    def test_both_routes_read_the_same(self, table, newline, limit):
        text, columns = table_text(table), ("x", "z") if table[1] == "x,y,z" else ("x",)
        old_limit = csv.field_size_limit(limit)
        try:
            split = table_outcome(text, newline, columns)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ingest, "_split_chunk", lambda lines, width: None)
                assert table_outcome(text, newline, columns) == split
        finally:
            csv.field_size_limit(old_limit)

    def test_quote_in_a_later_chunk(self):
        text = "x,y,z\na,b,c\nd,e,f\n\"g\nh\",i,j\nk,l,m\n"
        columns, lines, problems = table_outcome(text, "")
        assert columns["x"] == (["a", "d", "g\nh", "k"], [0, 1, 2, 3])
        assert lines == [2, 3, 5, 6]
        assert problems == []


@pytest.mark.usefixtures("small_read_chunks")
class TestCsvRoutesInSmallChunks(TestCsvRoutes):
    pass


raw_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.sampled_from(["r1", "r2", "r3", "r4", "r5"]),
        st.sampled_from(["onsight", "redpoint", "dog", "attempt", "weird", "flash", ""]),
        st.dates(min_value=date(2015, 1, 1), max_value=date(2021, 1, 1)).map(date.isoformat),
        st.sampled_from(["18", "21", "24", "5.11a", "x"]),
        st.sampled_from(["ewbank", "ewbank", "yds"]),
    ),
    max_size=60,
)


class TestPipelineProperties:
    @given(raw_rows)
    @settings(max_examples=150)
    def test_output_invariants_always_hold(self, rows):
        try:
            ds = preprocess(raw_log(rows))
        except EmptyDatasetError as exc:
            assert exc.provenance["rows_read"] == len(rows)
            return
        ds.check_invariants()
        route_counts = {}
        failures = set()
        for climber, route, _, success in ascents(ds):
            route_counts[route] = route_counts.get(route, 0) + 1
            if not success:
                failures.add(climber)
        assert all(n >= 2 for n in route_counts.values())
        assert set(route_counts) == set(range(len(ds.route_ids)))
        assert failures == set(range(len(ds.climber_ids)))
        dropped = sum(v for k, v in ds.provenance.items() if k.startswith("dropped_"))
        assert ds.provenance["rows_read"] == ds.provenance["rows_kept"] + dropped

    @given(raw_rows)
    @settings(max_examples=60)
    def test_idempotent(self, rows):
        try:
            first = preprocess(raw_log(rows))
        except EmptyDatasetError:
            return
        second = preprocess(dataset_to_raw_log(first))
        assert ascents(second) == ascents(first)
        assert tables(second) == tables(first)
        assert second.provenance["rows_kept"] == len(first)
        assert all(v == 0 for k, v in second.provenance.items()
                   if k.startswith("dropped_"))


class TestSerialization:
    def _dataset(self):
        rows = [
            row(climber="a", route="r1", tick="attempt", day="2020-01-06", grade="20"),
            row(climber="a", route="r2", tick="redpoint", day="2020-02-10", grade="24"),
            row(climber="b", route="r1", tick="flash", day="2020-01-07", grade="20"),
            row(climber="b", route="r2", tick="dog", day="2020-03-01", grade="24"),
        ]
        return preprocess(raw_log(rows))

    def test_round_trip(self, tmp_path):
        ds = self._dataset()
        write_clean_dataset(ds, tmp_path)
        back = read_clean_dataset(tmp_path)
        assert ascents(back) == ascents(ds)
        assert tables(back) == tables(ds)
        assert back.provenance == ds.provenance

    def test_missing_provenance_tolerated(self, tmp_path):
        ds = self._dataset()
        write_clean_dataset(ds, tmp_path)
        (tmp_path / "provenance.txt").unlink()
        back = read_clean_dataset(tmp_path)
        assert ascents(back) == ascents(ds)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_bad_outcome_rejected(self, tmp_path, newline):
        ds = self._dataset()
        write_clean_dataset(ds, tmp_path)
        ascents = (tmp_path / "ascents.csv").read_text().splitlines()
        ascents[1] = ascents[1].rsplit(",", 1)[0] + ",2"
        (tmp_path / "ascents.csv").write_bytes((newline.join(ascents) + newline).encode())
        with pytest.raises(ParseError, match="^ascents.csv line 2: outcome must be 0 or 1$"):
            read_clean_dataset(tmp_path)

    @pytest.mark.parametrize("name, column", [("routes.csv", "route_id"),
                                              ("climbers.csv", "climber_id")])
    @pytest.mark.parametrize("earlier", [2, 1], ids=["adjacent", "apart"])
    def test_repeated_id_rejected(self, tmp_path, name, column, earlier):
        # a third row, on line 4, takes the id of the row on line 1 + earlier
        write_clean_dataset(self._dataset(), tmp_path)
        path = tmp_path / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.append(",".join(["2"] + lines[earlier].split(",")[1:]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{name} line 4: {column} repeats an earlier row's$"):
            read_clean_dataset(tmp_path)

    def test_raw_log_round_trip(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "raw.csv"
        write_raw_ascent_log(dataset_to_raw_log(ds), path)
        again = preprocess(parse_ascent_log(path))
        assert ascents(again) == ascents(ds)
        assert tables(again) == tables(ds)

    def test_ids_that_need_quoting_round_trip(self, tmp_path):
        climbers = ["a,b", 'say "hi"', "line\nbreak", "  spaced  "]
        routes = ["r,1", '"r2"', "r\r\n3", " r4 "]
        ds = preprocess(raw_log([
            row(climber=c, route=r, tick=("redpoint", "attempt")[(i + j) % 2], grade=str(20 + j))
            for i, c in enumerate(climbers) for j, r in enumerate(routes)
        ]))
        assert ds.climber_ids.tolist() == sorted(climbers)
        assert ds.route_ids.tolist() == sorted(routes)
        write_clean_dataset(ds, tmp_path / "dataset")
        back = read_clean_dataset(tmp_path / "dataset")
        assert ascents(back) == ascents(ds)
        assert tables(back) == tables(ds)
        write_raw_ascent_log(dataset_to_raw_log(ds), tmp_path / "raw.csv")
        again = preprocess(parse_ascent_log(tmp_path / "raw.csv"))
        assert ascents(again) == ascents(ds)
        assert tables(again) == tables(ds)


def csv_writer_bytes(header, columns):
    """A table as ``csv.writer`` writes it, floats through ``format_float`` and
    bools as 0/1: the reference ``write_csv`` must match byte for byte."""
    fields = []
    for column in map(np.asarray, columns):
        if column.dtype.kind == "f":
            fields.append([format_float(x) for x in column.tolist()])
        elif column.dtype.kind == "b":
            fields.append(column.astype(np.int64).tolist())
        else:
            fields.append(column.tolist())
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(zip(*fields))
    return out.getvalue().encode("utf-8")


AWKWARD_IDS = ["a,b", 'say "hi"', "line\nbreak", "r\r\n3", "cr\ronly", " spaced ", ""]
AWKWARD_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308, 0.1]
INT64 = np.iinfo(np.int64)


class TestWriteCsv:
    @pytest.mark.parametrize("header, columns", [
        (("id", "x", "won", "n"), (np.array(AWKWARD_IDS, dtype=object), np.array(AWKWARD_FLOATS),
                                   np.array([True, False, True, True, False, False, True]),
                                   np.array([INT64.min, INT64.max, 0, -1, 1, 7, 42]))),
        (("x", "id"), (np.array(AWKWARD_FLOATS), np.array(AWKWARD_IDS))),  # a str dtype
        (("id", "n"), (np.array([], dtype=object), np.array([], dtype=np.int64))),
        (("id",), (np.array(AWKWARD_IDS, dtype=object),)),
        (("",), (np.array([""], dtype=object),)),
        (("x",), (np.array(AWKWARD_FLOATS),)),
        (('a "quoted", header', "b"), (np.array([1.5]), np.array(["two"], dtype=object))),
    ])
    def test_bytes_match_csv_writer(self, tmp_path, header, columns):
        write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == csv_writer_bytes(header, columns)

    @pytest.mark.parametrize("rows", [6, 7])
    def test_bytes_match_across_row_chunks(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr("cragrank.ingest._WRITE_ROWS", 3)
        header = ("id", "x", "won", "n")
        columns = (np.array(AWKWARD_IDS[:rows], dtype=object), np.array(AWKWARD_FLOATS[:rows]),
                   np.arange(rows) % 2 == 0, np.arange(rows))
        write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == csv_writer_bytes(header, columns)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.text(), st.floats(), st.booleans(),
                              st.integers(INT64.min, INT64.max)), max_size=20),
           st.booleans())
    def test_random_tables_match_csv_writer(self, tmp_path_factory, rows, one_column):
        texts, floats, bools, ints = zip(*rows) if rows else ((), (), (), ())
        columns = (np.array(texts, dtype=object), np.array(floats, dtype=float),
                   np.array(bools, dtype=bool), np.array(ints, dtype=np.int64))
        header = ("text", "float", "bool", "int")
        if one_column:
            header, columns = header[:1], columns[:1]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == csv_writer_bytes(header, columns)

    @given(st.floats())
    def test_format_float_is_nine_significant_digits(self, x):
        assert format_float(x) == f"{x:.9g}"


def column_outcome(read):
    """The columns ``read`` returns, as (dtype, contiguous, values) each, or its ParseError text."""
    try:
        columns = read()
    except ParseError as exc:
        return str(exc)
    return [(c.dtype.str, c.flags.c_contiguous, c.tolist()) for c in columns]


def replace_field(line: bytes, index: int, text: bytes) -> bytes:
    fields = line.split(b",")
    fields[index] = text
    return b",".join(fields)


def on_first_row(change):
    """A mutation of an ascents.csv that applies ``change`` to its first data line."""
    def mutate(data: bytes) -> bytes:
        lines = data.split(b"\r\n")
        lines[1] = change(lines[1])
        return b"\r\n".join(lines)
    return mutate


def extra_column(header: bytes, field: bytes):
    """A mutation that appends ``header`` to the header line and ``field`` to every row."""
    def mutate(data: bytes) -> bytes:
        lines = data.split(b"\r\n")
        return b"\r\n".join([lines[0] + b"," + header]
                             + [line + b"," + field for line in lines[1:-1]] + [b""])
    return mutate


# Edits of a written ascents.csv; the reader must treat each as the checked
# reader does, whether it takes numpy's parser or not.
MUTATIONS = {
    "lf": lambda data: data.replace(b"\r\n", b"\n"),
    "quoted": on_first_row(lambda line: b'"' + line.replace(b",", b'","') + b'"'),
    "spaces": on_first_row(lambda line: b" " + line.replace(b",", b" , ")),
    "plus": on_first_row(lambda line: b"+" + line),
    "leading zeros": on_first_row(lambda line: replace_field(line, 1, b"003")),
    "minus zero": on_first_row(lambda line: replace_field(line, 0, b"-0")),
    "empty field": on_first_row(lambda line: replace_field(line, 2, b"")),
    "minus inside": on_first_row(lambda line: replace_field(line, 2, b"1-2")),
    "week 2**63": on_first_row(lambda line: replace_field(line, 2, str(2**63).encode())),
    "week -2**63": on_first_row(lambda line: replace_field(line, 2, str(-2**63).encode())),
    "negative week": on_first_row(lambda line: replace_field(line, 2, b"-5")),
    "climber past table": on_first_row(lambda line: replace_field(line, 0, b"99")),
    "negative route": on_first_row(lambda line: replace_field(line, 1, b"-1")),
    "outcome 01": on_first_row(lambda line: replace_field(line, 3, b"01")),
    "outcome 00": on_first_row(lambda line: replace_field(line, 3, b"00")),
    "outcome -0": on_first_row(lambda line: replace_field(line, 3, b"-0")),
    "outcome 2": on_first_row(lambda line: replace_field(line, 3, b"2")),
    "blank line": lambda data: data.replace(b"\r\n", b"\r\n\r\n", 1),
    "no final line end": lambda data: data[:-2],
    "reordered header": lambda data: data.replace(b"climber_idx,route_idx", b"route_idx,climber_idx",
                                                  1),
    "extra column": extra_column(b"note", b"x"),
    "duplicated column": extra_column(b"week", b"3"),
    "header only": lambda data: data.split(b"\r\n")[0] + b"\r\n",
}
# The edits that leave a file numpy's parser reads: fields of digits and minus
# signs that int() reads as it does.
NUMPY_EDITS = {"leading zeros", "minus zero", "negative week", "week -2**63"}

ascent_rows = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                 st.integers(INT64.min, INT64.max), st.booleans()),
                       min_size=1, max_size=12)


class TestWrittenAscents:
    """``read_clean_dataset`` parses an ascents.csv as written with numpy, and
    must give exactly what the checked reader gives, for every file."""

    @staticmethod
    def written(directory, rows):
        climber, route, week, success = (np.array(c) for c in zip(*rows))
        dataset = CleanDataset(climber, route, week, success.astype(bool),
                               np.array([f"c{i}" for i in range(4)], dtype=object),
                               np.array([f"r{i}" for i in range(4)], dtype=object),
                               np.arange(20, 24), {})
        write_clean_dataset(dataset, directory)
        return directory / "ascents.csv"

    @staticmethod
    def both(directory):
        """What read_clean_dataset and the checked reader alone make of the directory."""
        def read():
            dataset = read_clean_dataset(directory)
            return dataset.climber, dataset.route, dataset.week, dataset.success
        checked = column_outcome(lambda: _read_checked_ascents(directory / "ascents.csv", 4, 4))
        return column_outcome(read), checked

    @settings(max_examples=60, deadline=None)
    @given(ascent_rows)
    def test_written_file_takes_numpy_parser(self, tmp_path_factory, rows):
        path = self.written(tmp_path_factory.mktemp("ds"), rows)
        assert column_outcome(lambda: _read_written_ascents(path, 4, 4)) == [
            ("<i8", True, [r[i] for r in rows]) for i in range(3)
        ] + [("|b1", True, [r[3] for r in rows])]
        fast, checked = self.both(path.parent)
        assert fast == checked

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @settings(max_examples=10, deadline=None)
    @given(ascent_rows)
    def test_edited_file_reads_as_checked(self, tmp_path_factory, mutation, rows):
        path = self.written(tmp_path_factory.mktemp("ds"), rows)
        path.write_bytes(MUTATIONS[mutation](path.read_bytes()))
        assert (_read_written_ascents(path, 4, 4) is not None) == (mutation in NUMPY_EDITS)
        fast, checked = self.both(path.parent)
        assert fast == checked


@pytest.mark.usefixtures("small_read_chunks")
class TestWrittenAscentsInSmallChunks(TestWrittenAscents):
    pass
