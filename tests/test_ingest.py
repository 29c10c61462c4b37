"""Raw-log parsing and the preprocessing pipeline."""

import csv
import io
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cragrank.errors import EmptyDatasetError, ParseError
from cragrank.ingest import (
    DEFAULT_TICK_MAPPING,
    RAW_COLUMNS,
    RawAscentLog,
    TickClass,
    classify_tick,
    load_tick_mapping,
    median_grade,
    parse_ascent_log,
    preprocess,
    quantize_week,
    read_clean_dataset,
    week_start_date,
    write_clean_dataset,
    write_raw_ascent_log,
)

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


def dataset_to_raw_log(dataset):
    """The cleaned ascents as a raw log that preprocesses back to the same dataset."""
    route_ids = np.array([r.route_id for r in dataset.routes], dtype=object)
    labels = np.array([str(r.grade) for r in dataset.routes], dtype=object)
    return RawAscentLog(
        climber_id=np.array(dataset.climbers, dtype=object)[dataset.climber],
        route_id=route_ids[dataset.route],
        tick_type=np.where(dataset.success, "redpoint", "attempt").astype(object),
        day=week_start_date(dataset.week),
        grade_label=labels[dataset.route],
        grade_system=np.full(len(dataset), "ewbank", dtype=object),
    )


def ascents(dataset):
    """The dataset's ascents as (climber, route, week, success) tuples."""
    return list(zip(dataset.climber.tolist(), dataset.route.tolist(),
                    dataset.week.tolist(), dataset.success.tolist()))


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

    def test_bad_class_rejected(self, tmp_path):
        path = tmp_path / "ticks.txt"
        path.write_text("onsight,triumphant\n")
        with pytest.raises(ParseError):
            load_tick_mapping(path)


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


class TestMedianGrade:
    def test_singleton(self):
        assert median_grade([21]) == 21

    def test_odd(self):
        assert median_grade([22, 20, 21]) == 21

    def test_even_takes_lower_middle(self):
        assert median_grade([23, 21, 20, 22]) == 21

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_grade([])

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=25))
    def test_result_is_an_observed_grade(self, grades):
        assert median_grade(grades) in grades


class TestParseAscentLog:
    def test_header_only(self):
        assert len(parse_ascent_log(io.StringIO(HEADER + "\n"))) == 0

    def test_single_row_verbatim(self):
        text = HEADER + "\nalice,cave-route,redpoint,2020-03-14,21,ewbank\n"
        log = parse_ascent_log(io.StringIO(text))
        assert len(log) == 1
        assert [log.climber_id[0], log.route_id[0], log.tick_type[0], log.grade_label[0],
                log.grade_system[0]] == ["alice", "cave-route", "redpoint", "21", "ewbank"]
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

    def test_quoted_fields(self):
        text = HEADER + '\n"alice, a",r1,redpoint,2020-03-14,21,ewbank\n'
        log = parse_ascent_log(io.StringIO(text))
        assert log.climber_id[0] == "alice, a"

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(HEADER + "\nalice,r1,redpoint,2020-03-14,21,ewbank\n")
        assert len(parse_ascent_log(path)) == 1


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
        assert ds.climbers == ["a", "b"]
        assert [r.route_id for r in ds.routes] == ["r1"]
        assert ds.routes[0].grade == median_grade([20, 22, 21, 23])
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
        assert [r.route_id for r in ds.routes] == ["pop"]
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
        assert ds.climbers == ["mortal"]
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
        assert ds.climbers == ["a", "c"]
        assert [r.route_id for r in ds.routes] == ["r1"]
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
        ds = preprocess(parse_ascent_log(io.StringIO(self.LOG)))
        assert ds.climbers == ["a", "b", "d\nd"]
        assert [(r.route_id, r.grade) for r in ds.routes] == [("r1", 12), ("r2", 12)]
        assert ascents(ds) == [(0, 0, 2609, True), (0, 0, 2609, False), (1, 0, 2610, False),
                               (1, 1, 2610, True), (2, 1, 2611, False)]
        assert ds.provenance == {
            "rows_read": 7, "dropped_ambiguous_tick": 0, "dropped_non_ewbank": 0,
            "dropped_invalid_grade": 2, "dropped_route_few_ascents": 0,
            "dropped_climber_no_failure": 0, "rows_kept": 5,
        }
        # the quoted id spans lines 8-9, so the next row is line 10
        bad = self.LOG + "e,r1,dog,2020-02-30,12,ewbank\n"
        with pytest.raises(ParseError, match="^line 10: invalid date '2020-02-30'$"):
            parse_ascent_log(io.StringIO(bad))


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
        assert set(route_counts) == set(range(len(ds.routes)))
        assert failures == set(range(len(ds.climbers)))
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
        assert second.routes == first.routes
        assert second.climbers == first.climbers
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
        assert back.routes == ds.routes
        assert back.climbers == ds.climbers
        assert back.provenance == ds.provenance

    def test_missing_provenance_tolerated(self, tmp_path):
        ds = self._dataset()
        write_clean_dataset(ds, tmp_path)
        (tmp_path / "provenance.txt").unlink()
        back = read_clean_dataset(tmp_path)
        assert ascents(back) == ascents(ds)

    def test_bad_outcome_rejected(self, tmp_path):
        ds = self._dataset()
        write_clean_dataset(ds, tmp_path)
        ascents = (tmp_path / "ascents.csv").read_text().splitlines()
        ascents[1] = ascents[1].rsplit(",", 1)[0] + ",2"
        (tmp_path / "ascents.csv").write_text("\n".join(ascents) + "\n")
        with pytest.raises(ParseError):
            read_clean_dataset(tmp_path)

    def test_raw_log_round_trip(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "raw.csv"
        write_raw_ascent_log(dataset_to_raw_log(ds), path)
        again = preprocess(parse_ascent_log(path))
        assert ascents(again) == ascents(ds)
        assert again.routes == ds.routes
