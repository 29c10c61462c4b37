"""Command-line interface tests.

Every invocation goes through ``main(argv)`` in-process, so exit codes and
file outputs are checked exactly as a shell user would see them.
"""

import csv
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cragrank import cli, evaluation, ingest
from cragrank.cli import main
from cragrank.evaluation import EvaluationReport, predict_probabilities
from cragrank.ingest import quantize_week, read_clean_dataset
from cragrank.solver import climber_derivatives, fit, outcome_probabilities, route_derivatives

HEADER = "climber_id,route_id,tick_type,date,grade_label,grade_system"

BASIC_LOG = HEADER + """
alice,r1,redpoint,2020-01-06,21,ewbank
alice,r2,attempt,2020-01-06,23,ewbank
bob,r1,redpoint,2020-01-13,21,ewbank
bob,r2,attempt,2020-01-13,23,ewbank
"""

# Mirror image: swapping the climbers and swapping the routes both map the
# ascent log onto itself, so fitted ratings must be pairwise equal.
MIRROR_LOG = HEADER + """
alice,r1,redpoint,2020-01-06,22,ewbank
alice,r2,attempt,2020-01-06,22,ewbank
bob,r1,attempt,2020-01-06,22,ewbank
bob,r2,redpoint,2020-01-06,22,ewbank
"""

SOLO_LOG = HEADER + """
alice,r1,redpoint,2020-01-06,22,ewbank
alice,r1,redpoint,2020-01-06,22,ewbank
alice,r1,redpoint,2020-01-06,22,ewbank
alice,r1,attempt,2020-01-06,22,ewbank
alice,r1,attempt,2020-01-06,22,ewbank
"""


def run(argv):
    """Invoke the CLI in-process, normalizing SystemExit to an exit code."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0


def write_log(tmp_path, text, name="raw.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_tree(directory):
    """All regular files under a directory as {relative name: bytes}."""
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


def preprocess_fixture(tmp_path, text=BASIC_LOG):
    raw = write_log(tmp_path, text)
    dataset_dir = tmp_path / "dataset"
    assert run(["preprocess", raw, "--out", dataset_dir]) == 0
    return dataset_dir


def command_inputs(tmp_path, command):
    """The input arguments of ``command`` in ``tmp_path``, after it is filled
    with a raw log, its dataset, the ratings fitted to it and a query file."""
    dataset_dir = preprocess_fixture(tmp_path)
    assert run(["fit", dataset_dir, "--out", tmp_path / "ratings"]) == 0
    write_log(tmp_path, "climber_id,route_id,week\nalice,r1,0\nbob,r2,1\n", "query.csv")
    names = {"preprocess": ["raw.csv"], "predict": ["ratings", "query.csv"]}
    return [tmp_path / name for name in names.get(command, ["dataset"])]


@pytest.mark.parametrize("command, emptied, content", [
    ("preprocess", "raw.csv", b""),
    ("preprocess", "raw.csv", b"\xef\xbb\xbf"),
    ("predict", "query.csv", b""),
    ("predict", "ratings/climber_ratings.csv", b""),
    ("fit", "dataset/ascents.csv", b""),
    ("evaluate", "dataset/routes.csv", b""),
], ids=["raw-log", "raw-log-bom-only", "query", "climber-ratings", "ascents", "routes"])
def test_empty_input_file_exits_one_and_names_it(tmp_path, capsys, command, emptied, content):
    inputs = command_inputs(tmp_path, command)
    (tmp_path / emptied).write_bytes(content)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, *inputs, "--out", out]) == 1
    assert capsys.readouterr() == ("", f"error: {Path(emptied).name}: empty file\n")
    assert not out.exists()


@pytest.mark.parametrize("command, argument", [("preprocess", "raw_csv"),
                                               ("predict", "query_csv")], ids=["raw-log", "query"])
@pytest.mark.parametrize("value, last_line", [
    # the empty value names the current directory, as "." does
    ("", "cragrank {}: error: argument {}: '' names a directory, not a file"),
    (".", "cragrank {}: error: argument {}: '.' names a directory, not a file"),
    ("no-such.csv", "error: [Errno 2] No such file or directory: 'no-such.csv'"),
], ids=["empty", "dot", "missing"])
def test_input_that_names_no_file_exits_one(tmp_path, capsys, monkeypatch, command, argument,
                                            value, last_line):
    inputs = command_inputs(tmp_path, command)[:-1] + [value]
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, *inputs, "--out", out]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.splitlines()[-1] == last_line.format(command, argument)
    assert not out.exists()


@pytest.mark.parametrize("command, argument", [("fit", "dataset_dir"), ("evaluate", "dataset_dir"),
                                               ("crossval", "dataset_dir"),
                                               ("predict", "ratings_dir")])
@pytest.mark.parametrize("value", ["raw.csv", "", "no-such-dir"], ids=["file", "empty", "missing"])
def test_input_that_names_no_directory_exits_one(tmp_path, capsys, monkeypatch, command,
                                                 argument, value):
    # the operating system's message named a file inside the value, such as
    # "Not a directory: 'raw.csv/routes.csv'", or, for '', "routes.csv" alone
    inputs = command_inputs(tmp_path, command)
    inputs[0] = value
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, *inputs, "--out", out]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("usage: cragrank")
    assert err.splitlines()[-1] == (
        f"cragrank {command}: error: argument {argument}: {value!r} names no directory")
    assert not out.exists()


@pytest.mark.parametrize("command, edited, line", [
    ("preprocess", "raw.csv", 3),
    ("preprocess", "ticks.csv", 2),
    ("fit", "dataset/routes.csv", 2),
    ("predict", "query.csv", 3),
], ids=["raw-log", "tick-mapping", "routes", "query"])
def test_byte_not_utf8_exits_one_and_names_file_and_line(tmp_path, capsys, command, edited,
                                                          line):
    inputs = command_inputs(tmp_path, command)
    if edited == "ticks.csv":
        write_log(tmp_path, "redpoint,successful\nattempt,unsuccessful\n", "ticks.csv")
        inputs += ["--tick-mapping", tmp_path / "ticks.csv"]
    path = tmp_path / edited
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xe9" + lines[line - 1]  # a Latin-1 "é"
    path.write_bytes(b"".join(lines))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, *inputs, "--out", out]) == 1
    assert capsys.readouterr() == (
        "", f"error: {Path(edited).name} line {line}: not UTF-8 text\n")
    assert not out.exists()


# A byte-order mark on ascents.csv also sends it to the checked reader.
@pytest.mark.parametrize("command, marked", [
    ("fit", "dataset/routes.csv"),
    ("fit", "dataset/climbers.csv"),
    ("fit", "dataset/ascents.csv"),
    ("predict", "ratings/route_ratings.csv"),
    ("predict", "ratings/climber_ratings.csv"),
    ("predict", "query.csv"),
], ids=["routes", "climbers", "ascents", "route-ratings", "climber-ratings", "query"])
def test_byte_order_mark_skipped(tmp_path, command, marked):
    inputs = command_inputs(tmp_path, command)
    assert run([command, *inputs, "--out", tmp_path / "plain"]) == 0
    path = tmp_path / marked
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run([command, *inputs, "--out", tmp_path / "marked"]) == 0
    read = read_tree if command == "fit" else Path.read_bytes  # an output directory or file
    assert read(tmp_path / "marked") == read(tmp_path / "plain")


@pytest.mark.parametrize("command", ["fit", "evaluate", "crossval"])
def test_dataset_without_ascents_exits_two(tmp_path, capsys, command):
    inputs = command_inputs(tmp_path, command)
    (tmp_path / "dataset" / "ascents.csv").write_bytes(b"climber_idx,route_idx,week,outcome\r\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, *inputs, "--out", out]) == 2
    assert capsys.readouterr() == ("", "error: dataset contains no ascents\n")
    assert not out.exists()


class TestHelp:
    @pytest.mark.parametrize(
        "command",
        [[], ["preprocess"], ["fit"], ["predict"], ["evaluate"], ["crossval"], ["synth"]],
    )
    def test_help_exits_zero(self, command, capsys):
        assert run([*command, "--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_missing_subcommand_exits_one(self):
        assert run([]) == 1

    def test_unknown_flag_exits_one(self):
        assert run(["fit", "somewhere", "--out", "x", "--no-such-flag"]) == 1


class TestPreprocess:
    def test_writes_dataset_directory(self, tmp_path, capsys):
        dataset_dir = preprocess_fixture(tmp_path)
        names = set(read_tree(dataset_dir))
        assert {"ascents.csv", "routes.csv", "climbers.csv", "provenance.txt"} <= names
        out = capsys.readouterr().out
        assert "kept 4 of 4" in out

    def test_sparse_route_drop_recorded(self, tmp_path):
        log = BASIC_LOG + "alice,r3,attempt,2020-01-20,24,ewbank\n"
        dataset_dir = preprocess_fixture(tmp_path, log)
        provenance = (dataset_dir / "provenance.txt").read_text()
        assert "dropped_route_few_ascents=1" in provenance

    def test_empty_after_filtering_exits_two(self, tmp_path, capsys):
        log = HEADER + "\nalice,r1,redpoint,2020-01-06,21,ewbank\n" \
                       "bob,r1,redpoint,2020-01-06,21,ewbank\n"
        raw = write_log(tmp_path, log)
        assert run(["preprocess", raw, "--out", tmp_path / "d"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_exits_one(self, tmp_path, capsys):
        raw = write_log(tmp_path, HEADER + "\nalice,r1,redpoint,2020-13-40,21,ewbank\n")
        assert run(["preprocess", raw, "--out", tmp_path / "d"]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_tick_mapping_that_names_no_file_exits_one(self, tmp_path, capsys, monkeypatch):
        # the empty value names the current directory, as "." does
        monkeypatch.chdir(tmp_path)
        raw = write_log(tmp_path, BASIC_LOG)
        usage_error = "cragrank preprocess: error: argument --tick-mapping: "
        for value, last_line in (
                ("", usage_error + "'' names a directory, not a file"),
                (".", usage_error + "'.' names a directory, not a file"),
                ("no-such.csv", "error: [Errno 2] No such file or directory: 'no-such.csv'")):
            assert run(["preprocess", raw, "--out", tmp_path / "d", "--tick-mapping", value]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.splitlines()[-1] == last_line
            assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("log, ticks, problem", [
        (HEADER + "\nalice,r1,redpoint,2020-13-01,21,ewbank\n", None,
         "raw.csv line 2: invalid date '2020-13-01'"),
        # ISO forms that date.fromisoformat takes on Python 3.11 but not 3.10
        (HEADER + "\nalice,r1,redpoint,20200106,21,ewbank\n", None,
         "raw.csv line 2: invalid date '20200106'"),
        (HEADER + "\nalice,r1,redpoint,2020-W02-1,21,ewbank\n", None,
         "raw.csv line 2: invalid date '2020-W02-1'"),
        (BASIC_LOG, "onsight,triumphant\n", "ticks.csv line 1: unknown tick class 'triumphant'"),
        (BASIC_LOG, "onsight\n", "ticks.csv line 1: expected 'tick_string,class', got 'onsight'"),
        # a field longer than the csv module's limit, in the first row or after others
        (HEADER + f"\nalice,r1,{'x' * 200_000},2020-01-06,21,ewbank\n", None,
         "raw.csv line 2: field larger than field limit (131072)"),
        (BASIC_LOG + f"bob,r1,{'x' * 200_000},2020-01-06,21,ewbank\n", None,
         "raw.csv line 6: field larger than field limit (131072)"),
        (BASIC_LOG, f"onsight,successful\n{'x' * 200_000},successful\n",
         "ticks.csv line 2: field larger than field limit (131072)"),
        ("x" * 200_000 + "," + BASIC_LOG, None,
         "raw.csv line 1: field larger than field limit (131072)"),
    ], ids=["raw-log", "raw-log-basic-date", "raw-log-week-date", "tick-mapping",
            "tick-mapping-no-class", "raw-log-long-field", "raw-log-long-field-after-rows",
            "tick-mapping-long-field", "raw-log-long-header"])
    def test_errors_name_their_file(self, tmp_path, capsys, log, ticks, problem):
        args = ["preprocess", write_log(tmp_path, log), "--out", tmp_path / "d"]
        if ticks is not None:
            args += ["--tick-mapping", write_log(tmp_path, ticks, "ticks.csv")]
        assert run(args) == 1
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not (tmp_path / "d").exists()

    def test_custom_tick_mapping(self, tmp_path, capsys):
        log = HEADER + """
alice,r1,sent,2020-01-06,21,ewbank
alice,r1,punted,2020-01-06,21,ewbank
bob,r1,sent,2020-01-13,21,ewbank
bob,r1,punted,2020-01-13,21,ewbank
"""
        raw = write_log(tmp_path, log)
        mapping = tmp_path / "ticks.csv"
        mapping.write_text("sent,successful\npunted,unsuccessful\n", encoding="utf-8")
        code = run(["preprocess", raw, "--out", tmp_path / "d", "--tick-mapping", mapping])
        assert code == 0
        assert "kept 4 of 4" in capsys.readouterr().out

    def test_tick_mapping_written_by_csv_writer(self, tmp_path, capsys):
        # a tick with a comma is quoted in the log and in the mapping file alike
        log = HEADER + """
alice,r1,sent,2020-01-06,21,ewbank
alice,r1,"hang, dog",2020-01-06,21,ewbank
bob,r1,sent,2020-01-13,21,ewbank
bob,r1,"hang, dog",2020-01-13,21,ewbank
"""
        raw = write_log(tmp_path, log)
        mapping = tmp_path / "ticks.csv"
        with open(mapping, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("sent", "successful"), ("hang, dog", "unsuccessful")])
        code = run(["preprocess", raw, "--out", tmp_path / "d", "--tick-mapping", mapping])
        assert code == 0
        assert "kept 4 of 4" in capsys.readouterr().out

    def test_grade_label_beyond_64_bits_dropped_and_fit_runs(self, tmp_path):
        log = BASIC_LOG + ("alice,r3,attempt,2020-01-06,99999999999999999999,ewbank\n"
                           "bob,r3,attempt,2020-01-13,99999999999999999999,ewbank\n")
        dataset_dir = preprocess_fixture(tmp_path, log)
        provenance = (dataset_dir / "provenance.txt").read_text()
        assert "dropped_invalid_grade=2" in provenance
        assert "99999999999999999999" not in (dataset_dir / "routes.csv").read_text()
        assert run(["fit", dataset_dir, "--out", tmp_path / "ratings"]) == 0

    def test_idempotent_outputs(self, tmp_path):
        raw = write_log(tmp_path, BASIC_LOG)
        assert run(["preprocess", raw, "--out", tmp_path / "a"]) == 0
        assert run(["preprocess", raw, "--out", tmp_path / "b"]) == 0
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")


# CsvTable's row-chunk sizes to run read errors at, with their id suffixes:
# the default (no suffix), then one and two rows.
READ_ROWS = [(ingest._READ_ROWS, ""), (1, "-read_rows=1"), (2, "-read_rows=2")]

# The line of a rating in each ratings file that TestPredict writes.
RATING_LINES = [("route_ratings.csv", 3), ("climber_ratings.csv", 4)]


# An index column, the line end of the edited ascents.csv (the ids of the LF
# cases predate the CRLF ones), and CsvTable's row-chunk size.
INDEX_CASES = [pytest.param(column, newline, read_rows, id=column + suffix + rows_suffix)
               for newline, suffix in (("\n", ""), ("\r\n", "-crlf"))
               for column in ("climber_idx", "route_idx")
               for read_rows, rows_suffix in READ_ROWS]


class TestFit:
    def test_writes_rating_files(self, tmp_path, capsys):
        dataset_dir = preprocess_fixture(tmp_path)
        out = tmp_path / "fit"
        assert run(["fit", dataset_dir, "--out", out]) == 0
        names = set(read_tree(out))
        assert names == {"route_ratings.csv", "climber_ratings.csv", "fit_report.txt"}
        assert "converged=True" in capsys.readouterr().out
        report = (out / "fit_report.txt").read_text()
        assert "converged=true" in report
        assert "iterations=" in report

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        dataset_dir = preprocess_fixture(tmp_path)
        outputs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            assert run(["fit", dataset_dir, "--out", out, "--threads", threads]) == 0
            outputs.append(read_tree(out))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_mirror_fixture_gets_equal_ratings(self, tmp_path):
        dataset_dir = preprocess_fixture(tmp_path, MIRROR_LOG)
        out = tmp_path / "fit"
        assert run(["fit", dataset_dir, "--out", out]) == 0
        with open(out / "route_ratings.csv", newline="") as fh:
            route_ratings = [rec["rating"] for rec in csv.DictReader(fh)]
        assert len(route_ratings) == 2
        assert route_ratings[0] == route_ratings[1]
        with open(out / "climber_ratings.csv", newline="") as fh:
            climber_ratings = [rec["rating"] for rec in csv.DictReader(fh)]
        assert len(climber_ratings) == 2
        assert climber_ratings[0] == climber_ratings[1]

    def test_solo_fixture_matches_frozen_optimum(self, tmp_path):
        # Same 3-success/2-failure instance pinned against the grid-search
        # oracle in the solver tests; the CLI must reproduce it through the
        # file round trip.
        dataset_dir = preprocess_fixture(tmp_path, SOLO_LOG)
        out = tmp_path / "fit"
        assert run(["fit", dataset_dir, "--out", out]) == 0
        with open(out / "route_ratings.csv", newline="") as fh:
            (route,) = list(csv.DictReader(fh))
        with open(out / "climber_ratings.csv", newline="") as fh:
            (climber,) = list(csv.DictReader(fh))
        assert float(climber["rating"]) == pytest.approx(0.06956284286665816, abs=1e-9)
        assert float(route["rating"]) == pytest.approx(-0.27825137146663265, abs=1e-9)

    def test_non_convergence_warns_but_exits_zero(self, tmp_path, capsys):
        dataset_dir = preprocess_fixture(tmp_path)
        out = tmp_path / "fit"
        assert run(["fit", dataset_dir, "--out", out, "--max-iterations", "8"]) == 0
        captured = capsys.readouterr()
        assert "not converged" in captured.err
        assert "converged=false" in (out / "fit_report.txt").read_text()

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_hyper_config_file_and_flag_priority(self, tmp_path, encoding):
        dataset_dir = preprocess_fixture(tmp_path)
        config = tmp_path / "hyper.json"
        config.write_text(json.dumps({"b": 0.0, "sigma_r_sq": 2.0}), encoding=encoding)
        out_config = tmp_path / "via-config"
        out_flag = tmp_path / "via-flag"
        assert run(["fit", dataset_dir, "--out", out_config,
                    "--hyper-config", config]) == 0
        # The flag overrides the config's b=0.0 back to the default 0.4.
        assert run(["fit", dataset_dir, "--out", out_flag,
                    "--hyper-config", config, "--b", "0.4"]) == 0
        baseline = tmp_path / "default"
        assert run(["fit", dataset_dir, "--out", baseline,
                    "--sigma-r-sq", "2.0"]) == 0
        assert read_tree(out_flag) == read_tree(baseline)
        assert read_tree(out_config) != read_tree(baseline)

    @pytest.mark.parametrize("config", [
        "5", "[0.4]", '{"sigma_c_sq": "x"}', '{"w_sq": null}', '{"b": "0.4"}', '{"b": true}',
        '{"b": NaN}', '{"w_sq": 1e999}', '{"g0": 1.5}', '{"b": 1%s}' % ("0" * 400),
    ])
    def test_malformed_hyper_config_exits_one(self, tmp_path, capsys, config):
        dataset_dir = preprocess_fixture(tmp_path)
        path = tmp_path / "hyper.json"
        path.write_text(config, encoding="utf-8")
        capsys.readouterr()
        assert run(["fit", dataset_dir, "--out", tmp_path / "f", "--hyper-config", path]) == 1
        assert capsys.readouterr().err.startswith("error: hyperparameter")
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("flag", [
        ["--w-sq", "nan"], ["--b", "nan"], ["--sigma-r-sq", "inf"],
        ["--g0", "100000000000000000000000"], ["--g0", "0", "--b", "1e308"],
    ])
    def test_bad_hyper_flag_exits_one(self, tmp_path, capsys, flag):
        dataset_dir = preprocess_fixture(tmp_path)
        capsys.readouterr()
        assert run(["fit", dataset_dir, "--out", tmp_path / "f", *flag]) == 1
        assert capsys.readouterr().err.startswith("error: hyperparameter")
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("config, problem", [
        (b'{"b": 0.4,, "g0": 22}', "line 1: Expecting property name enclosed in double quotes"),
        (b'{\n"b": 0.4\n"g0": 22\n}\n', "line 3: Expecting ',' delimiter"),
        (b'{\r"b": 0.4\r"g0": 22\r}', "line 3: Expecting ',' delimiter"),
        (b'{"b": 0.4, "g0": 22, "\xe9": 1}', "line 1: not UTF-8 text"),  # a Latin-1 "é"
    ], ids=["double-comma", "missing-comma", "missing-comma-cr", "latin-1"])
    def test_hyper_config_not_json_names_file_and_line(self, tmp_path, capsys, config, problem):
        dataset_dir = preprocess_fixture(tmp_path)
        path = tmp_path / "hyper.json"
        path.write_bytes(config)
        capsys.readouterr()
        assert run(["fit", dataset_dir, "--out", tmp_path / "f", "--hyper-config", path]) == 1
        assert capsys.readouterr() == ("", f"error: hyper.json {problem}\n")
        assert not (tmp_path / "f").exists()

    def test_large_integer_in_hyper_config_is_a_float(self, tmp_path):
        dataset_dir = preprocess_fixture(tmp_path)
        path = tmp_path / "hyper.json"
        path.write_text('{"b": 100000000000000000000000}', encoding="utf-8")
        assert run(["fit", dataset_dir, "--out", tmp_path / "config",
                    "--hyper-config", path]) == 0
        assert run(["fit", dataset_dir, "--out", tmp_path / "flag", "--b", "1e23"]) == 0
        assert read_tree(tmp_path / "config") == read_tree(tmp_path / "flag")

    def test_integral_g0_in_hyper_config_accepted(self, tmp_path):
        dataset_dir = preprocess_fixture(tmp_path)
        path = tmp_path / "hyper.json"
        path.write_text('{"g0": 21.0}', encoding="utf-8")
        assert run(["fit", dataset_dir, "--out", tmp_path / "config",
                    "--hyper-config", path]) == 0
        assert run(["fit", dataset_dir, "--out", tmp_path / "flag", "--g0", "21"]) == 0
        assert read_tree(tmp_path / "config") == read_tree(tmp_path / "flag")

    def test_empty_hyper_config_exits_one(self, tmp_path, capsys):
        # an empty path names the current directory, which is no config file
        dataset_dir = preprocess_fixture(tmp_path)
        capsys.readouterr()
        assert run(["fit", dataset_dir, "--out", tmp_path / "f", "--hyper-config", ""]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(
            "cragrank fit: error: argument --hyper-config: '' names a directory, not a file\n")
        assert not (tmp_path / "f").exists()

    def test_hyper_config_that_names_no_file_exits_one(self, tmp_path, capsys):
        dataset_dir, missing = preprocess_fixture(tmp_path), str(tmp_path / "no.json")
        capsys.readouterr()
        for value, last_line in (
                (tmp_path, "cragrank fit: error: argument --hyper-config: "
                           f"{str(tmp_path)!r} names a directory, not a file"),
                (missing, f"error: [Errno 2] No such file or directory: {missing!r}")):
            assert run(["fit", dataset_dir, "--out", tmp_path / "f", "--hyper-config", value]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.splitlines()[-1] == last_line
            assert not (tmp_path / "f").exists()

    def test_unknown_hyper_config_key_exits_one(self, tmp_path, capsys):
        dataset_dir = preprocess_fixture(tmp_path)
        config = tmp_path / "hyper.json"
        config.write_text(json.dumps({"sigma_q_sq": 1.0}), encoding="utf-8")
        assert run(["fit", dataset_dir, "--out", tmp_path / "f",
                    "--hyper-config", config]) == 1
        assert "unknown hyperparameter" in capsys.readouterr().err

    @pytest.mark.parametrize("column, newline, read_rows", INDEX_CASES)
    def test_negative_index_exits_one_with_line(self, tmp_path, capsys, monkeypatch, column,
                                                newline, read_rows):
        monkeypatch.setattr(ingest, "_READ_ROWS", read_rows)
        self.assert_index_rejected(tmp_path, capsys, column, "-1", newline)

    @pytest.mark.parametrize("column, newline, read_rows", INDEX_CASES)
    def test_index_past_table_exits_one_with_line(self, tmp_path, capsys, monkeypatch, column,
                                                  newline, read_rows):
        monkeypatch.setattr(ingest, "_READ_ROWS", read_rows)
        self.assert_index_rejected(tmp_path, capsys, column, "2", newline)

    def assert_index_rejected(self, tmp_path, capsys, column, value, newline):
        # BASIC_LOG has two climbers and two routes, so indexes run 0..1.  With
        # CRLF line ends the file keeps the form write_csv writes.
        dataset_dir = preprocess_fixture(tmp_path)
        path = dataset_dir / "ascents.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split(",")
        fields[0 if column == "climber_idx" else 1] = value
        lines[2] = ",".join(fields)
        path.write_bytes((newline.join(lines) + newline).encode())
        capsys.readouterr()
        assert run(["fit", dataset_dir, "--out", tmp_path / "ratings"]) == 1
        table = "climbers" if column == "climber_idx" else "routes"
        assert capsys.readouterr().err == (
            f"error: ascents.csv line 3: {column} out of range for 2 {table}\n")

    def test_first_bad_ascent_line_named_whatever_its_check(self, tmp_path, capsys):
        # An index out of range on line 3 comes before an outcome that is not
        # 0 or 1 on line 5, though the outcome is checked first.
        dataset_dir = preprocess_fixture(tmp_path)
        path = dataset_dir / "ascents.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = "999," + lines[2].split(",", 1)[1]
        lines[4] = lines[4][:-1] + "2"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["fit", dataset_dir, "--out", tmp_path / "ratings"]) == 1
        assert capsys.readouterr() == (
            "", "error: ascents.csv line 3: climber_idx out of range for 2 climbers\n")
        assert not (tmp_path / "ratings").exists()

    def test_missing_dataset_exits_one(self, tmp_path):
        assert run(["fit", tmp_path / "nowhere", "--out", tmp_path / "f"]) == 1

    @pytest.mark.parametrize("command", ["fit", "evaluate", "crossval"])
    @pytest.mark.parametrize("table, column", [("routes", "route_id"), ("climbers", "climber_id")])
    def test_repeated_id_exits_one_with_line(self, tmp_path, capsys, command, table, column):
        # BASIC_LOG has two climbers and two routes; the second row takes the first's id
        dataset_dir = preprocess_fixture(tmp_path)
        path = dataset_dir / f"{table}.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        first, second = lines[1].split(","), lines[2].split(",")
        lines[2] = ",".join([second[0], first[1]] + second[2:])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run([command, dataset_dir, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (
            f"error: {table}.csv line 3: {column} repeats an earlier row's\n")
        assert not (tmp_path / "out").exists()


class TestPredict:
    def write_ratings(self, tmp_path):
        ratings = tmp_path / "ratings"
        ratings.mkdir()
        (ratings / "route_ratings.csv").write_text(
            "route_idx,route_id,grade,rating\n"
            "0,r1,22,0.8\n"
            "1,r2,24,0\n",
            encoding="utf-8",
        )
        (ratings / "climber_ratings.csv").write_text(
            "climber_idx,climber_id,week,rating\n"
            "0,alice,0,1\n"
            "0,alice,10,3\n"
            "1,bob,0,0.8\n",
            encoding="utf-8",
        )
        return ratings

    def predict(self, tmp_path, query_rows):
        ratings = self.write_ratings(tmp_path)
        query = tmp_path / "query.csv"
        query.write_text(
            "climber_id,route_id,week\n" + "".join(f"{r}\n" for r in query_rows),
            encoding="utf-8",
        )
        out = tmp_path / "predictions.csv"
        code = run(["predict", ratings, query, "--out", out])
        if code != 0:
            return code, []
        with open(out, newline="") as fh:
            return code, list(csv.DictReader(fh))

    def test_equal_ratings_give_half(self, tmp_path):
        code, rows = self.predict(tmp_path, ["bob,r1,0"])
        assert code == 0
        assert rows[0]["probability"] == "0.5"
        assert rows[0]["fallback"] == "none"

    def test_unknown_entities_fall_back_to_prior_mean(self, tmp_path):
        code, rows = self.predict(
            tmp_path, ["stranger,r2,0", "stranger,mystery,5", "alice,mystery,0"]
        )
        assert code == 0
        assert rows[0]["probability"] == "0.5"  # 0 vs rating 0
        assert rows[0]["fallback"] == "climber"
        assert rows[1]["probability"] == "0.5"
        assert rows[1]["fallback"] == "climber+route"
        assert rows[2]["fallback"] == "route"
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert float(rows[2]["probability"]) == pytest.approx(expected, abs=1e-9)

    def test_nearest_week_selection(self, tmp_path):
        code, rows = self.predict(
            tmp_path, ["alice,r2,4", "alice,r2,6", "alice,r2,5"]
        )
        assert code == 0
        p_week4, p_week6, p_week5 = (float(r["probability"]) for r in rows)
        low = 1.0 / (1.0 + math.exp(-1.0))
        high = 1.0 / (1.0 + math.exp(-3.0))
        assert p_week4 == pytest.approx(low, abs=1e-9)
        assert p_week6 == pytest.approx(high, abs=1e-9)
        assert p_week5 == pytest.approx(low, abs=1e-9)  # tie prefers earlier

    def test_malformed_week_reports_line_and_exits_one(self, tmp_path, capsys):
        code, _ = self.predict(tmp_path, ["alice,r1,soon"])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "week" in err

    @pytest.mark.parametrize("name, line, read_rows, text, problem", [
        pytest.param(name, line, read_rows, "abc", "must be a number",
                     id=f"{name}-{line}{rows_suffix}")
        for name, line in RATING_LINES for read_rows, rows_suffix in READ_ROWS] + [
        pytest.param(name, line, ingest._READ_ROWS, text, "must be finite", id=f"{name}-{line}-{text}")
        for name, line in RATING_LINES for text in ("nan", "inf", "-inf", "NaN", "-Infinity")])
    def test_bad_rating_reports_file_and_line(self, tmp_path, capsys, monkeypatch, name, line,
                                              read_rows, text, problem):
        monkeypatch.setattr(ingest, "_READ_ROWS", read_rows)
        ratings = self.write_ratings(tmp_path)
        path = ratings / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[line - 1] = lines[line - 1].rsplit(",", 1)[0] + "," + text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        query = tmp_path / "query.csv"
        query.write_text("climber_id,route_id,week\nalice,r1,0\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", ratings, query, "--out", tmp_path / "p.csv"]) == 1
        assert capsys.readouterr().err == (
            f"error: {name} line {line}: rating {problem}, got {text!r}\n")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("rows, problem", [
        (["0,a,10,1", "0,a,10,3", "0,a,20,5"],
         "climber_ratings.csv line 3: climber_id and week repeat an earlier row's"),
        (["0,a,20,5", "0,a,10,1", "1,b,10,2", "0,a,010,3"],
         "climber_ratings.csv line 5: climber_id and week repeat an earlier row's"),
        # a week that fails to parse is reported, not the row whose week it seems to repeat
        (["0,a,soon,1", "0,a,0,2"],
         "climber_ratings.csv line 2: week must be an integer, got 'soon'"),
    ], ids=["adjacent", "apart-and-respelled", "bad-week-first"])
    def test_repeated_climber_week_exits_one_with_line(self, tmp_path, capsys, rows, problem):
        ratings = self.write_ratings(tmp_path)
        (ratings / "climber_ratings.csv").write_text(
            "climber_idx,climber_id,week,rating\n" + "".join(f"{r}\n" for r in rows),
            encoding="utf-8")
        query = tmp_path / "query.csv"
        query.write_text("climber_id,route_id,week\na,r1,10\na,r1,14\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", ratings, query, "--out", tmp_path / "p.csv"]) == 1
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("rows, line", [
        (["0,r1,22,0.8", "1,r1,22,-2"], 3),
        (["0,r1,22,0.8", "1,r2,24,0", "2,r3,20,1", "3,r2,24,5"], 5),
    ], ids=["adjacent", "apart"])
    def test_repeated_route_exits_one_with_line(self, tmp_path, capsys, rows, line):
        ratings = self.write_ratings(tmp_path)
        (ratings / "route_ratings.csv").write_text(
            "route_idx,route_id,grade,rating\n" + "".join(f"{r}\n" for r in rows),
            encoding="utf-8")
        query = tmp_path / "query.csv"
        query.write_text("climber_id,route_id,week\nalice,r1,0\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", ratings, query, "--out", tmp_path / "p.csv"]) == 1
        assert capsys.readouterr().err == (
            f"error: route_ratings.csv line {line}: route_id repeats an earlier row's\n")
        assert not (tmp_path / "p.csv").exists()

    def test_missing_columns_exit_one(self, tmp_path, capsys):
        ratings = self.write_ratings(tmp_path)
        query = tmp_path / "query.csv"
        query.write_text("who,route_id,week\nalice,r1,0\n", encoding="utf-8")
        assert run(["predict", ratings, query, "--out", tmp_path / "p.csv"]) == 1
        assert "climber_id" in capsys.readouterr().err

    @pytest.mark.parametrize("text, problem", [
        ("climber_id,route_id,week\nalice,r1,0\nalice,r1,soon\n",
         "query.csv line 3: week must be an integer, got 'soon'"),
        ("climber_id\nalice\n", "query.csv: missing required columns: route_id, week"),
        # three bad lines, the second of them short: only the first bad line is named
        ("climber_id,route_id,week\nalice,r1,0\nalice,r1,soon\nbob\nbob,r2,later\n",
         "query.csv line 3: week must be an integer, got 'soon'"),
    ], ids=["bad-week", "missing-columns", "three-bad-lines"])
    def test_bad_query_names_its_file(self, tmp_path, capsys, text, problem):
        ratings = self.write_ratings(tmp_path)
        query = tmp_path / "query.csv"
        query.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", ratings, query, "--out", tmp_path / "p.csv"]) == 1
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not (tmp_path / "p.csv").exists()


class TestIdsThatNeedQuoting:
    CLIMBERS = ["a,b", 'say "hi"', "line\nbreak", "  spaced  "]
    ROUTES = ["r,1", '"r2"', "r\r\n3", " r4 "]
    DAYS = ["2020-01-06", "2020-01-13"]

    def write_csv(self, path, header, rows):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    def read_csv(self, path):
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    def test_fit_and_predict_keep_the_ids(self, tmp_path):
        raw = tmp_path / "raw.csv"
        self.write_csv(raw, HEADER.split(","), [
            (climber, route, ("redpoint", "attempt")[(i + j + k) % 3 == 0], day, 20 + j, "ewbank")
            for i, climber in enumerate(self.CLIMBERS) for j, route in enumerate(self.ROUTES)
            for k, day in enumerate(self.DAYS)
        ])
        dataset_dir, ratings = tmp_path / "dataset", tmp_path / "ratings"
        assert run(["preprocess", raw, "--out", dataset_dir]) == 0
        assert run(["fit", dataset_dir, "--out", ratings]) == 0
        dataset = read_clean_dataset(dataset_dir)
        state, _ = fit(dataset)
        assert sorted(dataset.climber_ids.tolist()) == sorted(self.CLIMBERS)
        assert sorted(dataset.route_ids.tolist()) == sorted(self.ROUTES)
        assert ([r["route_id"] for r in self.read_csv(ratings / "route_ratings.csv")]
                == dataset.route_ids.tolist())
        periods = self.read_csv(ratings / "climber_ratings.csv")
        assert ([r["climber_id"] for r in periods]
                == dataset.climber_ids[state.period_owner].tolist())

        weeks = quantize_week(self.DAYS).tolist()
        queries = [(c, r, w) for c in self.CLIMBERS for r in self.ROUTES for w in weeks]
        query = tmp_path / "query.csv"
        self.write_csv(query, ["climber_id", "route_id", "week"], queries)
        assert run(["predict", ratings, query, "--out", tmp_path / "p.csv"]) == 0
        rows = self.read_csv(tmp_path / "p.csv")
        assert [(r["climber_id"], r["route_id"], int(r["week"])) for r in rows] == queries
        assert {r["fallback"] for r in rows} == {"none"}
        climber_index = {c: i for i, c in enumerate(dataset.climber_ids.tolist())}
        route_index = {r: i for i, r in enumerate(dataset.route_ids.tolist())}
        expected = predict_probabilities(state, [climber_index[c] for c, _, _ in queries],
                                         [route_index[r] for _, r, _ in queries],
                                         [w for _, _, w in queries])
        assert [float(r["probability"]) for r in rows] == pytest.approx(expected, abs=1e-8)


class TestEvaluateAndCrossval:
    def synthetic_dataset(self, tmp_path):
        synth_dir = tmp_path / "synth"
        code = run([
            "synth", "--out", synth_dir, "--climbers", "20", "--routes", "30",
            "--periods", "3", "--ascents-per-period", "8", "--seed", "0",
        ])
        assert code == 0
        dataset_dir = tmp_path / "dataset"
        assert run(["preprocess", synth_dir / "raw_ascents.csv",
                    "--out", dataset_dir]) == 0
        return dataset_dir

    def test_evaluate_emits_reports(self, tmp_path):
        dataset_dir = self.synthetic_dataset(tmp_path)
        out = tmp_path / "eval"
        assert run(["evaluate", dataset_dir, "--out", out]) == 0
        names = set(read_tree(out))
        assert names == {"report.txt", "report.json", "pr_curve.csv",
                         "ratings_vs_grades.csv"}
        payload = json.loads((out / "report.json").read_text())
        assert payload["accuracy"] > payload["baseline_accuracy"]
        assert payload["log_loss"] < payload["baseline_log_loss"]
        assert 0.0 <= payload["ratings_grades_r_squared"] <= 1.0
        report_text = (out / "report.txt").read_text()
        for key in payload:
            assert key in report_text

    def test_pr_curve_well_formed(self, tmp_path):
        dataset_dir = self.synthetic_dataset(tmp_path)
        out = tmp_path / "eval"
        assert run(["evaluate", dataset_dir, "--out", out]) == 0
        with open(out / "pr_curve.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        thresholds = [float(r["threshold"]) for r in rows]
        assert thresholds == sorted(thresholds, reverse=True)
        assert sum(r["classifier_point"] == "1" for r in rows) == 1

    def test_ratings_vs_grades_well_formed(self, tmp_path):
        dataset_dir = self.synthetic_dataset(tmp_path)
        out = tmp_path / "eval"
        assert run(["evaluate", dataset_dir, "--out", out]) == 0
        with open(out / "ratings_vs_grades.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for rec in rows:
            grade = int(rec["grade"])
            assert float(rec["prior_mean"]) == pytest.approx(
                0.4 * (grade - 22), abs=1e-9
            )

    def test_provenance_file_is_not_read(self, tmp_path, capsys):
        # provenance.txt is preprocess's report for people: malformed or missing, it
        # changes no output of the commands that read the dataset
        dataset_dir = self.synthetic_dataset(tmp_path)
        provenance = dataset_dir / "provenance.txt"
        intact = provenance.read_text(encoding="utf-8").splitlines()

        def outputs(name):
            result = {}
            for command in (["fit"], ["evaluate"], ["crossval", "-k", "3", "--repeats", "1"]):
                out = tmp_path / name / command[0]
                capsys.readouterr()
                assert run([*command, dataset_dir, "--out", out]) == 0
                result[command[0]] = read_tree(out), capsys.readouterr()
            return result

        expected = outputs("intact")
        for name, lines in [("not-an-integer", ["rows_read=many", *intact[1:]]),
                            ("no-equals-sign", [intact[0], "no equals sign", *intact[2:]])]:
            provenance.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert outputs(name) == expected
        provenance.unlink()
        assert outputs("missing") == expected

    def test_crossval_emits_reports_and_is_deterministic(self, tmp_path):
        dataset_dir = self.synthetic_dataset(tmp_path)
        out_a = tmp_path / "cv-a"
        out_b = tmp_path / "cv-b"
        args = ["crossval", dataset_dir, "-k", "3", "--repeats", "1", "--seed", "7"]
        assert run([*args, "--out", out_a]) == 0
        assert run([*args, "--out", out_b, "--threads", "4"]) == 0
        assert read_tree(out_a) == read_tree(out_b)
        payload = json.loads((out_a / "report.json").read_text())
        # Pooled held-out predictions: one per ascent per repeat.
        counts = [payload[key] for key in ("tp", "fp", "fn", "tn")]
        assert sum(counts) == 480

    def test_crossval_warns_about_unconverged_folds(self, tmp_path, capsys):
        dataset_dir = self.synthetic_dataset(tmp_path)
        capsys.readouterr()
        out = tmp_path / "cv"
        args = ["crossval", dataset_dir, "-k", "3", "--repeats", "2", "--seed", "7"]
        assert run([*args, "--out", out, "--max-iterations", "8"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: 6 of 6 fold fits not converged\n"
        assert captured.out.startswith("held-out accuracy=")

    def test_crossval_writes_only_held_out_reports(self, tmp_path):
        dataset_dir = self.synthetic_dataset(tmp_path)
        out = tmp_path / "cv"
        assert run(["crossval", dataset_dir, "-k", "3", "--repeats", "1", "--out", out]) == 0
        assert set(read_tree(out)) == {"report.txt", "report.json", "pr_curve.csv"}
        payload = json.loads((out / "report.json").read_text())
        assert set(payload) == {f.name for f in fields(EvaluationReport)}

    def test_crossval_fits_once_per_fold(self, tmp_path, monkeypatch):
        dataset_dir = self.synthetic_dataset(tmp_path)
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return fit(*args, **kwargs)

        monkeypatch.setattr(evaluation, "fit", counted)
        monkeypatch.setattr(cli, "fit", counted)
        assert run(["crossval", dataset_dir, "-k", "3", "--repeats", "2",
                    "--out", tmp_path / "cv"]) == 0
        assert len(calls) == 6

    def test_one_route_dataset_evaluates_and_crossvalidates(self, tmp_path):
        # a single fitted route has no spread of grades: evaluate's R-squared is 0
        log = HEADER + """
alice,r1,redpoint,2020-01-06,21,ewbank
alice,r1,attempt,2020-01-06,21,ewbank
bob,r1,redpoint,2020-01-13,21,ewbank
bob,r1,attempt,2020-01-13,21,ewbank
"""
        dataset_dir = preprocess_fixture(tmp_path, log)
        assert run(["evaluate", dataset_dir, "--out", tmp_path / "eval"]) == 0
        assert run(["crossval", dataset_dir, "-k", "2", "--repeats", "1",
                    "--out", tmp_path / "cv"]) == 0
        payload = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert payload["ratings_grades_r_squared"] == 0.0
        assert "ratings_grades_r_squared" not in json.loads(
            (tmp_path / "cv" / "report.json").read_text())

    def test_crossval_oversized_k_exits_one(self, tmp_path, capsys):
        dataset_dir = preprocess_fixture(tmp_path)
        code = run(["crossval", dataset_dir, "-k", "10", "--repeats", "1",
                    "--out", tmp_path / "cv"])
        assert code == 1
        assert "stratum" in capsys.readouterr().err


class TestSynth:
    def test_deterministic_outputs(self, tmp_path):
        args = ["synth", "--climbers", "8", "--routes", "10", "--periods", "2",
                "--ascents-per-period", "5", "--seed", "3"]
        assert run([*args, "--out", tmp_path / "a"]) == 0
        assert run([*args, "--out", tmp_path / "b"]) == 0
        tree = read_tree(tmp_path / "a")
        assert set(tree) == {"raw_ascents.csv", "truth.csv"}
        assert tree == read_tree(tmp_path / "b")

    def test_different_seed_changes_output(self, tmp_path):
        base = ["synth", "--climbers", "8", "--routes", "10", "--periods", "2",
                "--ascents-per-period", "5"]
        assert run([*base, "--seed", "0", "--out", tmp_path / "a"]) == 0
        assert run([*base, "--seed", "1", "--out", tmp_path / "b"]) == 0
        assert read_tree(tmp_path / "a") != read_tree(tmp_path / "b")

    def test_zero_routes_exits_one(self, tmp_path, capsys):
        assert run(["synth", "--routes", "0", "--out", tmp_path / "s"]) == 1
        assert "error" in capsys.readouterr().err

    def test_empty_grade_range_exits_one(self, tmp_path):
        assert run(["synth", "--grade-min", "25", "--grade-max", "20",
                    "--out", tmp_path / "s"]) == 1

    def test_route_prior_mean_beyond_float_range_exits_one(self, tmp_path, capsys):
        # grades 18-28 against g0=22 give prior means of up to 6e308
        assert run(["synth", "--climbers", "5", "--routes", "5", "--periods", "2",
                    "--b", "1e308", "--out", tmp_path / "s"]) == 1
        assert capsys.readouterr().err.startswith("error: hyperparameter b=1e+308 with g0=22 ")
        assert not (tmp_path / "s").exists()

    def test_default_sizes_survive_preprocessing(self, tmp_path, capsys):
        synth_dir = tmp_path / "synth"
        assert run(["synth", "--out", synth_dir]) == 0
        dataset_dir = tmp_path / "dataset"
        assert run(["preprocess", synth_dir / "raw_ascents.csv",
                    "--out", dataset_dir]) == 0
        provenance = dict(
            line.split("=")
            for line in (dataset_dir / "provenance.txt").read_text().splitlines()
            if "=" in line
        )
        kept = int(provenance["rows_kept"])
        read = int(provenance["rows_read"])
        assert read == 100 * 10 * 20
        assert kept > 0.9 * read

    def test_default_seed_one_fits_to_convergence(self, tmp_path):
        # a Newton step clamped to +/-10 instead of halved cycles on this log
        # for all 1000 iterations and ends with a largest gradient of 81
        assert run(["synth", "--seed", "1", "--out", tmp_path / "synth"]) == 0
        assert run(["preprocess", tmp_path / "synth" / "raw_ascents.csv",
                    "--out", tmp_path / "dataset"]) == 0
        assert run(["fit", tmp_path / "dataset", "--out", tmp_path / "ratings"]) == 0
        report = (tmp_path / "ratings" / "fit_report.txt").read_text().splitlines()
        assert "converged=true" in report
        state, _ = fit(read_clean_dataset(tmp_path / "dataset"))
        outcome_p = outcome_probabilities(state)
        climber_grad = climber_derivatives(state, outcome_p)[0]
        route_grad = route_derivatives(state, outcome_p)[0]
        assert max(np.abs(climber_grad).max(), np.abs(route_grad).max()) <= 0.25
