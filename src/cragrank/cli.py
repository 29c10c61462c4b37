"""Command-line interface.

Subcommands: preprocess, fit, predict, evaluate, crossval, synth.  All float
output is serialized with 9 significant digits, except ``report.json``, which
``json.dump`` writes at full precision; every command is deterministic given
its inputs and seeds.  Exit codes: 0 success, 1 bad
input, 2 empty result.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import EmptyDatasetError, ParseError
from .evaluation import (
    compute_metrics,
    cross_validate_predictions,
    linear_fit_r_squared,
    make_fold_plan,
    precision_recall_curve,
    predict_probabilities,
    rating_at_nearest_week,
)
from .ingest import (
    DEFAULT_TICK_MAPPING,
    CodedColumn,
    CsvTable,
    format_float as _fmt,
    load_tick_mapping,
    open_input,
    parse_ascent_log,
    preprocess,
    read_clean_dataset,
    write_clean_dataset,
    write_csv,
    write_keyvalues,
    write_raw_ascent_log,
)
from .model import Hyperparameters, bt_probability
from .solver import MAX_ITERATIONS, FitReport, ModelState, fit
from .synthetic import generate_world, simulate_trials, write_truth_csv

_HYPER_KEYS = tuple(f.name for f in fields(Hyperparameters))


class Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 (reserving 2 for empty results)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _input_file(value: str) -> Path:
    """An input file argument's ``type``: a directory, or the empty value, is a usage error."""
    if Path(value).is_dir():
        raise argparse.ArgumentTypeError(f"{value!r} names a directory, not a file")
    return Path(value)


def _input_dir(value: str) -> Path:
    """An input directory argument's ``type``: anything but a directory, the empty
    value included, is a usage error."""
    if not value or not Path(value).is_dir():
        raise argparse.ArgumentTypeError(f"{value!r} names no directory")
    return Path(value)


def add_hyper_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("hyperparameters")
    group.add_argument("--hyper-config", metavar="FILE", type=_input_file,
                       help="JSON file of hyperparameter overrides (flags win)")
    group.add_argument("--sigma-c-sq", type=float, help="initial climber prior variance")
    group.add_argument("--sigma-r-sq", type=float, help="route prior variance")
    group.add_argument("--w-sq", type=float, help="rating drift variance per week")
    group.add_argument("--g0", type=int, help="reference grade with prior mean 0")
    group.add_argument("--b", type=float, help="prior-mean slope per grade")


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-iterations", type=int, default=MAX_ITERATIONS,
                        help="outer iteration budget (default %(default)s)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")


def add_world_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of a synthetic world and its ascent draw, read by :func:`simulate_log`."""
    parser.add_argument("--climbers", type=int, default=100)
    parser.add_argument("--routes", type=int, default=200)
    parser.add_argument("--periods", type=int, default=10)
    parser.add_argument("--ascents-per-period", type=int, default=20,
                        help="ascents per climber per period (default 20)")
    parser.add_argument("--grade-min", type=int, default=18)
    parser.add_argument("--grade-max", type=int, default=28)
    parser.add_argument("--seed", type=int, default=0,
                        help="world seed; the ascent draw uses seed+1")


def resolve_hyper(args: argparse.Namespace) -> Hyperparameters:
    """The config file's values overridden by the flags; Hyperparameters checks each value."""
    values: dict = {}
    if args.hyper_config is not None:
        with open_input(args.hyper_config) as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as exc:
                lineno = len(re.split(r"\r\n|\r|\n", exc.doc[:exc.pos]))
                raise ParseError(f"{args.hyper_config.name} line {lineno}: {exc.msg}") from None
        if not isinstance(values, dict):
            raise ValueError("hyperparameter config must be a JSON object")
        unknown = set(values) - set(_HYPER_KEYS)
        if unknown:
            raise ValueError(f"unknown hyperparameter keys in config: {sorted(unknown)}")
    for key in _HYPER_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return Hyperparameters(**values)


# ---------------------------------------------------------------------------
# Ratings file round-trip


def _write_ratings(dataset, state: ModelState, report: FitReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "route_ratings.csv", ("route_idx", "route_id", "grade", "rating"),
              (np.arange(len(dataset.route_ids)), dataset.route_ids, dataset.route_grades,
               state.route_ratings))
    climber = state.period_owner
    write_csv(out_dir / "climber_ratings.csv", ("climber_idx", "climber_id", "week", "rating"),
              (climber, dataset.climber_ids[climber], state.period_weeks, state.climber_ratings))
    write_keyvalues(out_dir / "fit_report.txt", asdict(report))


def _index_of(ids: CodedColumn, table: np.ndarray) -> np.ndarray:
    """The index in ``table`` of each row's id, or ``len(table)``, looked up
    once per distinct id; ``table`` holds each id once."""
    index = dict(zip(table.tolist(), range(len(table))))
    return np.fromiter(map(index.get, ids.distinct, repeat(len(table))), dtype=np.int64,
                       count=ids.distinct.shape[0])[ids.code]


def _read_ratings(ratings_dir: Path):
    """Route ids and ratings, climber ids, and every climber's periods as flat arrays.

    The periods are the owner (an index into the climber ids, which are in
    the order they first appear), week and rating of each row of
    ``climber_ratings.csv``, sorted by owner and then week.  A rating that
    is not finite is an error, as is a row that repeats the route of an
    earlier row, or the climber and week of an earlier row, so each route
    has one rating and weeks strictly increase within each owner.
    """
    routes = CsvTable(ratings_dir / "route_ratings.csv", ("route_id", "rating"))
    route_ratings = routes.floats("rating")
    routes.check_distinct("route_id")
    routes.raise_first()
    periods = CsvTable(ratings_dir / "climber_ratings.csv", ("climber_id", "week", "rating"))
    weeks, ratings = periods.integers("week"), periods.floats("rating")
    climbers = periods.text["climber_id"]
    order = np.lexsort((weeks, climbers.code))
    owner, weeks = climbers.code[order], weeks[order]
    again = np.zeros(periods.rows, dtype=bool)
    again[order[1:]] = (owner[1:] == owner[:-1]) & (weeks[1:] == weeks[:-1])
    periods.check(again, "climber_id and week repeat an earlier row's")
    periods.raise_first()
    return (routes.text["route_id"].strings(), route_ratings, climbers.distinct, owner, weeks,
            ratings[order])


def _write_evaluation(payload: dict, predictions, actuals, out_dir: Path) -> None:
    """The metric reports and the PR curve."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_keyvalues(out_dir / "report.txt", payload)
    (out_dir / "report.json").write_bytes(
        json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n")
    curve = precision_recall_curve(predictions, actuals)
    write_csv(out_dir / "pr_curve.csv", curve.dtype.names,
              [curve[name] for name in curve.dtype.names])


# ---------------------------------------------------------------------------
# Subcommands


def _fit(args: argparse.Namespace):
    """The dataset of ``args`` and its :func:`fit`, warning on stderr if it did not converge."""
    dataset = read_clean_dataset(args.dataset_dir)
    state, report = fit(dataset, resolve_hyper(args), args.max_iterations)
    if not report.converged:
        print(f"warning: not converged after {report.iterations} iterations", file=sys.stderr)
    return dataset, state, report


def _cmd_preprocess(args: argparse.Namespace) -> int:
    mapping = (DEFAULT_TICK_MAPPING if args.tick_mapping is None
               else load_tick_mapping(args.tick_mapping))
    dataset = preprocess(parse_ascent_log(args.raw_csv), mapping)
    write_clean_dataset(dataset, args.out)
    kept = dataset.provenance["rows_kept"]
    read = dataset.provenance["rows_read"]
    print(f"kept {kept} of {read} ascent rows "
          f"({len(dataset.climber_ids)} climbers, {len(dataset.route_ids)} routes)")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    dataset, state, report = _fit(args)
    _write_ratings(dataset, state, report, Path(args.out))
    print(f"fit finished: iterations={report.iterations} converged={report.converged} "
          f"log_likelihood={_fmt(report.final_bt_log_likelihood)}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    route_ids, routes, climber_ids, period_owner, weeks, ratings = _read_ratings(
        args.ratings_dir)
    queries = CsvTable(args.query_csv, ("climber_id", "route_id", "week"))
    week = queries.integers("week")
    queries.raise_first()

    # An unknown climber's index, len(climber_ids), owns no period, so it gets
    # the prior mean of 0, and an unknown route the rating 0 appended to the
    # route ratings.
    owner = _index_of(queries.text["climber_id"], climber_ids)
    climber_rating = rating_at_nearest_week(period_owner, weeks, ratings, owner, week)
    route = _index_of(queries.text["route_id"], route_ids)
    route_rating = np.append(routes, 0.0)[route]
    p = bt_probability(climber_rating, route_rating)
    labels = np.array(["none", "climber", "route", "climber+route"], dtype=object)
    fallback = labels[(owner == len(climber_ids)) + 2 * (route == len(route_ids))]
    write_csv(args.out, ("climber_id", "route_id", "week", "probability", "fallback"),
              (queries.text["climber_id"].strings(), queries.text["route_id"].strings(), week, p,
               fallback))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset, state, _ = _fit(args)
    predictions = predict_probabilities(state, dataset.climber, dataset.route, dataset.week)
    report = compute_metrics(predictions, dataset.success)
    payload = asdict(report)
    payload["ratings_grades_r_squared"] = linear_fit_r_squared(dataset.route_grades,
                                                               state.route_ratings)
    _write_evaluation(payload, predictions, dataset.success, Path(args.out))
    write_csv(Path(args.out) / "ratings_vs_grades.csv", ("grade", "prior_mean", "rating"),
              (dataset.route_grades, state.route_prior_means, state.route_ratings))
    print(f"accuracy={_fmt(report.accuracy)} log_loss={_fmt(report.log_loss)} "
          f"baseline_log_loss={_fmt(report.baseline_log_loss)}")
    return 0


def _cmd_crossval(args: argparse.Namespace) -> int:
    dataset = read_clean_dataset(args.dataset_dir)
    plan = make_fold_plan(dataset, args.folds, args.repeats, args.seed)
    pooled_p, pooled_y, fold_reports = cross_validate_predictions(
        dataset, resolve_hyper(args), plan, max_iterations=args.max_iterations
    )
    unconverged = sum(not r.converged for r in fold_reports)
    if unconverged:
        print(f"warning: {unconverged} of {len(fold_reports)} fold fits not converged",
              file=sys.stderr)
    report = compute_metrics(pooled_p, pooled_y)
    _write_evaluation(asdict(report), pooled_p, pooled_y, Path(args.out))
    print(f"held-out accuracy={_fmt(report.accuracy)} log_loss={_fmt(report.log_loss)} "
          f"baseline_accuracy={_fmt(report.baseline_accuracy)}")
    return 0


def simulate_log(args: argparse.Namespace, hyper: Hyperparameters):
    """The world that the flags of :func:`add_world_flags` describe, and its raw ascent log.

    The world is drawn with ``--seed`` and the ascents with ``--seed`` + 1.
    """
    world = generate_world(args.climbers, args.routes, args.periods,
                           (args.grade_min, args.grade_max), hyper=hyper, seed=args.seed)
    return world, simulate_trials(world, args.ascents_per_period, seed=args.seed + 1)


def _cmd_synth(args: argparse.Namespace) -> int:
    world, log = simulate_log(args, resolve_hyper(args))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_raw_ascent_log(log, out_dir / "raw_ascents.csv")
    write_truth_csv(world, out_dir / "truth.csv")
    print(f"wrote {len(log)} raw ascents for {args.climbers} climbers "
          f"on {args.routes} routes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(prog="cragrank",
                    description="Climber and route ratings from ascent logs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean a raw ascent log",
                       description="Clean a raw ascent-log CSV into a dataset directory.")
    p.add_argument("raw_csv", type=_input_file, help="raw ascent log (climber_id,route_id,"
                                                     "tick_type,date,grade_label,grade_system)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--tick-mapping", type=_input_file, help="custom tick_string,class mapping file")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("fit", help="fit ratings on a cleaned dataset")
    p.add_argument("dataset_dir", type=_input_dir, help="directory from `cragrank preprocess`")
    p.add_argument("--out", required=True, help="output directory for rating files")
    _add_fit_flags(p)
    add_hyper_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict success probabilities")
    p.add_argument("ratings_dir", type=_input_dir, help="directory from `cragrank fit`")
    p.add_argument("query_csv", type=_input_file, help="queries (climber_id,route_id,week)")
    p.add_argument("--out", required=True, help="output predictions CSV")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="fit and score on the same dataset")
    p.add_argument("dataset_dir", type=_input_dir)
    p.add_argument("--out", required=True, help="output directory for reports")
    _add_fit_flags(p)
    add_hyper_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("crossval", help="repeated stratified k-fold evaluation")
    p.add_argument("dataset_dir", type=_input_dir)
    p.add_argument("--out", required=True, help="output directory for reports")
    p.add_argument("-k", "--folds", type=int, default=10, help="folds (default 10)")
    p.add_argument("--repeats", type=int, default=3, help="repeats (default 3)")
    p.add_argument("--seed", type=int, default=0, help="fold shuffling seed")
    _add_fit_flags(p)
    add_hyper_flags(p)
    p.set_defaults(func=_cmd_crossval)

    p = sub.add_parser("synth", help="generate a synthetic ascent log")
    p.add_argument("--out", required=True, help="output directory")
    add_world_flags(p)
    add_hyper_flags(p)
    p.set_defaults(func=_cmd_synth)

    return parser


def report_errors(run) -> int:
    """The exit code ``run()`` returns, or that of the error it raises.

    The error is printed on stderr as ``error: ...``: an empty dataset, with
    its provenance counts, exits 2, and bad input or a file error exits 1.
    """
    try:
        return run()
    except EmptyDatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for key, value in exc.provenance.items():
            print(f"  {key}={value}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return report_errors(lambda: args.func(args))

