"""cragrank: time-varying climber ratings and route difficulty from ascent logs."""

from .errors import CragrankError, EmptyDatasetError, ParseError
from .evaluation import (
    EvaluationReport,
    baseline_log_loss,
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
    CleanDataset,
    RawAscentLog,
    TickClass,
    classify_tick,
    load_tick_mapping,
    parse_ascent_log,
    preprocess,
    quantize_week,
    read_clean_dataset,
    write_clean_dataset,
)
from .model import (
    Hyperparameters,
    bt_probability,
    route_prior_mean,
    win_probabilities,
)
from .solver import (
    FitReport,
    ModelState,
    climber_derivatives,
    climber_pass,
    fit,
    initialize_state,
    outcome_probabilities,
    route_derivatives,
    route_pass,
    solve_tridiagonal,
    tridiagonal_plan,
)
from .synthetic import (
    RecoveryReport,
    SyntheticWorld,
    generate_world,
    recovery_report,
    simulate_ascents,
    simulate_trials,
)

__version__ = "0.1.0"
