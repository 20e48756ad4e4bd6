"""Learning regression and classification models from single-bit label
queries under a hard annotation budget."""

from .datasets import (
    LabeledDataset,
    gen_anchor_classification,
    gen_harmonic_regression,
    gen_sin_regression,
    parse_csv_regression,
    parse_libsvm,
    split,
    standardize,
)
from .estimators import WeakSGDClassifier, WeakSGDRegressor
from .evaluation import RiskCurve, aggregate_trials, emit_csv, emit_svg, loglog_slope
from .experiments import train
from .game import MatrixGame, build_game, solve_game
from .geometry import (
    MonteCarloEstimate,
    c1_constant,
    c2_constant,
    estimate_constant_mc,
    geometric_median,
    sample_sphere,
)
from .kernel import KernelModel, KernelSpec
from .learner import (
    StepSchedule,
    TrainReport,
    run_full_sgd,
    run_least_squares_sgd,
    run_median_sgd,
    run_passive_median,
)
from .oracle import BudgetExhausted, QueryOracle, StreamingViolation, TrivialSetError
from .surrogate import (
    infimum_loss_sgd,
    surrogate_target_check,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted",
    "KernelModel",
    "KernelSpec",
    "LabeledDataset",
    "MatrixGame",
    "MonteCarloEstimate",
    "QueryOracle",
    "RiskCurve",
    "StepSchedule",
    "StreamingViolation",
    "TrainReport",
    "TrivialSetError",
    "WeakSGDClassifier",
    "WeakSGDRegressor",
    "aggregate_trials",
    "build_game",
    "c1_constant",
    "c2_constant",
    "emit_csv",
    "emit_svg",
    "estimate_constant_mc",
    "gen_anchor_classification",
    "gen_harmonic_regression",
    "gen_sin_regression",
    "geometric_median",
    "infimum_loss_sgd",
    "loglog_slope",
    "parse_csv_regression",
    "parse_libsvm",
    "run_full_sgd",
    "run_least_squares_sgd",
    "run_median_sgd",
    "run_passive_median",
    "sample_sphere",
    "solve_game",
    "split",
    "standardize",
    "surrogate_target_check",
    "train",
]
