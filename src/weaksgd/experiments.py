"""Experiment configurations and the seeded multi-trial harness.

A configuration names a task, a query strategy, a budget, and the model
hyperparameters; :func:`run_curve` executes ``trials`` seeded runs (seed,
seed+1, ...), evaluates the averaged model on the task's risk at every
checkpoint, and aggregates into a :class:`~weaksgd.evaluation.RiskCurve`.
Trials are independent, so they may run in worker processes; aggregation
orders by trial index, which keeps outputs byte-identical for any job count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import learner, surrogate
from .datasets import (
    LabeledDataset,
    ParseError,
    _train_size,
    anchor_conditional,
    apply_standardize,
    gen_anchor_classification,
    gen_sin_regression,
    parse_csv_regression,
    parse_libsvm,
    sin_target,
    split,
    standardize,
)
from .evaluation import (
    RiskCurve,
    aggregate_trials,
    anchor_law,
    anchor_points,
    empirical_risk,
    excess_risk_noiseless,
    excess_zero_one_anchor,
    midpoint_grid,
)
from .geometry import _check_scale
from .kernel import KernelModel, KernelSpec, _whole, nystrom_representers
from .learner import StepSchedule, default_checkpoints
from .oracle import QueryOracle

FILE_TASKS = ("libsvm", "csv-regression")  # the tasks that read an input file
TASKS = ("sin-regression", "anchor-classification") + FILE_TASKS

# the run vocabulary: which query strategies make sense for which task kind
REGRESSION_STRATEGIES = ("active-median", "active-least-squares", "passive", "full-sgd")
CLASSIFICATION_STRATEGIES = ("active-median", "coordinate-passive", "infimum-loss")
TASK_STRATEGIES = {
    "sin-regression": REGRESSION_STRATEGIES,
    "csv-regression": REGRESSION_STRATEGIES,
    "anchor-classification": CLASSIFICATION_STRATEGIES,
    "libsvm": CLASSIFICATION_STRATEGIES,
}
# short names for run names, accepted wherever a strategy is named
ALIASES = {"median": "active-median", "active": "active-median",
           "least-squares": "active-least-squares", "full": "full-sgd"}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description; every field lands in the manifest."""

    task: str = "sin-regression"
    strategy: str = "active-median"
    budget: int = 1024
    trials: int = 10
    seed: int = 0
    sigma: float | None = None
    gamma0: float = 1.0
    schedule: str = "decaying"
    ridge: float | None = None
    bound: float = 1.0
    classes: int = 10
    epsilon: float = 0.05
    rank: int = 100
    train_fraction: float = 2.0 / 3.0
    grid_size: int = 512
    input: str = ""
    target: str = "target"
    jobs: int = 1

    def resolved(self) -> "ExperimentConfig":
        """Fill task-dependent defaults (bandwidth, ridge), validate, and
        replace an aliased strategy by its run name."""
        cfg = self
        if cfg.sigma is None:
            if cfg.task == "sin-regression":
                cfg = replace(cfg, sigma=0.2)
            elif cfg.task == "anchor-classification":
                cfg = replace(cfg, sigma=0.05)
            # file-backed tasks default to d/5 once the file is read
        if cfg.ridge is None:
            ridge = 1e-6 if cfg.task in FILE_TASKS else 0.0
            cfg = replace(cfg, ridge=ridge)
        validate_config(cfg)
        return replace(cfg, strategy=ALIASES.get(cfg.strategy, cfg.strategy))


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}
_INT_FIELDS = {"budget", "trials", "seed", "classes", "rank", "grid_size", "jobs"}
_FLOAT_FIELDS = {"sigma", "gamma0", "ridge", "bound", "epsilon", "train_fraction"}


def _owned(name, value, what, check, *args):
    """``check(*args)``, with its ``ValueError`` or ``TypeError`` as a ConfigError
    naming ``name``."""
    try:
        return check(*args)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{name} {value!r} is not {what}: {exc}") from None


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.task not in TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}; expected one of {TASKS}")
    if ALIASES.get(cfg.strategy, cfg.strategy) not in TASK_STRATEGIES[cfg.task]:
        raise ConfigError(
            f"strategy {cfg.strategy!r} is not valid for task {cfg.task!r}; "
            f"allowed: {TASK_STRATEGIES[cfg.task]}"
        )
    for name in sorted(_FLOAT_FIELDS):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    _owned("seed", cfg.seed, "a generator seed", np.random.default_rng, cfg.seed)
    for name in ("budget", "trials", "rank", "grid_size", "jobs"):
        value = getattr(cfg, name)
        _owned(name, value, "a positive integer", _whole, value, name, 1)
    try:  # an unresolved config has no ridge yet
        StepSchedule(cfg.schedule, cfg.gamma0, 0.0 if cfg.ridge is None else cfg.ridge)
    except ValueError as exc:  # its message begins with the setting: schedule, gamma0 or ridge
        raise ConfigError(str(exc)) from None
    _owned("bound", cfg.bound, "a range bound", _check_scale, cfg.bound)
    if cfg.sigma is not None:
        _owned("sigma", cfg.sigma, "a kernel bandwidth", KernelSpec, cfg.sigma)
    if not 0.0 < cfg.train_fraction < 1.0:
        raise ConfigError("train_fraction must lie strictly between 0 and 1")
    if cfg.task == "anchor-classification":
        # anchor_law's two steps, so that each refusal names its own setting
        points = _owned("epsilon", cfg.epsilon, "a band half-width", anchor_points,
                        cfg.epsilon, cfg.grid_size)
        if not points.size:
            raise ConfigError(f"grid_size {cfg.grid_size} with epsilon {cfg.epsilon!r} leaves "
                              "no evaluation point outside the excluded bands")
        _owned("classes", cfg.classes, "an anchored class count", anchor_conditional,
               points, cfg.classes)
    if cfg.task in FILE_TASKS and not cfg.input:
        raise ConfigError(f"task {cfg.task!r} needs an input file")


def config_from_mapping(mapping) -> ExperimentConfig:
    """Build a config from string key/value pairs (file or CLI supplied)."""
    kwargs = {}
    for key, raw in mapping.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown configuration key {key!r}")
        if key in _INT_FIELDS:
            try:
                kwargs[key] = int(raw)
            except ValueError:
                raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
        elif key in _FLOAT_FIELDS:
            try:
                kwargs[key] = float(raw)
            except ValueError:
                raise ConfigError(f"{key} must be a number, got {raw!r}") from None
        else:
            kwargs[key] = str(raw)
    return ExperimentConfig(**kwargs)


def config_to_mapping(cfg: ExperimentConfig) -> dict:
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        out[f.name] = repr(value) if isinstance(value, float) else str(value)
    return out


def train(strategy, X, labels, model, schedule, rng, budget, n_classes=None, bound=1.0,
          grid=None, evaluate=None):
    """Train ``model`` with one strategy for ``budget`` steps over the rows of ``X``.

    ``labels`` are real targets, or classes 1..n_classes when ``n_classes`` is
    given; ``strategy`` is one of that task kind's strategies or an alias of
    one. A budget up to n streams the first ``budget`` rows once; a larger one
    walks the rows cyclically under the resampling protocol. ``full-sgd`` reads
    the labels directly; every other strategy asks a budgeted oracle one bit
    per step. Before any bit, the drivers refuse labels whose row count is not
    ``X``'s and real labels that are not finite; once training ends, ``train``
    refuses an averaged model that is not finite (the iterates diverged).
    """
    allowed = REGRESSION_STRATEGIES if n_classes is None else CLASSIFICATION_STRATEGIES
    given, strategy = strategy, ALIASES.get(strategy, strategy)
    if strategy not in allowed:
        raise ConfigError(f"unknown strategy {given!r}; expected one of {allowed}")
    n = len(labels)
    budget = _whole(budget, "budget")
    indices = learner.Cycle(n, budget)  # built a block of steps at a time
    mode = "streaming" if budget <= n else "resampling"
    # each driver is looked up on its module at call time, so a wrapper installed
    # there (perfbench/layers.py) sees every call; a table built at import would not
    if strategy == "full-sgd":
        report = learner.run_full_sgd(X, labels, schedule, model, grid, evaluate, indices)
    elif n_classes is not None:
        oracle = QueryOracle.for_classification(labels, n_classes, budget, mode)
        if strategy == "infimum-loss":
            report = surrogate.infimum_loss_sgd(X, oracle, schedule, model, rng, grid,
                                                evaluate, indices)
        else:
            report = learner.run_median_sgd(
                X, oracle, schedule, model, rng, grid, evaluate, indices,
                direction="coordinate" if strategy == "coordinate-passive" else "sphere")
    else:
        oracle = QueryOracle.for_regression(labels, budget, mode)
        if strategy == "active-median":
            report = learner.run_median_sgd(X, oracle, schedule, model, rng, grid, evaluate,
                                            indices)
        elif strategy == "active-least-squares":
            report = learner.run_least_squares_sgd(X, oracle, schedule, model, rng, bound,
                                                   grid, evaluate, indices)
        else:
            report = learner.run_passive_median(X, oracle, schedule, model, rng, grid,
                                                evaluate, indices)
    if not np.isfinite(report.averaged_model.coefficients).all():
        raise ValueError("the averaged model is not finite; the iterates diverged "
                         "(try a smaller gamma0)")
    return report


def _load_input(cfg: ExperimentConfig) -> LabeledDataset:
    """The input file, read once for every trial; a bad ``target`` or
    ``train_fraction`` is a configuration error, a malformed file is not."""
    with open(cfg.input, "r", encoding="utf-8") as fh:
        if cfg.task == "libsvm":
            data = parse_libsvm(fh)
        else:
            try:
                data = parse_csv_regression(
                    fh, [c.strip() for c in cfg.target.split(",") if c.strip()])
            except (ParseError, UnicodeError):
                raise
            except ValueError as exc:  # the parser's other errors: a bad target list
                raise ConfigError(str(exc)) from None
    n_train = _train_size(data.n, cfg.train_fraction)
    if n_train < 2:
        raise ConfigError(f"train_fraction {cfg.train_fraction!r} leaves {n_train} of "
                          f"{data.n} rows for training; standardization needs two")
    return data


def _one_trial(args):
    """One seeded trial: its training rows (drawn, or split from the parsed
    file ``full``), then its representers, then ``budget`` steps of training
    with the task's risk evaluated at every checkpoint."""
    cfg, trial_index, full = args
    seed = cfg.seed + trial_index
    rng = np.random.default_rng(seed)
    if cfg.task == "sin-regression":
        data = gen_sin_regression(cfg.budget, rng)
        points = midpoint_grid(cfg.grid_size)
        evaluate = partial(excess_risk_noiseless, target_fn=sin_target, grid_size=cfg.grid_size)
    elif cfg.task == "anchor-classification":
        data = gen_anchor_classification(cfg.budget, cfg.classes, cfg.epsilon, rng)
        points = anchor_points(cfg.epsilon, cfg.grid_size)
        evaluate = partial(excess_zero_one_anchor, points=points,
                           law=anchor_law(cfg.classes, cfg.epsilon, cfg.grid_size))
    else:
        # fixture-scale files can be smaller than the budget: train then cycles
        # through the training rows and re-queries under the resampling protocol
        data, test = split(full, cfg.train_fraction, seed)
        data, info = standardize(data)
        test = apply_standardize(test, info)
        points = test.features
        evaluate = partial(empirical_risk, test=test)
    reps = nystrom_representers(data.features, cfg.rank, rng)
    sigma = data.d / 5.0 if cfg.sigma is None else cfg.sigma  # a file task's default
    model = KernelModel.zeros(reps, data.output_dim, KernelSpec(sigma))
    # one kernel block of the evaluation points for every checkpoint
    evaluate = partial(evaluate, block=model.kernel_block(points))
    report = train(cfg.strategy, data.features, data.targets, model,
                   StepSchedule(cfg.schedule, cfg.gamma0, cfg.ridge), rng, cfg.budget,
                   data.n_classes, cfg.bound, default_checkpoints(cfg.budget), evaluate)
    return report.checkpoints


def run_curve(cfg: ExperimentConfig) -> RiskCurve:
    """Execute all trials of a validated config and aggregate the risks.

    A file-backed task reads its input once; every trial gets the parsed data.
    """
    cfg = cfg.resolved()
    data = _load_input(cfg) if cfg.task in FILE_TASKS else None
    jobs = [(cfg, i, data) for i in range(cfg.trials)]
    if cfg.jobs > 1:
        # imported here: loading the pool machinery would slow every ``import weaksgd``
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_one_trial, jobs))
    else:
        results = [_one_trial(j) for j in jobs]
    return aggregate_trials(results)
