"""Experiment configurations and the seeded multi-trial harness.

A configuration names a task, a query strategy, a budget, and the model
hyperparameters; :func:`run_curve` executes ``trials`` seeded runs (seed,
seed+1, ...), evaluates the averaged model on the task's risk at every
checkpoint, and aggregates into a :class:`~weaksgd.evaluation.RiskCurve`.
Trials are independent, so they may run in worker processes; aggregation
orders by trial index, which keeps outputs byte-identical for any job count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import learner, surrogate
from .datasets import (
    LabeledDataset,
    SplitSpec,
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
    empirical_risk,
    excess_risk_noiseless,
    excess_zero_one_anchor,
)
from .kernel import KernelModel, KernelSpec, nystrom_representers
from .learner import StepSchedule, default_checkpoints
from .oracle import QueryOracle

TASKS = ("sin-regression", "anchor-classification", "libsvm", "csv-regression")

# which query strategies make sense for which task
TASK_STRATEGIES = {
    "sin-regression": ("active-median", "active-least-squares", "passive", "full-sgd"),
    "csv-regression": ("active-median", "active-least-squares", "passive", "full-sgd"),
    "anchor-classification": ("active-median", "coordinate-passive", "infimum-loss"),
    "libsvm": ("active-median", "coordinate-passive", "infimum-loss"),
}

SCHEDULES = ("decaying", "constant")


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
        """Fill task-dependent defaults (bandwidth, ridge) and validate."""
        cfg = self
        if cfg.sigma is None:
            if cfg.task == "sin-regression":
                cfg = replace(cfg, sigma=0.2)
            elif cfg.task == "anchor-classification":
                cfg = replace(cfg, sigma=0.05)
            # file-backed tasks default to d/5 once the file is read
        if cfg.ridge is None:
            ridge = 1e-6 if cfg.task in ("libsvm", "csv-regression") else 0.0
            cfg = replace(cfg, ridge=ridge)
        validate_config(cfg)
        return cfg


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}
_INT_FIELDS = {"budget", "trials", "seed", "classes", "rank", "grid_size", "jobs"}
_FLOAT_FIELDS = {"sigma", "gamma0", "ridge", "bound", "epsilon", "train_fraction"}


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.task not in TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}; expected one of {TASKS}")
    if cfg.strategy not in TASK_STRATEGIES[cfg.task]:
        raise ConfigError(
            f"strategy {cfg.strategy!r} is not valid for task {cfg.task!r}; "
            f"allowed: {TASK_STRATEGIES[cfg.task]}"
        )
    if cfg.schedule not in SCHEDULES:
        raise ConfigError(f"unknown schedule {cfg.schedule!r}")
    for name in ("budget", "trials", "rank", "grid_size", "jobs"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1")
    for name in ("gamma0", "bound"):
        if not getattr(cfg, name) > 0:
            raise ConfigError(f"{name} must be > 0")
    if cfg.sigma is not None and not cfg.sigma > 0:
        raise ConfigError("sigma must be > 0")
    if cfg.ridge is not None and cfg.ridge < 0:
        raise ConfigError("ridge must be >= 0")
    if not 0.0 < cfg.train_fraction < 1.0:
        raise ConfigError("train_fraction must lie strictly between 0 and 1")
    if cfg.task == "anchor-classification":
        if cfg.classes < 3:
            raise ConfigError("the anchored task needs at least 3 classes")
        if not 0.0 <= cfg.epsilon < 0.25:
            raise ConfigError("epsilon must lie in [0, 1/4)")
    if cfg.task in ("libsvm", "csv-regression") and not cfg.input:
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


def _schedule_for(cfg: ExperimentConfig, horizon: int) -> StepSchedule:
    if cfg.schedule == "decaying":
        return StepSchedule.decaying(cfg.gamma0)
    return StepSchedule.constant(cfg.gamma0, horizon)


def _run_strategy(cfg, X, oracle, model, rng, grid, evaluate, indices=None, labels=None):
    schedule = _schedule_for(cfg, cfg.budget)
    if cfg.strategy == "active-median":
        return learner.run_median_sgd(X, oracle, schedule, model, rng, grid,
                                      evaluate, indices)
    if cfg.strategy == "active-least-squares":
        return learner.run_least_squares_sgd(X, oracle, schedule, model, rng,
                                             cfg.bound, grid, evaluate, indices)
    if cfg.strategy == "passive":
        return learner.run_passive_median(X, oracle, schedule, model, rng, grid,
                                          evaluate, indices)
    if cfg.strategy == "full-sgd":
        return learner.run_full_sgd(X, labels, schedule, model, grid, evaluate, indices)
    if cfg.strategy == "coordinate-passive":
        return surrogate.run_passive_classification(X, oracle, schedule, model, rng,
                                                    grid, evaluate, indices)
    if cfg.strategy == "infimum-loss":
        return surrogate.infimum_loss_sgd(X, oracle, schedule, model, rng, grid,
                                          evaluate, indices)
    raise ConfigError(f"unknown strategy {cfg.strategy!r}")


def _sin_trial(cfg: ExperimentConfig, trial_seed: int):
    rng = np.random.default_rng(trial_seed)
    data = gen_sin_regression(cfg.budget, rng)
    spec = KernelSpec(cfg.sigma)
    reps = nystrom_representers(data.features, min(cfg.rank, data.n), rng)
    model = KernelModel.zeros(reps, 1, spec, cfg.ridge)
    grid = default_checkpoints(cfg.budget)

    def evaluate(m):
        return excess_risk_noiseless(m, sin_target, cfg.grid_size)

    if cfg.strategy == "full-sgd":
        report = _run_strategy(cfg, data.features, None, model, rng, grid, evaluate,
                               labels=data.targets)
    else:
        oracle = QueryOracle.for_regression(data.targets, cfg.budget, "streaming")
        report = _run_strategy(cfg, data.features, oracle, model, rng, grid, evaluate)
    return report.checkpoints


def _anchor_trial(cfg: ExperimentConfig, trial_seed: int):
    rng = np.random.default_rng(trial_seed)
    data = gen_anchor_classification(cfg.budget, cfg.classes, cfg.epsilon, rng)
    spec = KernelSpec(cfg.sigma)
    reps = nystrom_representers(data.features, min(cfg.rank, data.n), rng)
    model = KernelModel.zeros(reps, cfg.classes, spec, cfg.ridge)
    grid = default_checkpoints(cfg.budget)
    oracle = QueryOracle.for_classification(data.targets, cfg.classes, cfg.budget,
                                            "streaming")

    def evaluate(m):
        return excess_zero_one_anchor(m, cfg.classes, cfg.epsilon, cfg.grid_size)

    report = _run_strategy(cfg, data.features, oracle, model, rng, grid, evaluate)
    return report.checkpoints


def _load_input(cfg: ExperimentConfig) -> LabeledDataset:
    with open(cfg.input, "r", encoding="utf-8") as fh:
        if cfg.task == "libsvm":
            return parse_libsvm(fh)
        return parse_csv_regression(fh, [c.strip() for c in cfg.target.split(",") if c.strip()])


def _file_trial(cfg: ExperimentConfig, trial_seed: int, full: LabeledDataset):
    train, test = split(full, SplitSpec(cfg.train_fraction, trial_seed))
    train, info = standardize(train)
    test = apply_standardize(test, info)
    sigma = cfg.sigma if cfg.sigma is not None else train.d / 5.0
    spec = KernelSpec(sigma)
    rng = np.random.default_rng(trial_seed)
    reps = nystrom_representers(train.features, min(cfg.rank, train.n), rng)
    grid = default_checkpoints(cfg.budget)
    if cfg.budget <= train.n:
        mode, indices = "streaming", np.arange(cfg.budget)
    else:
        # fixture-scale files can be smaller than the budget: cycle through
        # the training rows and re-query under the resampling protocol
        mode, indices = "resampling", np.arange(cfg.budget) % train.n
    if cfg.task == "libsvm":
        model = KernelModel.zeros(reps, train.n_classes, spec, cfg.ridge)
        oracle = QueryOracle.for_classification(train.targets, train.n_classes,
                                                cfg.budget, mode)

        def evaluate(m):
            return empirical_risk(m, test, "zero-one")

        report = _run_strategy(cfg, train.features, oracle, model, rng, grid,
                               evaluate, indices=indices)
    else:
        model = KernelModel.zeros(reps, train.output_dim, spec, cfg.ridge)
        if cfg.strategy == "full-sgd":
            report = _run_strategy(cfg, train.features, None, model, rng, grid,
                                   lambda m: empirical_risk(m, test, "absolute-deviation"),
                                   indices=indices, labels=train.targets)
        else:
            oracle = QueryOracle.for_regression(train.targets, cfg.budget, mode)
            report = _run_strategy(cfg, train.features, oracle, model, rng, grid,
                                   lambda m: empirical_risk(m, test, "absolute-deviation"),
                                   indices=indices)
    return report.checkpoints


_TRIAL_FUNCTIONS = {
    "sin-regression": _sin_trial,
    "anchor-classification": _anchor_trial,
    "libsvm": _file_trial,
    "csv-regression": _file_trial,
}


def _one_trial(args):
    cfg, trial_index, data = args
    fn = _TRIAL_FUNCTIONS[cfg.task]
    seed = cfg.seed + trial_index
    return fn(cfg, seed) if data is None else fn(cfg, seed, data)


def run_curve(cfg: ExperimentConfig) -> RiskCurve:
    """Execute all trials of a validated config and aggregate the risks.

    A file-backed task reads its input once; every trial gets the parsed data.
    """
    cfg = cfg.resolved()
    data = _load_input(cfg) if cfg.task in ("libsvm", "csv-regression") else None
    jobs = [(cfg, i, data) for i in range(cfg.trials)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_one_trial, jobs))
    else:
        results = [_one_trial(j) for j in jobs]
    return aggregate_trials(results)
