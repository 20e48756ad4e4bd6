"""The layers of weaksgd as the traced run sees them, and their metrics.

:func:`install` puts a wrapper at every site where the package looks up a
layer's public function, so that each call path is seen: for example the
median driver is reached both as ``learner.run_median_sgd`` (experiments,
estimators) and as ``surrogate.run_median_sgd`` (the coordinate-passive and
active classification wrappers). :func:`layer_metrics` reduces the spans of
one traced pass to the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import inspect

from weaksgd import (cli, datasets, evaluation, experiments, kernel, learner, oracle,
                     surrogate)
from weaksgd.estimators import WeakSGDClassifier, WeakSGDRegressor

from spans import SpanView, Tracer

# driver span name -> the strategy it runs (run_median_sgd is told apart by its
# ``direction`` argument, recorded in the span's note)
DRIVERS = {
    "learner.run_median_sgd": None,
    "learner.run_least_squares_sgd": "active-least-squares",
    "learner.run_passive_median": "passive",
    "learner.run_full_sgd": "full-sgd",
    "surrogate.infimum_loss_sgd": "infimum-loss",
}

STEP_METRIC = {
    "active-median": "learner.us_per_step.active-median",
    "active-least-squares": "learner.us_per_step.active-least-squares",
    "passive": "learner.us_per_step.passive",
    "full-sgd": "learner.us_per_step.full-sgd",
    "coordinate-passive": "surrogate.us_per_step.coordinate-passive",
    "infimum-loss": "surrogate.us_per_step.infimum-loss",
}

# every per-layer metric, with its unit, in the order BENCHMARK.json lists them
METRICS = {name: "us" for name in STEP_METRIC.values()} | {
    "learner.steps": "count",
    "learner.self_s": "s",
    "oracle.queries": "count",
    "oracle.query_s": "s",
    "oracle.answered_frac": "ratio",
    "datasets.gen_s": "s",
    "datasets.anchor_law_calls": "count",
    "datasets.parse_s": "s",
    "datasets.parse_calls": "count",
    "datasets.prep_s": "s",
    "kernel.matrix_s": "s",
    "kernel.matrix_calls": "count",
    "kernel.matrix_mb": "MB",
    "kernel.matrix_peak_mb": "MB",
    "kernel.predict_s": "s",
    "geometry.sphere_s": "s",
    "evaluation.checkpoint_s": "s",
    "evaluation.checkpoints": "count",
    "evaluation.emit_s": "s",
    "experiments.self_s": "s",
    "cli.self_s": "s",
    "estimators.fit_s": "s",
    "estimators.predict_s": "s",
    "estimators.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# counts that must repeat exactly between traced passes and runs of one seed
EXACT_COUNTS = ("oracle.queries", "learner.steps", "datasets.parse_calls",
                "datasets.anchor_law_calls", "kernel.matrix_calls", "evaluation.checkpoints")


def _median_direction(args, kwargs, result):
    bound = _MEDIAN_SIGNATURE.bind(*args, **kwargs).arguments
    return {"strategy": ("coordinate-passive" if bound.get("direction") == "coordinate"
                         else "active-median")}


def _full_sgd_steps(args, kwargs, result):
    # no oracle to count: one step per label row the driver walks
    bound = _FULL_SIGNATURE.bind(*args, **kwargs).arguments
    indices = bound.get("indices")
    return {"steps": len(indices) if indices is not None else len(bound["Y"])}


def _matrix_bytes(args, kwargs, result):
    return {"mb": result.nbytes / 1e6}


_MEDIAN_SIGNATURE = inspect.signature(learner.run_median_sgd)
_FULL_SIGNATURE = inspect.signature(learner.run_full_sgd)


def install(tracer: Tracer) -> None:
    """Wrap every lookup site the four workloads reach."""
    span, count = tracer.span, tracer.count
    span(cli, "main", "cli.main")
    span(cli, "run_curve", "experiments.run_curve")
    span(experiments, "run_curve", "experiments.run_curve")
    for cls in (WeakSGDRegressor, WeakSGDClassifier):
        span(cls, "fit", "estimators.fit")
        span(cls, "predict", "estimators.predict")
    for attr in ("gen_sin_regression", "gen_anchor_classification"):
        span(experiments, attr, "datasets.gen")
    count(datasets, "anchor_conditional", "datasets.anchor_law")
    count(evaluation, "anchor_conditional", "datasets.anchor_law")
    span(experiments, "parse_libsvm", "datasets.parse")
    for attr in ("split", "standardize", "apply_standardize"):
        span(experiments, attr, "datasets.prep")
    span(learner, "run_median_sgd", "learner.run_median_sgd",
         note=_median_direction, ends_trial=True)
    span(surrogate, "run_median_sgd", "learner.run_median_sgd",
         note=_median_direction, ends_trial=True)
    span(learner, "run_least_squares_sgd", "learner.run_least_squares_sgd", ends_trial=True)
    span(learner, "run_passive_median", "learner.run_passive_median", ends_trial=True)
    span(learner, "run_full_sgd", "learner.run_full_sgd", note=_full_sgd_steps,
         ends_trial=True)
    span(surrogate, "infimum_loss_sgd", "surrogate.infimum_loss_sgd", ends_trial=True)
    for attr in ("halfspace_query", "threshold_query", "membership_query"):
        span(oracle.QueryOracle, attr, "oracle.query")
    span(learner, "kernel_matrix", "kernel.matrix", note=_matrix_bytes)
    span(kernel, "kernel_matrix", "kernel.matrix", note=_matrix_bytes)
    span(kernel.KernelModel, "predict_batch", "kernel.predict")
    span(learner, "sample_sphere_batch", "geometry.sphere")
    for attr in ("excess_risk_noiseless", "excess_zero_one_anchor", "empirical_risk"):
        span(experiments, attr, "evaluation.checkpoint")
    span(experiments, "aggregate_trials", "evaluation.emit")
    span(cli, "emit_csv", "evaluation.emit")
    span(cli, "emit_svg", "evaluation.emit")


def driver_steps(view: SpanView) -> dict:
    """Strategy -> (driver self seconds, steps) over the drivers in ``view``."""
    out = {}
    for name, strategy in DRIVERS.items():
        for i in view.of(name):
            note = view.t.notes.get(i, {})
            label = strategy or note["strategy"]
            steps = note.get("steps", view.ok_children(i, "oracle.query"))
            busy, done = out.get(label, (0.0, 0))
            out[label] = (busy + view.self_time(i), done + steps)
    return out


def layer_metrics(view: SpanView, counts: dict) -> dict:
    """Per-layer values of one traced pass (all but ``trace.overhead_frac``)."""
    values = {}
    per_strategy = driver_steps(view)
    for strategy, metric in STEP_METRIC.items():
        busy, steps = per_strategy.get(strategy, (0.0, 0))
        values[metric] = 1e6 * busy / steps if steps else 0.0
    values["learner.steps"] = sum(s for _, s in per_strategy.values())
    values["learner.self_s"] = sum(b for b, _ in per_strategy.values())

    queries = view.of("oracle.query")
    answered = sum(view.t.ok[i] for i in queries)
    values["oracle.queries"] = answered
    values["oracle.query_s"] = sum(view.duration(i) for i in queries)
    values["oracle.answered_frac"] = answered / len(queries) if queries else 0.0

    values["datasets.gen_s"] = view.total("datasets.gen")
    values["datasets.anchor_law_calls"] = counts.get("datasets.anchor_law", 0)
    values["datasets.parse_s"] = view.total("datasets.parse")
    values["datasets.parse_calls"] = len(view.of("datasets.parse"))
    values["datasets.prep_s"] = view.total("datasets.prep")

    blocks = [view.t.notes[i]["mb"] for i in view.of("kernel.matrix") if i in view.t.notes]
    values["kernel.matrix_s"] = view.total("kernel.matrix")
    values["kernel.matrix_calls"] = len(view.of("kernel.matrix"))
    values["kernel.matrix_mb"] = sum(blocks)
    values["kernel.matrix_peak_mb"] = max(blocks, default=0.0)
    values["kernel.predict_s"] = view.total("kernel.predict")
    values["geometry.sphere_s"] = view.total("geometry.sphere")

    values["evaluation.checkpoint_s"] = view.total("evaluation.checkpoint")
    values["evaluation.checkpoints"] = len(view.of("evaluation.checkpoint"))
    values["evaluation.emit_s"] = view.total("evaluation.emit")

    values["experiments.self_s"] = view.total_self("experiments.run_curve")
    values["cli.self_s"] = view.total_self("cli.main")
    values["estimators.fit_s"] = view.total("estimators.fit")
    values["estimators.predict_s"] = view.total("estimators.predict")
    values["estimators.self_s"] = (view.total_self("estimators.fit")
                                   + view.total_self("estimators.predict"))
    return values


def missing_spans(view: SpanView, counts: dict, spans, strategies) -> list[str]:
    """Expected spans, counters or strategy steps that recorded nothing."""
    missing = [name for name in spans
               if not view.of(name) and not counts.get(name)]
    per_strategy = driver_steps(view)
    missing += [f"steps of {s}" for s in strategies if not per_strategy.get(s, (0, 0))[1]]
    return missing
