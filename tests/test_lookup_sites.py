"""Every strategy reaches its driver through a site the benchmark's tracer wraps.

``perfbench/layers.py`` wraps module attributes such as
``learner.run_median_sgd`` and ``surrogate.infimum_loss_sgd``. A site that
was deleted makes ``install`` raise ``LookupError``; a dispatch table that
captured driver objects at import would bypass the wrappers, and a traced
benchmark run would see no steps for that strategy. These tests run a tiny
curve for every task and strategy, and every estimator strategy, under the
wrappers and check the steps each strategy is charged, and the exact number
of checkpoint evaluations, predictions and kernel blocks each curve makes.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402

from weaksgd import kernel  # noqa: E402
from weaksgd.estimators import WeakSGDClassifier, WeakSGDRegressor  # noqa: E402
from weaksgd.experiments import TASK_STRATEGIES, ExperimentConfig, run_curve  # noqa: E402
from weaksgd.learner import default_checkpoints  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
FILE_INPUTS = {
    "libsvm": dict(input=str(FIXTURES / "blobs3.libsvm")),
    "csv-regression": dict(input=str(FIXTURES / "weather.csv"), target="apparent",
                           bound=30.0),
}
PAIRS = [(task, strategy) for task, strategies in TASK_STRATEGIES.items()
         for strategy in strategies]


@pytest.fixture
def tracer():
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        yield tracer
    finally:
        tracer.restore()


def charged_steps(tracer, mark) -> dict:
    return {s: steps for s, (_, steps) in layers.driver_steps(tracer.view(mark)).items()}


@pytest.mark.parametrize("task,strategy", PAIRS)
def test_run_curve_charges_each_strategy_its_steps(tracer, task, strategy):
    mark = tracer.mark()
    run_curve(ExperimentConfig(task=task, strategy=strategy, budget=16, trials=2, rank=8,
                               **FILE_INPUTS.get(task, {})))
    assert charged_steps(tracer, mark) == {strategy: 2 * 16}


# the default block size, a larger one and a small one
@pytest.mark.parametrize("chunk_rows", [kernel.CHUNK_ROWS, 2048, 6])
@pytest.mark.parametrize("task,strategy", PAIRS)
def test_run_curve_call_counts(tracer, monkeypatch, task, strategy, chunk_rows):
    # each checkpoint evaluates through one prediction given the trial's kernel
    # block; kernel_matrix builds the training blocks plus that block of the
    # trial's evaluation points, both cut into blocks of the one block size
    monkeypatch.setattr(kernel, "CHUNK_ROWS", chunk_rows)
    points = []  # the evaluation point count of each trial
    build = kernel.KernelModel.kernel_block
    monkeypatch.setattr(kernel.KernelModel, "kernel_block",
                        lambda model, X: points.append(len(X)) or build(model, X))
    trials, budget = 2, 16
    mark = tracer.mark()
    run_curve(ExperimentConfig(task=task, strategy=strategy, budget=budget, trials=trials,
                               rank=8, **FILE_INPUTS.get(task, {})))
    view = tracer.view(mark)
    checkpoints = trials * len(default_checkpoints(budget))
    assert len(view.of("evaluation.checkpoint")) == checkpoints
    assert len(view.of("kernel.predict")) == checkpoints
    assert len(points) == trials and len(set(points)) == 1
    assert len(view.of("kernel.matrix")) == trials * (math.ceil(budget / chunk_rows)
                                                      + math.ceil(points[0] / chunk_rows))


@pytest.mark.parametrize("strategy", TASK_STRATEGIES["anchor-classification"])
def test_anchored_trial_builds_its_class_law_once(tracer, strategy):
    # one law for the trial's samples and one for all its checkpoints
    trials = 3
    run_curve(ExperimentConfig(task="anchor-classification", strategy=strategy, budget=16,
                               trials=trials, rank=8))
    assert tracer.counts["datasets.anchor_law"] == 2 * trials


@pytest.mark.parametrize("estimator,name,strategy", [
    (WeakSGDRegressor, "median", "active-median"),
    (WeakSGDRegressor, "least-squares", "active-least-squares"),
    (WeakSGDRegressor, "passive", "passive"),
    (WeakSGDRegressor, "full", "full-sgd"),
    (WeakSGDClassifier, "active", "active-median"),
    (WeakSGDClassifier, "coordinate-passive", "coordinate-passive"),
    (WeakSGDClassifier, "infimum-loss", "infimum-loss"),
])
def test_estimator_charges_its_strategy_its_steps(tracer, estimator, name, strategy):
    rng = np.random.default_rng(0)
    X = rng.random((20, 2))
    y = (np.sin(4 * X[:, 0]) if estimator is WeakSGDRegressor
         else (X[:, 0] > X[:, 1]).astype(int))
    mark = tracer.mark()
    estimator(name, bandwidth=0.3, budget=30, rank=8).fit(X, y)
    assert charged_steps(tracer, mark) == {strategy: 30}


@pytest.mark.parametrize("chunk_rows", [kernel.CHUNK_ROWS, 2048, 7])
@pytest.mark.parametrize("estimator", [WeakSGDRegressor, WeakSGDClassifier])
def test_estimator_predict_call_counts(tracer, monkeypatch, estimator, chunk_rows):
    # a prediction builds its kernel block one CHUNK_ROWS-row block at a time
    monkeypatch.setattr(kernel, "CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(1)
    X = rng.random((20, 2))
    y = (np.sin(4 * X[:, 0]) if estimator is WeakSGDRegressor
         else (X[:, 0] > X[:, 1]).astype(int))
    model = estimator(bandwidth=0.3, budget=30, rank=8).fit(X, y)
    n = 4099  # whole blocks and a partial one, at each block size
    mark = tracer.mark()
    model.predict(rng.random((n, 2)))
    view = tracer.view(mark)
    assert len(view.of("kernel.predict")) == 1
    assert len(view.of("kernel.matrix")) == math.ceil(n / chunk_rows)
