"""Byte-level golden outputs: curves for every task x strategy pair, digests
of every estimator strategy's predictions, and digests of every estimator
strategy's final iterate.

The files under ``tests/golden/`` were written by an earlier version of the
package; a refactor of the training loop must reproduce them byte for byte.
Regenerate them only for a change that is meant to move the numbers, and say
so in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from weaksgd.estimators import WeakSGDClassifier, WeakSGDRegressor
from weaksgd.evaluation import emit_csv
from weaksgd.experiments import TASK_STRATEGIES, ExperimentConfig, run_curve

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
FIXTURES = HERE / "fixtures"

FILE_INPUTS = {
    "libsvm": dict(input=str(FIXTURES / "blobs3.libsvm")),
    "csv-regression": dict(input=str(FIXTURES / "weather.csv"), target="apparent",
                           bound=30.0),
}

PAIRS = [(task, strategy) for task, strategies in TASK_STRATEGIES.items()
         for strategy in strategies]


def golden_config(task: str, strategy: str) -> ExperimentConfig:
    return ExperimentConfig(task=task, strategy=strategy, budget=2**8, trials=3, seed=0,
                            gamma0=0.5, rank=24, **FILE_INPUTS.get(task, {}))


def curve_bytes(task: str, strategy: str, tmp: Path) -> bytes:
    path = tmp / f"{task}__{strategy}.csv"
    emit_csv(run_curve(golden_config(task, strategy)), path)
    return path.read_bytes()


def _pool(seed: int = 0, n: int = 150, held_out: int = 400):
    rng = np.random.default_rng(seed)
    X = rng.random((n + held_out, 2))
    F = np.stack([np.sin(2 * np.pi * X[:, 0]), np.cos(2 * np.pi * X[:, 1]),
                  X[:, 0] * X[:, 1]], axis=1)
    Y = F + 0.1 * rng.standard_normal(F.shape)
    labels = np.argmax(F + 0.3 * rng.standard_normal(F.shape), axis=1)
    return X[:n], Y[:n], labels[:n], X[n:]


# name -> (estimator, target kind); budgets beyond the pool size re-query it
# cyclically (resampling), the others stream
ESTIMATORS = {
    "regressor-median": (lambda: WeakSGDRegressor(
        "median", bandwidth=0.3, gamma0=0.5, budget=400, rank=30, ridge=1e-3), "vector"),
    "regressor-least-squares": (lambda: WeakSGDRegressor(
        "least-squares", bandwidth=0.3, gamma0=0.5, schedule="constant", budget=120,
        rank=30, bound=2.0), "vector"),
    "regressor-passive": (lambda: WeakSGDRegressor(
        "passive", bandwidth=0.3, gamma0=0.5, budget=400, rank=30, ridge=1e-3), "scalar"),
    "regressor-full": (lambda: WeakSGDRegressor(
        "full", bandwidth=0.3, gamma0=0.5, budget=400, rank=30), "vector"),
    "classifier-active": (lambda: WeakSGDClassifier(
        "active", bandwidth=0.3, gamma0=2.0, budget=400, rank=30), "labels"),
    "classifier-coordinate-passive": (lambda: WeakSGDClassifier(
        "coordinate-passive", bandwidth=0.3, gamma0=2.0, budget=120, rank=30,
        ridge=1e-3), "labels"),
    "classifier-infimum-loss": (lambda: WeakSGDClassifier(
        "infimum-loss", bandwidth=0.3, gamma0=2.0, schedule="constant", budget=400,
        rank=30), "labels"),
}


def _fitted(name: str):
    make, kind = ESTIMATORS[name]
    X, Y, labels, Xh = _pool()
    y = {"vector": Y, "scalar": Y[:, 0], "labels": labels}[kind]
    return make().fit(X, y), Xh


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def estimator_digest(name: str) -> str:
    est, Xh = _fitted(name)
    return _digest(est.predict(Xh))


def final_model_digest(name: str) -> str:
    """Digest of the last iterate's coefficients. The trajectory never reads
    the average, so a change to how the average is kept must leave these."""
    return _digest(_fitted(name)[0].final_model_.coefficients)


@pytest.mark.parametrize("task,strategy", PAIRS)
def test_curve_matches_golden(task, strategy, tmp_path):
    golden = (GOLDEN / f"{task}__{strategy}.csv").read_bytes()
    assert curve_bytes(task, strategy, tmp_path) == golden


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_estimator_predictions_match_golden(name):
    digests = json.loads((GOLDEN / "estimators.json").read_text())
    assert estimator_digest(name) == digests[name]


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_final_model_matches_golden(name):
    digests = json.loads((GOLDEN / "final_models.json").read_text())
    assert final_model_digest(name) == digests[name]


def test_every_pair_has_a_golden_file():
    assert len(PAIRS) == 14
    names = {p.name for p in GOLDEN.glob("*.csv")}
    assert names == {f"{t}__{s}.csv" for t, s in PAIRS}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for task, strategy in PAIRS:
        emit_csv(run_curve(golden_config(task, strategy)),
                 GOLDEN / f"{task}__{strategy}.csv")
    digests = {name: estimator_digest(name) for name in sorted(ESTIMATORS)}
    (GOLDEN / "estimators.json").write_text(json.dumps(digests, indent=2) + "\n")
    finals = {name: final_model_digest(name) for name in sorted(ESTIMATORS)}
    (GOLDEN / "final_models.json").write_text(json.dumps(finals, indent=2) + "\n")
    sys.stdout.write(f"wrote {len(PAIRS)} curves, {len(digests)} prediction digests and "
                     f"{len(finals)} final-model digests to {GOLDEN}\n")
