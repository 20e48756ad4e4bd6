"""One strategy vocabulary: every entry point takes the run names and the
aliases of ``experiments.ALIASES``, and an alias trains exactly like its run
name."""

import re

import numpy as np
import pytest

from weaksgd import cli
from weaksgd.estimators import WeakSGDClassifier, WeakSGDRegressor
from weaksgd.experiments import (
    ALIASES,
    CLASSIFICATION_STRATEGIES,
    REGRESSION_STRATEGIES,
    ConfigError,
    ExperimentConfig,
    train,
)
from weaksgd.kernel import KernelModel, KernelSpec
from weaksgd.learner import StepSchedule

KINDS = {"regression": REGRESSION_STRATEGIES, "classification": CLASSIFICATION_STRATEGIES}
ESTIMATORS = {"regression": WeakSGDRegressor, "classification": WeakSGDClassifier}
TASKS = {"regression": "sin-regression", "classification": "anchor-classification"}

# (alias, run name, kind) for every kind whose strategies include the run name
PAIRS = [(alias, name, kind) for alias, name in ALIASES.items()
         for kind, names in KINDS.items() if name in names]
# (alias, kind) for every kind whose strategies do not
MISFITS = [(alias, kind) for alias, name in ALIASES.items()
           for kind, names in KINDS.items() if name not in names]


def data(kind):
    """40 rows and their labels: real (n, 1) targets, or classes 1..3."""
    rng = np.random.default_rng(3)
    X = rng.random((40, 2))
    if kind == "regression":
        return X, np.sin(4 * X[:, :1]), None
    return X, 1 + (3 * X[:, 0]).astype(int), 3


def train_models(strategy, kind):
    X, labels, n_classes = data(kind)
    model = KernelModel.zeros(X[:8], 1 if n_classes is None else n_classes, KernelSpec(0.3))
    # a budget past the 40 rows, so the resampling protocol is exercised too
    report = train(strategy, X, labels, model, StepSchedule("decaying", 0.5),
                   np.random.default_rng(4), 60, n_classes)
    return report.final_model.coefficients, report.averaged_model.coefficients


def fit_predict(strategy, kind):
    X, labels, _ = data(kind)
    est = ESTIMATORS[kind](strategy, bandwidth=0.3, budget=60, rank=8, seed=5)
    if kind == "regression":
        return est.fit(X, labels[:, 0]).predict(X)
    return est.fit(X, labels).decision_function(X)


def test_the_alias_table():
    assert ALIASES == {"median": "active-median", "active": "active-median",
                       "least-squares": "active-least-squares", "full": "full-sgd"}
    assert ({alias for alias, _, _ in PAIRS} | {alias for alias, _ in MISFITS}
            == set(ALIASES))


@pytest.mark.parametrize("alias,name,kind", PAIRS)
def test_train_gives_the_same_coefficient_bytes(alias, name, kind):
    got, want = train_models(alias, kind), train_models(name, kind)
    assert np.abs(want[0]).max() > 0
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("alias,name,kind", PAIRS)
def test_estimators_give_the_same_prediction_bytes(alias, name, kind):
    got, want = fit_predict(alias, kind), fit_predict(name, kind)
    assert np.abs(want).max() > 0
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alias,name,kind", PAIRS)
def test_config_resolves_an_alias_to_its_run_name(alias, name, kind):
    assert ExperimentConfig(task=TASKS[kind], strategy=alias).resolved().strategy == name


@pytest.mark.parametrize("alias,name,kind", PAIRS)
def test_run_writes_the_same_artifacts(capsys, tmp_path, alias, name, kind):
    for strategy in (alias, name):
        assert cli.main(["run", "--task", TASKS[kind], "--strategy", strategy,
                         "--budget", "32", "--trials", "2", "--rank", "8",
                         "--grid-size", "16", "--outdir", str(tmp_path / strategy)]) == 0
    for artifact in ("curve.csv", "curve.svg", "manifest"):
        got = (tmp_path / alias / artifact).read_bytes()
        assert got == (tmp_path / name / artifact).read_bytes(), artifact
    # the manifest and the legend record the run name
    assert f"strategy = {name}\n" in (tmp_path / alias / "manifest").read_text()
    assert f">{name}</text>" in (tmp_path / alias / "curve.svg").read_text()


@pytest.mark.parametrize("alias,kind", MISFITS)
def test_an_alias_outside_its_kind_is_rejected_by_its_given_name(capsys, tmp_path, alias,
                                                                  kind):
    given = re.escape(repr(alias))
    with pytest.raises(ConfigError, match=given):
        train_models(alias, kind)
    with pytest.raises(ConfigError, match=given):
        fit_predict(alias, kind)
    with pytest.raises(ConfigError, match=given):
        ExperimentConfig(task=TASKS[kind], strategy=alias).resolved()
    code = cli.main(["run", "--task", TASKS[kind], "--strategy", alias, "--budget", "16",
                     "--trials", "1", "--outdir", str(tmp_path / "out")])
    assert code == 1
    assert repr(alias) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("estimator", [WeakSGDRegressor, WeakSGDClassifier])
def test_estimators_default_to_the_run_name(estimator):
    assert estimator().get_params()["strategy"] == "active-median"
