import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weaksgd.estimators import (
    NotFittedError,
    WeakSGDClassifier,
    WeakSGDRegressor,
    check_array,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def sin_data(n=256, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 1))
    return X, np.sin(2 * np.pi * X[:, 0])


def blob_data(n=180, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    y = np.where(X[:, 0] + X[:, 1] > 0, "up", "down")
    return X, y


class TestRegressor:
    def test_fit_predict_shapes(self):
        X, y = sin_data()
        reg = WeakSGDRegressor(bandwidth=0.2, gamma0=0.3, seed=3).fit(X, y)
        preds = reg.predict(X)
        assert preds.shape == (len(X),)
        assert reg.n_queries_ == len(X)

    def test_learns_the_signal(self):
        X, y = sin_data(n=2048)
        reg = WeakSGDRegressor(bandwidth=0.2, gamma0=0.3, seed=4).fit(X, y)
        assert float(np.abs(reg.predict(X) - y).mean()) < 0.15

    def test_vector_targets(self):
        rng = np.random.default_rng(5)
        X = rng.random((128, 1))
        Y = np.stack([np.sin(2 * np.pi * X[:, 0]), np.cos(2 * np.pi * X[:, 0])], axis=1)
        reg = WeakSGDRegressor(bandwidth=0.2, gamma0=0.3, seed=5).fit(X, Y)
        assert reg.predict(X).shape == (128, 2)

    def test_budget_larger_than_n_recycles(self):
        X, y = sin_data(n=64)
        reg = WeakSGDRegressor(bandwidth=0.2, gamma0=0.3, budget=300, seed=6).fit(X, y)
        assert reg.n_queries_ == 300

    def test_budget_smaller_than_n_streams_prefix(self):
        X, y = sin_data(n=64)
        reg = WeakSGDRegressor(bandwidth=0.2, gamma0=0.3, budget=16, seed=6).fit(X, y)
        assert reg.n_queries_ == 16

    def test_full_strategy_uses_no_queries(self):
        X, y = sin_data(n=64)
        reg = WeakSGDRegressor(strategy="full", bandwidth=0.2, gamma0=0.3, seed=0).fit(X, y)
        assert reg.n_queries_ == 0

    def test_least_squares_strategy(self):
        X, y = sin_data(n=2048)
        reg = WeakSGDRegressor(strategy="least-squares", bandwidth=0.2, gamma0=0.3,
                               bound=1.0, seed=8).fit(X, y)
        assert reg.n_queries_ == 2048
        assert float(np.abs(reg.predict(X) - y).mean()) < 0.3

    def test_constant_schedule(self):
        X, y = sin_data(n=256)
        reg = WeakSGDRegressor(bandwidth=0.2, gamma0=0.3, schedule="constant",
                               seed=9).fit(X, y)
        assert reg.predict(X).shape == (256,)

    def test_passive_needs_scalar_targets(self):
        rng = np.random.default_rng(7)
        X = rng.random((32, 1))
        Y = rng.random((32, 2))
        with pytest.raises(ValueError):
            WeakSGDRegressor(strategy="passive").fit(X, Y)

    @pytest.mark.parametrize("first,second", [
        ("median", "median"),
        ("median", "active-median"),
        ("least-squares", "active-least-squares"),
        ("full", "full-sgd"),
    ])
    def test_deterministic_given_seed(self, first, second):
        # a short alias trains exactly like its canonical name
        X, y = sin_data()
        a = WeakSGDRegressor(first, bandwidth=0.2, gamma0=0.3, seed=11).fit(X, y).predict(X)
        b = WeakSGDRegressor(second, bandwidth=0.2, gamma0=0.3, seed=11).fit(X, y).predict(X)
        assert a.tobytes() == b.tobytes()

    def test_full_strategy_takes_budget_steps(self):
        # rows past the budget never reach the model; without a budget every row does
        X, y = sin_data(n=64)
        shifted = y.copy()
        shifted[16:] += 5.0

        def fit(target, budget):
            reg = WeakSGDRegressor(strategy="full", bandwidth=0.2, gamma0=0.3,
                                   budget=budget, seed=0)
            return reg.fit(X, target).predict(X).tobytes()

        assert fit(y, 16) == fit(shifted, 16)
        assert fit(y, None) != fit(shifted, None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_targets(self, bad):
        X, y = sin_data(n=16)
        y[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            WeakSGDRegressor().fit(X, y)

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            WeakSGDRegressor().predict(np.zeros((2, 1)))

    def test_rejects_bad_labels_and_budget(self):
        X, y = sin_data(n=16)
        with pytest.raises(ValueError,
                           match=r"labels of shape \(15,\) do not match X of shape \(16, 1\)"):
            WeakSGDRegressor().fit(X, y[:-1])
        with pytest.raises(ValueError, match="budget must be >= 0"):
            WeakSGDRegressor(budget=-1).fit(X, y)

    @pytest.mark.parametrize("cls", [WeakSGDRegressor, WeakSGDClassifier])
    def test_diverged_fit_raises(self, cls):
        X, y = sin_data(n=50) if cls is WeakSGDRegressor else blob_data(n=50)
        est = cls(schedule="constant", gamma0=1e308, budget=50, rank=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="diverged"):
                est.fit(X, y)
        assert getattr(est, "model_", None) is None

    def test_unknown_strategy(self):
        X, y = sin_data(n=16)
        with pytest.raises(ValueError):
            WeakSGDRegressor(strategy="bandit").fit(X, y)


@pytest.mark.parametrize("cls,params,name", [
    (WeakSGDRegressor, {"ridge": np.nan}, "ridge"),
    (WeakSGDRegressor, {"ridge": np.inf}, "ridge"),
    (WeakSGDRegressor, {"gamma0": np.inf}, "gamma0"),
    (WeakSGDRegressor, {"gamma0": np.nan}, "gamma0"),
    (WeakSGDRegressor, {"bandwidth": np.inf}, "bandwidth"),
    (WeakSGDRegressor, {"strategy": "least-squares", "bound": np.inf}, "bound"),
    (WeakSGDClassifier, {"ridge": np.nan}, "ridge"),
    (WeakSGDClassifier, {"gamma0": np.inf}, "gamma0"),
    (WeakSGDRegressor, {"strategy": "least-squares", "bound": 1e308}, "bound"),
    (WeakSGDRegressor, {"bandwidth": 1e200}, "bandwidth"),
    (WeakSGDClassifier, {"bandwidth": 1e-170}, "bandwidth"),
])
def test_non_finite_setting_spends_no_bit(no_bits, cls, params, name):
    X, y = sin_data(n=50) if cls is WeakSGDRegressor else blob_data(n=50)
    with pytest.raises(ValueError, match=name):
        cls(budget=50, rank=5, **params).fit(X, y)


class TestClassifier:
    def test_fit_predict_labels(self):
        X, y = blob_data()
        clf = WeakSGDClassifier(gamma0=2.0, budget=1500, seed=2).fit(X, y)
        preds = clf.predict(X)
        assert set(preds) <= {"up", "down"}
        assert (preds == y).mean() > 0.8

    def test_decision_function_shape(self):
        X, y = blob_data()
        clf = WeakSGDClassifier(gamma0=2.0, seed=2).fit(X, y)
        assert clf.decision_function(X).shape == (len(X), 2)

    @pytest.mark.parametrize("strategy", ["coordinate-passive", "infimum-loss"])
    def test_alternative_strategies_run(self, strategy):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((90, 2))
        y = rng.integers(0, 3, 90)
        clf = WeakSGDClassifier(strategy=strategy, gamma0=1.0, seed=3).fit(X, y)
        assert clf.predict(X).shape == (90,)
        assert clf.n_queries_ == 90

    def test_active_alias_matches_active_median(self):
        X, y = blob_data()
        a = WeakSGDClassifier("active", gamma0=2.0, seed=2).fit(X, y)
        b = WeakSGDClassifier("active-median", gamma0=2.0, seed=2).fit(X, y)
        assert a.decision_function(X).tobytes() == b.decision_function(X).tobytes()

    def test_unknown_strategy(self):
        X, y = blob_data(n=16)
        for name in ("bandit", "passive", "full-sgd"):
            with pytest.raises(ValueError, match="unknown strategy"):
                WeakSGDClassifier(strategy=name).fit(X, y)

    def test_rejects_labels_that_are_not_a_vector(self):
        X, y = blob_data(n=16)
        with pytest.raises(ValueError,
                           match=r"labels of shape \(15,\) do not match X of shape \(16, 2\)"):
            WeakSGDClassifier().fit(X, y[:-1])
        with pytest.raises(ValueError, match="length-n label vector"):
            WeakSGDClassifier().fit(X, np.stack([y, y], axis=1))

    def test_integer_labels_preserved(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((60, 1))
        y = np.where(X[:, 0] > 0, 7, 3)
        clf = WeakSGDClassifier(gamma0=1.0, budget=600, seed=4).fit(X, y)
        assert set(clf.predict(X)) <= {3, 7}
        assert clf.classes_.tolist() == [3, 7]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_labels(self, no_bits, bad):
        X, _ = sin_data(n=40)
        y = np.where(np.arange(40) % 3, 1.0, bad)  # np.unique would make bad a class
        with pytest.raises(ValueError, match="non-finite"):
            WeakSGDClassifier(budget=40, rank=8).fit(X, y)


# unpickles (regressor, classifier, X) from stdin and pickles back their answers
UNPICKLE = """
import pickle, sys
reg, clf, X = pickle.load(sys.stdin.buffer)
answers = [reg.predict(X), reg.model_.coefficients, reg.final_model_.coefficients,
           reg.n_queries_, clf.predict(X), clf.decision_function(X), clf.model_.coefficients,
           clf.final_model_.coefficients, clf.n_queries_, clf.classes_]
pickle.dump(answers, sys.stdout.buffer)
"""


def test_a_pickled_estimator_answers_with_the_same_bits_in_a_new_interpreter():
    rng = np.random.default_rng(12)
    X = rng.random((200, 2))
    reg = WeakSGDRegressor(bandwidth=0.3, gamma0=0.5, budget=400, rank=20, ridge=0.01,
                           seed=6).fit(X, np.sin(X @ rng.random((2, 3))))
    Xb, yb = blob_data()
    clf = WeakSGDClassifier(gamma0=2.0, budget=400, rank=20, seed=7).fit(Xb, yb)
    X_new = rng.random((1100, 2))  # more rows than one 512-row prediction block
    out = subprocess.run([sys.executable, "-c", UNPICKLE], capture_output=True, check=True,
                         input=pickle.dumps((reg, clf, X_new)),
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    want = [reg.predict(X_new), reg.model_.coefficients, reg.final_model_.coefficients,
            reg.n_queries_, clf.predict(X_new), clf.decision_function(X_new),
            clf.model_.coefficients, clf.final_model_.coefficients, clf.n_queries_,
            clf.classes_]
    assert want[0].shape == (1100, 3)
    assert want[-1].tolist() == ["down", "up"]
    got = pickle.loads(out)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestParamsProtocol:
    def test_get_params_round_trip(self):
        reg = WeakSGDRegressor(bandwidth=0.7, gamma0=0.2, seed=9)
        params = reg.get_params()
        clone = WeakSGDRegressor(**params)
        assert clone.get_params() == params

    def test_set_params_chains(self):
        reg = WeakSGDRegressor()
        assert reg.set_params(bandwidth=0.4, seed=5) is reg
        assert reg.bandwidth == 0.4
        assert reg.seed == 5

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            WeakSGDClassifier().set_params(kernel="rbf")

    def test_clone_reproduces_fit(self):
        X, y = sin_data(n=128)
        a = WeakSGDRegressor(bandwidth=0.2, gamma0=0.3, seed=13)
        b = WeakSGDRegressor(**a.get_params())
        pa = a.fit(X, y).predict(X)
        pb = b.fit(X, y).predict(X)
        assert pa.tobytes() == pb.tobytes()

    def test_repr_lists_params(self):
        text = repr(WeakSGDRegressor(bandwidth=0.25))
        assert text.startswith("WeakSGDRegressor(")
        assert "bandwidth=0.25" in text


class TestCheckArray:
    def test_promotes_one_dimensional(self):
        assert check_array([1.0, 2.0]).shape == (2, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            check_array([[np.nan]])

    def test_rejects_rows_whose_squared_norms_overflow(self):
        # 4 x^2 is finite at x = 6.7e153 and overflows at 6.8e153
        assert check_array([[6.7e153, 0.0]]).shape == (1, 2)
        with pytest.raises(ValueError, match="X contains a row whose squared norm is too large"):
            check_array([[1.0, 0.0], [6.8e153, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_array(np.zeros((0, 2)))
