"""Estimator front-end with the familiar fit/predict surface.

The estimators own the full simulation: ``fit(X, y)`` hides the labels
behind a budgeted :class:`~weaksgd.oracle.QueryOracle`, trains with the
chosen single-bit strategy, and keeps the averaged model for prediction.
``get_params``/``set_params`` follow the scikit-learn convention so the
estimators drop into pipelines and grid searches.
"""

from __future__ import annotations

import inspect

import numpy as np

from . import experiments, surrogate
from .kernel import KernelModel, KernelSpec, nystrom_representers
from .learner import StepSchedule


class NotFittedError(RuntimeError):
    """predict was called before fit."""


def check_random_state(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_array(X, name: str = "X") -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"{name} must be a nonempty 2-D array")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains non-finite values")
    return X


class _ParamsMixin:
    """get_params/set_params over the __init__ signature, scikit-learn style."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class _BaseWeakSGD(_ParamsMixin):
    _ALIASES: dict = {}  # short name -> the run name it stands for

    def _fit(self, X, labels, n_classes=None, bound: float = 1.0):
        """Train through :func:`experiments.train`, which rejects a strategy
        name that is not its task kind's (after alias resolution)."""
        strategy = self._ALIASES.get(self.strategy, self.strategy)
        n_train = X.shape[0]
        budget = self.budget if self.budget is not None else n_train
        if budget < 0:
            raise ValueError("budget must be >= 0")
        schedule = StepSchedule.named(self.schedule, self.gamma0, max(budget, 1))
        rng = check_random_state(self.seed)
        reps = nystrom_representers(X, min(self.rank, n_train), rng)
        output_dim = labels.shape[1] if n_classes is None else n_classes
        model = KernelModel.zeros(reps, output_dim, KernelSpec(self.bandwidth), self.ridge)
        report = experiments.train(strategy, X, labels, model, schedule, rng, budget,
                                   n_classes, bound)
        self.model_ = report.averaged_model
        self.final_model_ = report.final_model
        self.n_queries_ = report.queries_used
        self.n_features_in_ = X.shape[1]
        return self

    def _check_fitted(self):
        if getattr(self, "model_", None) is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted yet")


class WeakSGDRegressor(_BaseWeakSGD):
    """Kernel regressor trained from one label bit per gradient step.

    Strategies, with their short aliases:

    * ``"active-median"`` (alias ``"median"``): half-space signs at the
      current prediction;
    * ``"active-least-squares"`` (alias ``"least-squares"``): random-threshold
      bits; needs the range bound;
    * ``"passive"``: blind N(0,1) thresholds, scalar targets only;
    * ``"full-sgd"`` (alias ``"full"``): plain subgradient descent on the
      labels, no query bits spent.

    Every strategy takes ``budget`` steps; a budget larger than n re-queries
    the data cyclically.
    """

    _ALIASES = {"median": "active-median", "least-squares": "active-least-squares",
                "full": "full-sgd"}

    def __init__(self, strategy: str = "median", bandwidth: float = 1.0,
                 gamma0: float = 1.0, schedule: str = "decaying",
                 budget: int | None = None, rank: int = 100, ridge: float = 0.0,
                 bound: float = 1.0, seed: int = 0):
        self.strategy = strategy
        self.bandwidth = bandwidth
        self.gamma0 = gamma0
        self.schedule = schedule
        self.budget = budget
        self.rank = rank
        self.ridge = ridge
        self.bound = bound
        self.seed = seed

    def fit(self, X, y):
        X = check_array(X)
        y = np.asarray(y, dtype=float)
        self._y_was_1d = y.ndim == 1
        Y = y[:, None] if y.ndim == 1 else y
        if Y.shape[0] != X.shape[0]:
            raise ValueError("X and y disagree on the number of samples")
        if not np.isfinite(Y).all():
            raise ValueError("y contains non-finite values")
        return self._fit(X, Y, bound=self.bound)

    def predict(self, X):
        self._check_fitted()
        preds = self.model_.predict_batch(check_array(X))
        return preds[:, 0] if self._y_was_1d else preds


class WeakSGDClassifier(_BaseWeakSGD):
    """Classifier trained through the simplex-embedding regression surrogate.

    Strategies, with their short aliases:

    * ``"active-median"`` (alias ``"active"``): sphere-uniform half-space
      queries;
    * ``"coordinate-passive"``: basis-vector queries, one class per bit;
    * ``"infimum-loss"``: random-set membership bits with best-case gradients.

    Labels may be arbitrary hashables; they are mapped onto classes 1..m.
    """

    _ALIASES = {"active": "active-median"}

    def __init__(self, strategy: str = "active", bandwidth: float = 1.0,
                 gamma0: float = 1.0, schedule: str = "decaying",
                 budget: int | None = None, rank: int = 100, ridge: float = 0.0,
                 seed: int = 0):
        self.strategy = strategy
        self.bandwidth = bandwidth
        self.gamma0 = gamma0
        self.schedule = schedule
        self.budget = budget
        self.rank = rank
        self.ridge = ridge
        self.seed = seed

    def fit(self, X, y):
        X = check_array(X)
        y = np.asarray(y)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be a length-n label vector")
        self.classes_ = np.unique(y)
        index = {label: k + 1 for k, label in enumerate(self.classes_)}
        codes = np.array([index[label] for label in y], dtype=int)
        return self._fit(X, codes, n_classes=len(self.classes_))

    def decision_function(self, X):
        self._check_fitted()
        return self.model_.predict_batch(check_array(X))

    def predict(self, X):
        codes = surrogate.decode_batch(self.decision_function(X))
        return self.classes_[codes - 1]
