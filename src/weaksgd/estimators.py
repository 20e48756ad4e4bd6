"""Estimator front-end with the familiar fit/predict surface.

The estimators own the full simulation: ``fit(X, y)`` hides the labels
behind a budgeted :class:`~weaksgd.oracle.QueryOracle`, trains with the
chosen single-bit strategy, and keeps the averaged model for prediction.
``get_params``/``set_params`` follow the scikit-learn convention so the
estimators drop into pipelines and grid searches.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import experiments, surrogate
from .kernel import (KernelModel, KernelSpec, _as_rows, _label_rows, _unfit_rows,
                     nystrom_representers)
from .learner import StepSchedule


class NotFittedError(RuntimeError):
    """predict was called before fit."""


def check_array(X) -> np.ndarray:
    X = _as_rows(X)
    if X.shape[0] < 1:
        raise ValueError("X must be a nonempty 2-D array")
    unfit = _unfit_rows(X)
    if unfit:
        raise ValueError(f"X contains {unfit}")
    return X


@dataclass(eq=False)  # eq=False: identity equality and hashing, as scikit-learn's
class _BaseWeakSGD:
    """Shared settings and fit; each subclass adds its own fields after these, and
    scikit-learn's get_params/set_params read the fields."""

    strategy: str = "active-median"
    bandwidth: float = 1.0
    gamma0: float = 1.0
    schedule: str = "decaying"
    budget: int | None = None
    rank: int = 100
    ridge: float = 0.0

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params):
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def _fit(self, X, labels, n_classes=None, bound: float = 1.0):
        """Train through :func:`experiments.train`, which resolves an alias and
        refuses a strategy name outside the task kind and labels whose row count
        is not ``X``'s before any bit, and a diverged fit (an averaged model
        that is not finite) once training ends."""
        budget = self.budget if self.budget is not None else X.shape[0]
        schedule = StepSchedule(self.schedule, self.gamma0, self.ridge)
        spec = KernelSpec(self.bandwidth)
        rng = np.random.default_rng(self.seed)  # a Generator seed passes through as is
        reps = nystrom_representers(X, self.rank, rng)
        output_dim = labels.shape[1] if n_classes is None else n_classes
        model = KernelModel.zeros(reps, output_dim, spec)
        report = experiments.train(self.strategy, X, labels, model, schedule, rng, budget,
                                   n_classes, bound)
        self.model_ = report.averaged_model
        self.final_model_ = report.final_model
        self.n_queries_ = report.queries_used
        self.n_features_in_ = X.shape[1]
        return self

    def _check_fitted(self):
        if getattr(self, "model_", None) is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted yet")


@dataclass(eq=False)
class WeakSGDRegressor(_BaseWeakSGD):
    """Kernel regressor trained from one label bit per gradient step.

    Strategies (the names of ``weaksgd run``; the aliases in
    :data:`weaksgd.experiments.ALIASES` work too):

    * ``"active-median"``: half-space signs at the current prediction;
    * ``"active-least-squares"``: random-threshold bits; needs the range bound;
    * ``"passive"``: blind N(0,1) thresholds, scalar targets only;
    * ``"full-sgd"``: plain subgradient descent on the labels, no query bits
      spent.

    Every strategy takes ``budget`` steps; a budget larger than n re-queries
    the data cyclically.
    """

    bound: float = 1.0
    seed: int = 0

    def fit(self, X, y):
        X = check_array(X)
        Y = _label_rows(y)
        self._y_was_1d = np.ndim(y) == 1
        return self._fit(X, Y, bound=self.bound)

    def predict(self, X):
        self._check_fitted()
        preds = self.model_.predict_batch(check_array(X))
        return preds[:, 0] if self._y_was_1d else preds


@dataclass(eq=False)
class WeakSGDClassifier(_BaseWeakSGD):
    """Classifier trained through the simplex-embedding regression surrogate.

    Strategies (the names of ``weaksgd run``; the aliases in
    :data:`weaksgd.experiments.ALIASES` work too):

    * ``"active-median"``: sphere-uniform half-space queries;
    * ``"coordinate-passive"``: basis-vector queries, one class per bit;
    * ``"infimum-loss"``: random-set membership bits with best-case gradients.

    Labels may be arbitrary sortable values; they are mapped onto classes 1..m.
    """

    seed: int = 0

    def fit(self, X, y):
        X = check_array(X)
        y = np.asarray(y)
        if y.ndim != 1:
            raise ValueError("y must be a length-n label vector")
        if y.dtype.kind in "fc" and not np.isfinite(y).all():
            raise ValueError("y contains non-finite values")
        self.classes_, codes = np.unique(y, return_inverse=True)
        return self._fit(X, codes + 1, n_classes=len(self.classes_))

    def decision_function(self, X):
        self._check_fitted()
        return self.model_.predict_batch(check_array(X))

    def predict(self, X):
        codes = surrogate.decode_batch(self.decision_function(X))
        return self.classes_[codes - 1]
