"""Gaussian-kernel vector-valued models with a low-rank representer
parameterization.

A model is ``f(x)_j = sum_i a_ij k(x, x_i)`` for a fixed set of representer
inputs ``x_i`` (a random subset of the training inputs) and a coefficient
matrix ``a`` of shape (rank, output_dim). Predictions are linear in ``a``,
which is what makes the single-bit gradient updates exact:
``d <f(x), u> / d a_ij = u_j k(x, x_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and bandwidth. Only the Gaussian kernel is supported,
    for which k(x, x) = 1 (so the feature-map norm bound is exactly 1)."""

    bandwidth: float
    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind != "gaussian":
            raise ValueError(f"unsupported kernel kind {self.kind!r}")
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")


def _as_points(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D input array, got shape {X.shape}")
    return X


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)); symmetric, in (0, 1]."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    d2 = float(((x - y) ** 2).sum())
    return float(np.exp(-d2 / (2.0 * spec.bandwidth**2)))


def kernel_matrix(spec: KernelSpec, X, Z) -> np.ndarray:
    """Gram block k(X_i, Z_j) as an (n, p) array."""
    X = _as_points(X)
    Z = _as_points(Z)
    if X.shape[1] != Z.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Z.shape[1]}")
    # built in place, one extra block at a time, with the rounding of
    # exp(-max(xx + zz - 2 X Z^T, 0) / (2 sigma^2))
    d2 = (X * X).sum(axis=1)[:, None] + (Z * Z).sum(axis=1)[None, :]
    xz = X @ Z.T
    xz *= 2.0
    d2 -= xz
    del xz
    np.maximum(d2, 0.0, out=d2)
    np.negative(d2, out=d2)
    d2 /= 2.0 * spec.bandwidth**2
    return np.exp(d2, out=d2)


@dataclass
class KernelModel:
    """Low-rank kernel predictor with coefficients of shape (rank, output_dim).

    Instances are mutated in place by the gradient steps; one model per
    training run.
    """

    representers: np.ndarray
    coefficients: np.ndarray
    spec: KernelSpec
    ridge: float = 0.0

    def __post_init__(self):
        self.representers = _as_points(self.representers)
        self.coefficients = np.ascontiguousarray(self.coefficients, dtype=float)
        if self.coefficients.ndim != 2:
            raise ValueError("coefficients must be a 2-D (rank, output_dim) array")
        if self.representers.shape[0] != self.coefficients.shape[0]:
            raise ValueError(
                f"rank mismatch: {self.representers.shape[0]} representers, "
                f"{self.coefficients.shape[0]} coefficient rows"
            )
        if self.representers.shape[0] < 1:
            raise ValueError("need at least one representer")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")

    @classmethod
    def zeros(cls, representers, output_dim: int, spec: KernelSpec, ridge: float = 0.0):
        reps = _as_points(representers)
        return cls(reps, np.zeros((reps.shape[0], int(output_dim))), spec, ridge)

    @property
    def rank(self) -> int:
        return self.representers.shape[0]

    @property
    def output_dim(self) -> int:
        return self.coefficients.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.representers.shape[1]

    def kernel_column(self, x) -> np.ndarray:
        """Vector (k(x, x_i))_i used by prediction and by the gradient steps."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.feature_dim:
            raise ValueError(f"expected input of dimension {self.feature_dim}, got {x.size}")
        d2 = ((self.representers - x) ** 2).sum(axis=1)
        return np.exp(-d2 / (2.0 * self.spec.bandwidth**2))

    def predict(self, x) -> np.ndarray:
        return self.kernel_column(x) @ self.coefficients

    def predict_batch(self, X) -> np.ndarray:
        return kernel_matrix(self.spec, X, self.representers) @ self.coefficients

    def copy(self) -> "KernelModel":
        return KernelModel(
            self.representers.copy(), self.coefficients.copy(), self.spec, self.ridge
        )

    def with_coefficients(self, coefficients: np.ndarray) -> "KernelModel":
        return KernelModel(self.representers, np.array(coefficients, dtype=float), self.spec, self.ridge)


def nystrom_representers(X, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random subset of the inputs, without replacement, as representers."""
    X = _as_points(X)
    n = X.shape[0]
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank >= n:
        return X.copy()
    idx = rng.choice(n, size=rank, replace=False)
    return X[np.sort(idx)].copy()


_CHECKPOINT_HEADER = "weaksgd-kernel-model 1"


def save_model(model: KernelModel, path) -> None:
    """Write a textual checkpoint; floats use shortest round-trip repr, so a
    load restores the model bit for bit. Layout::

        weaksgd-kernel-model 1
        rank <p>
        output_dim <m>
        feature_dim <d>
        bandwidth <float>
        ridge <float>
        representers
        <d floats per line, p lines>
        coefficients
        <m floats per line, p lines>
    """
    lines = [
        _CHECKPOINT_HEADER,
        f"rank {model.rank}",
        f"output_dim {model.output_dim}",
        f"feature_dim {model.feature_dim}",
        f"bandwidth {float(model.spec.bandwidth)!r}",
        f"ridge {float(model.ridge)!r}",
        "representers",
    ]
    lines += [" ".join(repr(float(v)) for v in row) for row in model.representers]
    lines.append("coefficients")
    lines += [" ".join(repr(float(v)) for v in row) for row in model.coefficients]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> KernelModel:
    """Read a checkpoint written by :func:`save_model`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _CHECKPOINT_HEADER:
        raise ValueError(f"{path}: not a kernel model checkpoint")

    def _field(i, name):
        key, _, val = lines[i].partition(" ")
        if key != name:
            raise ValueError(f"{path}: expected field {name!r}, got {lines[i]!r}")
        return val

    p = int(_field(1, "rank"))
    m = int(_field(2, "output_dim"))
    d = int(_field(3, "feature_dim"))
    bandwidth = float(_field(4, "bandwidth"))
    ridge = float(_field(5, "ridge"))
    if lines[6] != "representers":
        raise ValueError(f"{path}: malformed checkpoint")
    reps = np.array([[float(v) for v in lines[7 + i].split()] for i in range(p)])
    if lines[7 + p] != "coefficients":
        raise ValueError(f"{path}: malformed checkpoint")
    coef = np.array([[float(v) for v in lines[8 + p + i].split()] for i in range(p)])
    reps = reps.reshape(p, d)
    coef = coef.reshape(p, m)
    return KernelModel(reps, coef, KernelSpec(bandwidth), ridge)
