"""Gaussian-kernel vector-valued models with a low-rank representer
parameterization.

A model is ``f(x)_j = sum_i a_ij k(x, x_i)`` for a fixed set of representer
inputs ``x_i`` (a random subset of the training inputs) and a coefficient
matrix ``a`` of shape (rank, output_dim). Predictions are linear in ``a``,
which is what makes the single-bit gradient updates exact:
``d <f(x), u> / d a_ij = u_j k(x, x_i)``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

# The package's one block size, read here by every module when it runs: rows
# of a kernel block built at a time, 512 x rank floats (0.4 MB at rank 100), so
# memory does not grow with the row count; training and the generators draw a
# block at a time too. 256-row blocks lowered the estimator benchmark's peak
# RSS by only 0.25 MB more, for twice the block calls
CHUNK_ROWS = 512


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth of the Gaussian kernel, the only kernel supported, for which
    k(x, x) = 1 (so the feature-map norm bound is exactly 1)."""

    bandwidth: float

    def __post_init__(self):
        # the kernel divides by 2 sigma^2, computed as kernel_matrix does; a
        # float bandwidth overflows it above about 1e154 (Python's ** raises
        # there) and underflows it to 0 below about 1e-162
        try:
            two_var = 2.0 * self.bandwidth**2
        except OverflowError:
            two_var = np.inf
        if not (self.bandwidth > 0 and 0 < two_var < np.inf):
            raise ValueError(f"bandwidth must be finite and > 0, with 2 * bandwidth**2 "
                             f"finite and > 0, got {self.bandwidth}")


def _as_rows(X) -> np.ndarray:
    """``X`` as a 2-D float array of rows: a 1-D array becomes one column.
    The shape rule for inputs and for real label matrices alike."""
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


def _unfit_rows(X: np.ndarray) -> str | None:
    """Why the rows of ``X`` cannot be kernel inputs, or None when they can:
    a value that is not finite, or a squared norm xx for which 4 xx
    overflows. Below that bound xx + zz and 2 x.z stay finite for any two
    such rows, so a squared distance xx + zz - 2 x.z is never inf - inf."""
    if 4.0 * float(np.max(np.einsum("ij,ij->i", X, X), initial=0.0)) < np.inf:
        return None
    if not np.isfinite(X).all():
        return "non-finite values"
    return "a row whose squared norm is too large (4 * ||x||^2 overflows)"


def kernel_matrix(spec: KernelSpec, X, Z, out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """Gram block k(X_i, Z_j) as an (n, p) array, written into ``out``.

    ``scratch``, a C-contiguous (n, p) float array, holds the product
    2 X Z^T on the way. A caller that builds block after block passes the
    same two buffers each time, so no block-sized array is allocated; a
    buffer left out is allocated here. The block has the rounding of
    ``exp(-max(xx_i + zz_j - 2 X Z^T, 0) / (2 sigma^2))``: doubling is
    exact, so (2 X) Z^T is 2 (X Z^T) bit for bit; xx_i filled into a row and
    zz_j added is the same IEEE sum as one broadcast add; and -x / c is
    x / (-c). The product is ``np.dot`` for every feature count: it gives
    the bits of ``@``, which with one feature costs about 2.5 times as much.
    """
    X = _as_rows(X)
    Z = _as_rows(Z)
    if X.shape[1] != Z.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Z.shape[1]}")
    shape = (X.shape[0], Z.shape[0])
    d2 = np.empty(shape) if out is None else out
    np.copyto(d2, (X * X).sum(axis=1)[:, None])
    d2 += (Z * Z).sum(axis=1)
    d2 -= np.dot(X * 2.0, Z.T, out=np.empty(shape) if scratch is None else scratch)
    np.maximum(d2, 0.0, out=d2)
    # a tiny bandwidth overflows the quotient to -inf, whose exp is the right 0
    with np.errstate(over="ignore"):
        np.divide(d2, -2.0 * spec.bandwidth**2, out=d2)
    return np.exp(d2, out=d2)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


@dataclass(frozen=True)
class PinnedBlock:
    """Kernel block of a fixed point set against fixed representers, kept
    with read-only copies of both and the spec it was built with."""

    points: np.ndarray
    representers: np.ndarray
    spec: KernelSpec
    block: np.ndarray

    def matches(self, points: np.ndarray, representers: np.ndarray, spec: KernelSpec) -> bool:
        """True when all three inputs equal the block's own, bit for bit."""
        return (spec == self.spec and _same_bits(points, self.points)
                and _same_bits(representers, self.representers))


@dataclass
class KernelModel:
    """Low-rank kernel predictor with coefficients of shape (rank, output_dim).

    Instances are mutated in place by the gradient steps; one model per
    training run. ``pinned`` holds the kernel block of the run's evaluation
    points (see :meth:`pin_points`); coefficient snapshots share it.
    """

    representers: np.ndarray
    coefficients: np.ndarray
    spec: KernelSpec
    ridge: float = 0.0
    pinned: PinnedBlock | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.representers = _as_rows(self.representers)
        self.coefficients = self._checked(np.ascontiguousarray(self.coefficients, dtype=float))
        if self.representers.shape[0] < 1:
            raise ValueError("need at least one representer")
        unfit = _unfit_rows(self.representers)
        if unfit:
            raise ValueError(f"representers contain {unfit}")
        if not 0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")

    @classmethod
    def zeros(cls, representers, output_dim: int, spec: KernelSpec, ridge: float = 0.0):
        reps = _as_rows(representers)
        return cls(reps, np.zeros((reps.shape[0], int(output_dim))), spec, ridge)

    @property
    def rank(self) -> int:
        return self.representers.shape[0]

    @property
    def output_dim(self) -> int:
        return self.coefficients.shape[1]

    def predict_batch(self, X) -> np.ndarray:
        """Predictions at the rows of ``X``, built and multiplied in blocks of
        ``CHUNK_ROWS`` rows, so at most one block of kernel values is held."""
        X = _as_rows(X)
        n = X.shape[0]
        pin = self.pinned
        pinned = pin is not None and pin.matches(X, self.representers, self.spec)
        # every block is built into one buffer and one scratch buffer, whose
        # pages are reused rather than faulted in afresh for each block
        if not pinned:
            buf, scratch = np.empty((2, min(n, CHUNK_ROWS), self.rank))
        out = np.empty((n, self.output_dim))
        for lo in range(0, n, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, n)
            K = (pin.block[lo:hi] if pinned else
                 kernel_matrix(self.spec, X[lo:hi], self.representers, out=buf[:hi - lo],
                               scratch=scratch[:hi - lo]))
            out[lo:hi] = K @ self.coefficients
        return out

    def pin_points(self, X) -> None:
        """Build the kernel block of the points ``X`` once, for every later
        :meth:`predict_batch` of the same points.

        The block is built in the same blocks of ``CHUNK_ROWS`` rows that
        :meth:`predict_batch` multiplies. It is used only while the points, the
        representers and the spec all equal those it was built from; otherwise
        a fresh block is built, so predictions are the same bits either way.
        """
        X = _as_rows(X).copy()
        reps = self.representers.copy()
        n = X.shape[0]
        block = np.empty((n, reps.shape[0]))
        scratch = np.empty((min(n, CHUNK_ROWS), reps.shape[0]))
        for lo in range(0, n, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, n)
            kernel_matrix(self.spec, X[lo:hi], reps, out=block[lo:hi], scratch=scratch[:hi - lo])
        for arr in (X, reps, block):
            arr.flags.writeable = False
        self.pinned = PinnedBlock(X, reps, self.spec, block)

    def _checked(self, coefficients: np.ndarray) -> np.ndarray:
        """``coefficients`` after checking that they hold one row per representer."""
        if coefficients.ndim != 2:
            raise ValueError("coefficients must be a 2-D (rank, output_dim) array")
        if coefficients.shape[0] != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} representers, "
                             f"{coefficients.shape[0]} coefficient rows")
        return coefficients

    def with_coefficients(self, coefficients: np.ndarray) -> "KernelModel":
        """A model with its own float copy of these coefficients, checked, that
        shares this checked model's representers, spec, ridge and pinned block."""
        snap = copy.copy(self)
        snap.coefficients = self._checked(np.array(coefficients, dtype=float, order="C"))
        return snap


def nystrom_representers(X, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random subset of the inputs, without replacement, as representers."""
    X = _as_rows(X)
    n = X.shape[0]
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank >= n:
        return X.copy()
    idx = rng.choice(n, size=rank, replace=False)
    return X[np.sort(idx)].copy()

