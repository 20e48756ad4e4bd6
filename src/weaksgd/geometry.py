"""Sphere sampling, bit-measurement normalizing constants, and a weighted
geometric-median solver.

The single-bit learning updates in this package rely on two reconstruction
identities for ``U`` uniform on the unit sphere of R^m:

* ``E[sign(<z, U>) U] = c2(m) * z`` for unit ``z``,
* ``E[1{<z, U> >= V} U] = c1(m, M) * z`` for ``||z|| <= 2M`` and ``V``
  uniform on ``[0, 2M]``.

Both constants have closed forms (:func:`c2_constant`, :func:`c1_constant`)
and both are arbitrated by Monte Carlo (:func:`estimate_constant_mc`,
:func:`estimate_reconstruction_mc`): the ``constants`` CLI command fails
loudly whenever closed form and simulation disagree beyond four standard
errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _whole

# float budget per Monte Carlo chunk; keeps peak memory flat for large n
_CHUNK_FLOATS = 4_000_000
WEISZFELD_STEPS = 100_000  # the iteration cap of geometric_median


class WeiszfeldNonConvergence(RuntimeError):
    """Geometric-median iteration exhausted its step cap.

    Carries the last iterate so callers can inspect how far the solve got.
    """

    def __init__(self, last_iterate: np.ndarray, displacement: float):
        super().__init__(
            f"geometric median did not converge within {WEISZFELD_STEPS} iterations "
            f"(last displacement {displacement:.3e})"
        )
        self.last_iterate = last_iterate


def sample_sphere(rng: np.random.Generator, m: int) -> np.ndarray:
    """Draw one point uniformly on the unit sphere S^{m-1}.

    Normalized i.i.d. standard normals: exactly rotation invariant, no
    rejection step. For m = 1 the output is one of (+1,), (-1,).
    """
    return sample_sphere_batch(rng, m, 1)[0]


def _normals(rng: np.random.Generator, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` standard normal rows of length ``m`` and their norms, none zero.

    Dividing a row by its norm gives a uniform sphere point; a caller that
    needs only some coordinates divides only those, with the same bits.
    """
    m = _whole(m, "dimension", 1)
    n = _whole(n, "sample count")
    g = rng.standard_normal((n, m))
    norms = np.linalg.norm(g, axis=1)
    bad = norms == 0.0
    while bad.any():  # probability ~0 event, but normalization must stay total
        g[bad] = rng.standard_normal((int(bad.sum()), m))
        norms[bad] = np.linalg.norm(g[bad], axis=1)
        bad = norms == 0.0
    return g, norms


def sample_sphere_batch(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Draw ``n`` independent uniform sphere points as an (n, m) array."""
    g, norms = _normals(rng, m, n)
    return g / norms[:, None]


def c2_constant(m: int) -> float:
    """Normalizer in E[sign(<z, U>) U] = c2 z for unit z, U uniform on S^{m-1}.

    Equals E|U_1| = Gamma(m/2) / (sqrt(pi) Gamma((m+1)/2)); U_1 has density
    proportional to (1 - t^2)^{(m-3)/2} on [-1, 1]. Special values:
    c2(1) = 1, c2(2) = 2/pi, c2(3) = 1/2.
    """
    m = _whole(m, "dimension", 1)
    if m <= 300:  # gamma stays finite; exact at m = 1 where lgamma rounding drifts
        return math.gamma(m / 2.0) / (math.sqrt(math.pi) * math.gamma((m + 1) / 2.0))
    return math.exp(math.lgamma(m / 2.0) - math.lgamma((m + 1) / 2.0)) / math.sqrt(math.pi)


def _check_scale(M: float) -> None:
    """Reject a scale bound M unless M > 0 and 2M, the far end of V's range, is finite."""
    if not 0 < 2.0 * M < math.inf:
        raise ValueError(f"scale bound M must be > 0 with 2M finite, got {M}")


def c1_constant(m: int, M: float) -> float:
    """Normalizer in E[1{<z, U> >= V} U] = c1 z for ||z|| <= 2M.

    U uniform on S^{m-1}, V uniform on [0, 2M]. Conditioning on U gives
    E_V[1{<z, U> >= V}] = max(0, <z, U>)/(2M), and E[U U^T] = I/m, hence
    c1 = 1 / (4 m M). Scale equivariance: c1(m, aM) = c1(m, M)/a.
    """
    m = _whole(m, "dimension", 1)
    _check_scale(M)
    return 1.0 / (4.0 * m * M)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Empirical mean with its standard error."""

    mean: float
    std_error: float

    def agrees_with(self, value: float, n_sigma: float = 4.0) -> bool:
        return abs(self.mean - value) <= n_sigma * self.std_error + 1e-12


def _iter_chunks(n: int, m: int):
    chunk = max(1, _CHUNK_FLOATS // max(m, 1))
    done = 0
    while done < n:
        take = min(chunk, n - done)
        done += take
        yield take


def _check_kind(kind: str, M: float | None) -> None:
    """Reject an unknown kind, and an M that does not fit the kind."""
    if kind == "median":
        if M is not None:
            raise ValueError("median kind takes no scale bound M")
    elif kind == "least-squares":
        if M is None:
            raise ValueError("least-squares kind requires the scale bound M")
        _check_scale(M)
    else:
        raise ValueError(f"unknown kind {kind!r}")


def estimate_constant_mc(
    rng: np.random.Generator,
    m: int,
    kind: str,
    n_samples: int,
    M: float | None = None,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of c2 (``kind="median"``) or c1 (``kind="least-squares"``).

    Median kind averages |U_1|; least-squares kind averages
    1{U_1 >= V} U_1 with V uniform on [0, 2M].
    """
    m = _whole(m, "dimension", 1)
    n_samples = _whole(n_samples, "n_samples", 1000)
    _check_kind(kind, M)
    total = 0.0
    total_sq = 0.0
    for take in _iter_chunks(n_samples, m):
        g, norms = _normals(rng, m, take)
        u1 = g[:, 0] / norms  # the first coordinate of the sphere points
        if kind == "median":
            vals = np.abs(u1)
        else:
            v = rng.uniform(0.0, 2.0 * M, take)
            vals = np.where(u1 >= v, u1, 0.0)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return MonteCarloEstimate(mean, math.sqrt(var / n_samples))


def estimate_reconstruction_mc(
    rng: np.random.Generator,
    z: np.ndarray,
    kind: str,
    n_samples: int,
    M: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean of the bit-weighted direction, componentwise.

    Returns ``(mean, std_error)`` arrays of shape (m,) for
    sign(<z, U>) U (median kind) or 1{<z, U> >= V} U (least-squares kind).
    The means should match ``c2_constant(m) * z`` resp. ``c1_constant(m, M) * z``.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < 1:
        raise ValueError("z must be a nonempty 1-D vector")
    m = z.size
    _check_kind(kind, M)
    if kind == "least-squares" and np.linalg.norm(z) > 2.0 * M + 1e-12:
        raise ValueError("reconstruction requires ||z|| <= 2M")
    n_samples = _whole(n_samples, "n_samples", 1)

    total = np.zeros(m)
    total_sq = np.zeros(m)
    for take in _iter_chunks(n_samples, m):
        u = sample_sphere_batch(rng, m, take)
        proj = u @ z
        if kind == "median":
            # the weights are +/-1: they flip signs in the sum, squares are u^2
            total += np.where(proj >= 0.0, 1.0, -1.0) @ u
        else:
            # the weights are 0/1: only the selected rows count
            u = u[proj >= rng.uniform(0.0, 2.0 * M, take)]
            total += u.sum(axis=0)
        u *= u
        total_sq += u.sum(axis=0)
    mean = total / n_samples
    var = np.maximum(total_sq / n_samples - mean * mean, 0.0)
    return mean, np.sqrt(var / n_samples)


def _anchor_force(points: np.ndarray, weights: np.ndarray, a: int) -> tuple[float, float]:
    """Residual pull at anchor ``a``: (force norm from distinct points, weight at the anchor)."""
    diffs = points - points[a]
    dists = np.linalg.norm(diffs, axis=1)
    away = dists > 0.0
    here = float(weights[~away].sum())
    if not away.any():
        return 0.0, here
    force = (weights[away] / dists[away]) @ diffs[away]
    return float(np.linalg.norm(force)), here


def _check_tol(tol: float) -> None:
    """Reject a solver tolerance unless 0 < tol < inf."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def geometric_median(points, weights=None, tol: float = 1e-8) -> np.ndarray:
    """Weighted geometric median: argmin_x sum_i w_i ||x - p_i||.

    Weiszfeld iteration with exact anchor handling: a point p_a is the global
    minimizer iff the residual pull of the other points at p_a has norm at
    most w_a, so every anchor is tested with that certificate first (the
    certificate also resolves configurations sitting exactly on the boundary,
    where the plain iteration only converges sublinearly). When an iterate
    lands within ``tol`` of a non-optimal anchor, the update steps along the
    residual direction instead of dividing by a vanishing distance.

    Raises :class:`WeiszfeldNonConvergence` after :data:`WEISZFELD_STEPS` steps.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k, _ = pts.shape
    if k < 1:
        raise ValueError("need at least one point")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if weights is None:
        w = np.ones(k)
    else:
        w = np.asarray(weights, dtype=float)
    if w.shape != (k,):
        raise ValueError(f"weights must have shape ({k},)")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    wsum = w.sum()
    if wsum <= 0:
        raise ValueError("weights must not all be zero")
    _check_tol(tol)

    # exact optimality certificate at each anchor (covers k == 1 too)
    for a in range(k):
        if w[a] == 0.0:
            continue
        force, here = _anchor_force(pts, w, a)
        if force <= here * (1.0 + 1e-12) + 1e-300:
            return pts[a].copy()

    x = (w @ pts) / wsum
    displacement = math.inf
    for _ in range(WEISZFELD_STEPS):
        diffs = pts - x
        dists = np.linalg.norm(diffs, axis=1)
        near = dists < tol
        if near.any():
            # non-optimal anchor (certificate above already failed): step away
            # along the residual pull instead of dividing by a vanishing distance
            a = int(np.argmin(dists))
            force, here = _anchor_force(pts, w, a)
            if force == 0.0:  # stationary point that the sweep skipped (zero weight)
                return pts[a].copy()
            d_away = np.linalg.norm(pts - pts[a], axis=1)
            away = d_away > 0.0
            coef = w[away] / d_away[away]
            tmap = (coef @ pts[away]) / coef.sum()
            nxt = max(0.0, 1.0 - here / force) * tmap + min(1.0, here / force) * pts[a]
        else:
            coef = w / dists
            nxt = (coef @ pts) / coef.sum()
        displacement = float(np.linalg.norm(nxt - x))
        x = nxt
        if displacement < tol:
            return x
    raise WeiszfeldNonConvergence(x, displacement)


def median_objective(x, points, weights=None) -> float:
    """Weighted absolute-deviation objective sum_i w_i ||x - p_i||."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.ones(len(pts)) if weights is None else np.asarray(weights, dtype=float)
    return float(w @ np.linalg.norm(pts - np.asarray(x, dtype=float), axis=1))
