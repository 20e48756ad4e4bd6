"""Every driver as its docstring states it, one step at a time.

:func:`run` is the plain form of the step loop that the differential property
in ``tests/test_learner.py`` holds each driver to. Per step t it reads the
kernel row k of the step's input, asks the oracle one bit at f(x) = k.a (the
labels, for full-sgd), shrinks the coefficients by 1 - gamma(t) * ridge, with
the schedule's ridge, moves them by one outer product of k with the step's
direction, and adds the iterate to a running sum for the average. It builds the kernel rows, and
draws its randomness with the package's samplers, one block of
``kernel.CHUNK_ROWS`` steps at a time, in the order each driver documents: a block
of one row takes another BLAS path than the same row in a larger block, and
its bits can differ. It has no windows, no slices and no branch for one
output.
"""

import math

import numpy as np

from weaksgd.geometry import sample_sphere_batch
from weaksgd import kernel
from weaksgd.kernel import kernel_matrix
from weaksgd.surrogate import random_proper_subsets

STRATEGIES = ("median", "coordinate", "least-squares", "passive", "full-sgd", "infimum-loss")


def _blocks(steps, build):
    """One row per step, from ``build(lo, hi)`` called for each block of the
    steps lo to hi - 1 in turn."""
    return [row for lo in range(0, steps, kernel.CHUNK_ROWS)
            for row in build(lo, min(lo + kernel.CHUNK_ROWS, steps))]


def run(strategy, X, source, schedule, model, rng, rows, grid, bound):
    """Train a copy of ``model``'s coefficients with ``strategy`` over the
    sample indices ``rows``, one per step. ``source`` is the oracle, or the
    label rows Y for full-sgd; ``bound`` is least squares' bound. Returns the
    last iterate, the average of the iterates and a (t, average after t
    steps) pair for each t in ``grid``."""
    a = model.coefficients.copy()
    m = a.shape[1]
    steps = len(rows)
    K = _blocks(steps, lambda lo, hi: kernel_matrix(model.spec, X[rows[lo:hi]],
                                                    model.representers))
    if strategy == "median" or strategy == "least-squares":
        U = _blocks(steps, lambda lo, hi: sample_sphere_batch(rng, m, hi - lo))
    elif strategy == "coordinate":
        U = _blocks(steps, lambda lo, hi: np.eye(m)[rng.integers(0, m, hi - lo)])
    if strategy == "least-squares":  # V after the whole of U
        V = _blocks(steps, lambda lo, hi: rng.uniform(0.0, 2.0 * bound, hi - lo))
    elif strategy == "passive":
        V = _blocks(steps, lambda lo, hi: rng.standard_normal(hi - lo))
    elif strategy == "infimum-loss":
        sets = _blocks(steps, lambda lo, hi: random_proper_subsets(rng, m, hi - lo))
    total = np.zeros_like(a)
    checkpoints = []
    for t, (i, k) in enumerate(zip(rows, K), start=1):
        s = t - 1
        gamma = schedule.gamma0 / math.sqrt(t) if schedule.kind == "decaying" else schedule.gamma0
        f = k.dot(a)
        kcol = k[:, None]
        sign, direction = 0, None  # the move: a += sign * (kcol * direction) * gamma
        if strategy in ("median", "coordinate"):
            sign, direction = source.halfspace_query(i, f, U[s]), U[s]
        elif strategy == "least-squares":
            sign, direction = -source.threshold_query(i, U[s], float(f.dot(U[s])) - V[s]), U[s]
        elif strategy == "passive":
            v = float(V[s])
            above = 1 - source.threshold_query(i, np.ones(1), v)  # 1{Y > v}
            z = float(f[0])
            sign = 1 if above and z < v else -1 if not above and z > v else 0
            direction = np.ones(1)
        a *= 1.0 - gamma * schedule.ridge
        if strategy == "full-sgd":
            r = f - source[i]
            norm = math.sqrt(r.dot(r))
            if norm > 0.0:
                a -= (kcol * r) * (gamma / norm)
        elif strategy == "infimum-loss":
            held = sets[s]
            if not source.membership_query(i, [c + 1 for c in np.flatnonzero(held)]):
                held = ~held
            candidates = np.flatnonzero(held)
            best = candidates[np.argmax(f[candidates])]  # the smallest class at the max
            r = f - np.eye(m)[best]
            norm = math.sqrt(r.dot(r))
            if norm > 0.0:
                a -= (kcol * (r / norm)) * gamma
        elif sign > 0:
            a += (kcol * direction) * gamma
        elif sign < 0:
            a -= (kcol * direction) * gamma
        total += a
        if t in grid:
            checkpoints.append((t, total / t))
    return a, (total / steps if steps else total), checkpoints
