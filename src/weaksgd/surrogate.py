"""Classification through regression on the simplex embedding.

Classes 1..m are embedded as the canonical basis vectors of R^m; a
vector-valued model g is trained under the absolute-deviation loss and
decoded by argmax. The pointwise minimizer of E||g - e_Y|| is the weighted
geometric median of the basis vectors, whose argmax matches the argmax of
the class probabilities, so the decoding is consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .game import class_distribution
from .geometry import geometric_median
from .learner import StepSchedule, TrainReport, _descend, _prepare
from .learner import run_median_sgd  # noqa: F401  kept: perfbench/layers.py wraps this site
from .oracle import QueryOracle


def decode_batch(G) -> np.ndarray:
    """Class of each score row: the smallest index attaining its max (1-based)."""
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[1] < 1:
        raise ValueError("expected an (n, m) score array")
    return np.argmax(G, axis=1) + 1


def random_proper_subsets(rng: np.random.Generator, n_classes: int, count: int) -> np.ndarray:
    """``count`` random class sets, as the rows of a (count, n_classes) bool
    array: each class is an independent fair coin flip, and a row that is
    empty or full is dropped and drawn again.

    The rows are drawn in blocks of at most ``kernel.CHUNK_ROWS``, each asking only
    for the rows still missing. A fair int64 coin is one 32-bit draw that the
    sampler never rejects, so the blocks read the generator exactly as one
    ``rng.integers(0, 2, n_classes)`` per row, redrawn until proper, would.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes to form a proper subset")
    sets = np.empty((count, n_classes), dtype=bool)
    filled = 0
    while filled < count:
        block = rng.integers(0, 2, (min(count - filled, kernel.CHUNK_ROWS), n_classes)) > 0
        size = np.count_nonzero(block, axis=1)
        block = block[(size > 0) & (size < n_classes)]
        sets[filled:filled + len(block)] = block
        filled += len(block)
    return sets


def infimum_loss_sgd(
    X,
    oracle: QueryOracle,
    schedule: StepSchedule,
    model: kernel.KernelModel,
    rng: np.random.Generator,
    checkpoint_grid=None,
    evaluate=None,
    indices=None,
) -> TrainReport:
    """Best-case-loss SGD from one membership bit per step.

    Every step's proper random set S is drawn with the rest of its block of
    steps, before the block's first step. Per step: learn the bit 1{Y in S},
    restrict to S when the bit is 1 and to its complement otherwise, pick
    y* = argmax_{y in set} g(x)_y, and descend along
    (g(x) - e_{y*}) / ||g(x) - e_{y*}|| (no-op at the kink g(x) = e_{y*}).
    ``indices`` is None, which walks the rows of X once, or ``Cycle(n, steps)``.
    """
    X, used, grid = _prepare(X, oracle.budget_remaining, checkpoint_grid, indices,
                             (oracle.n_samples,))
    m = model.output_dim
    sets, base = None, 0  # the class sets of the block that starts at step base

    def draw(lo, hi):
        nonlocal sets, base
        sets, base = random_proper_subsets(rng, m, hi - lo), lo

    a = model.coefficients
    query = oracle.membership_query
    ids = np.arange(1, m + 1)

    def rule(s, i, kcol, gamma):
        row = sets[s - base]
        if not query(i, ids[row].tolist()):
            row = ~row  # the complement holds the class
        cand = row.nonzero()[0]  # 0-based candidates, ascending
        r = kcol.dot(a)
        r[cand[r[cand].argmax()]] -= 1.0  # y*: the smallest class attaining the max
        nr = math.sqrt(r.dot(r))
        return (-gamma, r / nr) if nr > 0.0 else None

    return _descend(model, X, used, schedule, grid, evaluate, rule, len(used), draw=draw)


@dataclass(frozen=True)
class OrderingReport:
    """Outcome of the class-ordering check on the surrogate target."""

    median: np.ndarray
    decoded: int
    top_classes: tuple
    violations: tuple
    ok: bool


def surrogate_target_check(p, tol: float = 1e-8) -> OrderingReport:
    """Verify the surrogate target for class distribution ``p``.

    Computes the geometric median of the basis vectors weighted by ``p`` and
    checks (a) p_y > p_z + tol implies median_y >= median_z - tol, and
    (b) the decoded class attains max p.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    p = class_distribution(p)
    m = p.size
    theta = geometric_median(np.eye(m), p, tol=min(tol, 1e-8))
    violations = []
    for y in range(m):
        for z in range(m):
            if p[y] > p[z] + tol and theta[y] < theta[z] - tol:
                violations.append((y + 1, z + 1))
    decoded = int(decode_batch(theta[None])[0])
    top = tuple(int(j) + 1 for j in np.flatnonzero(p >= p.max() - tol))
    ok = not violations and decoded in top
    return OrderingReport(theta, decoded, top, tuple(violations), ok)
