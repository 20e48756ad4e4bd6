"""Classification through regression on the simplex embedding.

Classes 1..m are embedded as the canonical basis vectors of R^m; a
vector-valued model g is trained under the absolute-deviation loss and
decoded by argmax. The pointwise minimizer of E||g - e_Y|| is the weighted
geometric median of the basis vectors, whose argmax matches the argmax of
the class probabilities, so the decoding is consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import geometric_median
from .kernel import KernelModel
from .learner import StepSchedule, TrainReport, _descend, _prepare
from .learner import run_median_sgd  # noqa: F401  kept: perfbench/layers.py wraps this site
from .oracle import QueryOracle


def encode(y: int, n_classes: int) -> np.ndarray:
    """Basis-vector embedding of class y in {1, ..., n_classes}."""
    if not 1 <= y <= n_classes:
        raise ValueError(f"class {y} outside 1..{n_classes}")
    e = np.zeros(n_classes)
    e[y - 1] = 1.0
    return e


def encode_batch(classes, n_classes: int) -> np.ndarray:
    c = np.asarray(classes, dtype=int)
    if ((c < 1) | (c > n_classes)).any():
        raise ValueError(f"class indices must lie in 1..{n_classes}")
    out = np.zeros((c.size, n_classes))
    out[np.arange(c.size), c - 1] = 1.0
    return out


def decode(g) -> int:
    """Class decoded from a score vector: smallest index attaining the max (1-based)."""
    g = np.asarray(g, dtype=float).ravel()
    if g.size < 1:
        raise ValueError("cannot decode an empty score vector")
    return int(np.argmax(g)) + 1


def decode_batch(G) -> np.ndarray:
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[1] < 1:
        raise ValueError("expected an (n, m) score array")
    return np.argmax(G, axis=1) + 1


def random_proper_subset(rng: np.random.Generator, n_classes: int) -> frozenset:
    """Random class subset with each class an independent fair coin flip,
    redrawn until the set is neither empty nor everything."""
    if n_classes < 2:
        raise ValueError("need at least two classes to form a proper subset")
    while True:
        members = rng.integers(0, 2, n_classes).nonzero()[0]
        if 0 < members.size < n_classes:
            return frozenset((members + 1).tolist())


def infimum_loss_sgd(
    X,
    oracle: QueryOracle,
    schedule: StepSchedule,
    model: KernelModel,
    rng: np.random.Generator,
    checkpoint_grid=None,
    evaluate=None,
    indices=None,
    set_generator=None,
) -> TrainReport:
    """Best-case-loss SGD from one membership bit per step.

    Per step: draw a proper random set S, learn the bit 1{Y in S}, restrict
    to S when the bit is 1 and to its complement otherwise, pick
    y* = argmax_{y in set} g(x)_y, and descend along
    (g(x) - e_{y*}) / ||g(x) - e_{y*}|| (no-op at the kink g(x) = e_{y*}).
    """
    make_set = set_generator if set_generator is not None else random_proper_subset
    used, steps, grid, K = _prepare(X, model, oracle.budget_remaining, checkpoint_grid, indices)
    m = model.output_dim
    a = model.coefficients
    query = oracle.membership_query
    classes = frozenset(range(1, m + 1))

    def rule(s, kcol, gamma):
        S = frozenset(make_set(rng, m))
        inside = query(int(used[s]), S)
        order = np.array(sorted(S if inside else classes - S)) - 1  # 0-based candidates
        r = kcol.dot(a)
        r[order[r[order].argmax()]] -= 1.0  # y*: the smallest class attaining the max
        nr = float(np.sqrt(r.dot(r)))
        return (-gamma, r / nr) if nr > 0.0 else None

    return _descend(model, K, schedule, grid, evaluate, rule, steps)


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
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("p must be a nonempty probability vector")
    if (p < 0).any() or abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("p must be nonnegative and sum to 1")
    m = p.size
    theta = geometric_median(np.eye(m), p, tol=min(tol, 1e-8))
    violations = []
    for y in range(m):
        for z in range(m):
            if p[y] > p[z] + tol and theta[y] < theta[z] - tol:
                violations.append((y + 1, z + 1))
    decoded = decode(theta)
    top = tuple(int(j) + 1 for j in np.flatnonzero(p >= p.max() - tol))
    ok = not violations and decoded in top
    return OrderingReport(theta, decoded, top, tuple(violations), ok)
