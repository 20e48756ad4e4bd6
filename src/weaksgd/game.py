"""Zero-sum matrix game between a set-query player and a prediction player.

The query player (rows, maximizer) picks a class subset S; the prediction
player (columns, minimizer) picks a class vertex y. The payoff row for S is
-(2 P(Y in S) - 1) times the +/-1 membership pattern of S, so under low
noise (max_y p_y > 1/2) the prediction player's optimum collapses onto the
most probable class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _check_tol
from .kernel import _whole

LP_ITERATIONS = 100_000  # the simplex step cap of each solve


class GameSolveError(RuntimeError):
    """Equilibrium solve failed or missed the requested certificate."""


@dataclass(frozen=True)
class MatrixGame:
    """Payoff matrix with row strategies maximizing, column strategies minimizing."""

    payoff: np.ndarray

    def __post_init__(self):
        payoff = np.asarray(self.payoff, dtype=float)
        if payoff.ndim != 2 or payoff.size == 0:
            raise ValueError("payoff must be a nonempty 2-D matrix")
        if not np.isfinite(payoff).all():
            raise ValueError("payoff entries must be finite")
        object.__setattr__(self, "payoff", payoff)


@dataclass(frozen=True)
class GameSolution:
    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    duality_gap: float


def class_distribution(p) -> np.ndarray:
    """``p`` as a float vector, checked to be a class distribution: nonempty,
    1-D, nonnegative and summing to 1 within 1e-9."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("p must be a nonempty probability vector")
    if not ((p >= 0).all() and abs(float(p.sum()) - 1.0) <= 1e-9):  # NaN fails too
        raise ValueError("p must be nonnegative and sum to 1")
    return p


def build_game(p, family) -> MatrixGame:
    """Payoff matrix for class distribution ``p`` and query family ``family``.

    Entry (S, y) = -(2 P(Y in S) - 1) * (+1 if y in S else -1). Rows with
    P(Y in S) = 1/2 vanish identically.
    """
    p = class_distribution(p)
    m = p.size
    sets = []
    for S in family:
        S = frozenset(_whole(s, "class") for s in S)
        if any(s < 1 or s > m for s in S):
            raise ValueError(f"set {sorted(S)} mentions classes outside 1..{m}")
        if len(S) == 0 or len(S) == m:
            raise ValueError("query family must contain proper nonempty sets only")
        sets.append(S)
    if not sets:
        raise ValueError("query family must be nonempty")
    payoff = np.empty((len(sets), m))
    for r, S in enumerate(sets):
        margin = 2.0 * float(p[[s - 1 for s in S]].sum()) - 1.0
        pattern = np.array([1.0 if y in S else -1.0 for y in range(1, m + 1)])
        payoff[r] = -margin * pattern
    return MatrixGame(payoff)


def solve_game(game: MatrixGame, tol: float = 1e-6) -> GameSolution:
    """Equilibrium of the zero-sum game, certified by the duality gap.

    Solves the prediction player's linear program over (v, t): min t subject
    to A v <= t, sum v = 1, v >= 0. The duals of its k payoff rows are the
    query player's strategy (dual feasibility for the free t makes them sum
    to 1). The certificate max_row (A v*) - min_col (mu*^T A) <= 2 * tol
    checks both strategies; a larger gap raises :class:`GameSolveError`
    naming the gap. HiGHS stops after :data:`LP_ITERATIONS` simplex steps.
    """
    _check_tol(tol)
    from scipy.optimize import linprog  # on first solve: only the game needs scipy (0.5 s import)

    A = game.payoff
    k, m = A.shape
    c = np.zeros(m + 1)
    c[-1] = 1.0
    res = linprog(
        c,
        A_ub=np.hstack([A, -np.ones((k, 1))]),
        b_ub=np.zeros(k),
        A_eq=np.hstack([np.ones((1, m)), np.zeros((1, 1))]),
        b_eq=np.ones(1),
        bounds=[(0, None)] * m + [(None, None)],
        method="highs",
        options={"maxiter": LP_ITERATIONS},
    )
    if not res.success:
        raise GameSolveError(f"linear program failed: {res.message}")
    v = np.maximum(res.x[:m], 0.0)
    mu = np.maximum(-res.ineqlin.marginals, 0.0)
    col_strategy, row_strategy = v / v.sum(), mu / mu.sum()
    gap = float((A @ col_strategy).max() - (row_strategy @ A).min())
    if gap > 2.0 * tol:
        raise GameSolveError(
            f"duality gap {gap:.3e} exceeds certificate 2*tol = {2.0 * tol:.3e}")
    return GameSolution(float(res.x[-1]), row_strategy, col_strategy, gap)


def singleton_family(n_classes: int) -> list[frozenset]:
    return [frozenset({y}) for y in range(1, n_classes + 1)]
