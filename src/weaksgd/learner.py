"""SGD drivers that learn kernel models from single-bit label queries.

Every driver runs the same step loop (:func:`_descend`): walk the input
sequence, spend one oracle bit per step, apply the matching coefficient step,
and maintain the running average of the iterates (checkpoint risks are
evaluated on that average). A driver draws its randomness up front and
supplies only a *bit rule*: one oracle call, then the step's coefficient and
direction. A driver consumes exactly ``min(budget, len(sequence))`` queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import sample_sphere_batch
from .kernel import KernelModel, kernel_matrix
from .oracle import QueryOracle


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule gamma(t).

    ``constant`` keeps gamma(t) = bound / (kappa * sqrt(horizon)) for every t,
    the horizon-tuned rate; ``decaying`` uses gamma0 / sqrt(t), which needs no
    horizon known in advance.
    """

    kind: str
    gamma0: float | None = None
    horizon: int | None = None
    bound: float | None = None
    kappa: float = 1.0

    def __post_init__(self):
        if self.kind == "decaying":
            if self.gamma0 is None or not self.gamma0 > 0:
                raise ValueError("decaying schedule needs gamma0 > 0")
        elif self.kind == "constant":
            if self.horizon is None or self.horizon < 1:
                raise ValueError("constant schedule needs a horizon >= 1")
            if self.bound is None or not self.bound > 0 or not self.kappa > 0:
                raise ValueError("constant schedule needs bound > 0 and kappa > 0")
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    @classmethod
    def decaying(cls, gamma0: float) -> "StepSchedule":
        return cls(kind="decaying", gamma0=float(gamma0))

    @classmethod
    def constant_for_horizon(cls, bound: float, kappa: float, horizon: int) -> "StepSchedule":
        return cls(kind="constant", horizon=int(horizon), bound=float(bound), kappa=float(kappa))

    @classmethod
    def constant(cls, gamma: float, horizon: int) -> "StepSchedule":
        """Constant schedule pinned directly at step size ``gamma``."""
        if not gamma > 0:
            raise ValueError("gamma must be > 0")
        return cls.constant_for_horizon(gamma * np.sqrt(horizon), 1.0, horizon)

    @classmethod
    def named(cls, kind: str, gamma0: float, horizon: int) -> "StepSchedule":
        """The schedule a run names: ``decaying`` (gamma0 / sqrt(t)) or
        ``constant`` (gamma0 at every step of ``horizon``)."""
        if kind == "decaying":
            return cls.decaying(gamma0)
        if kind == "constant":
            return cls.constant(gamma0, horizon)
        raise ValueError(f"unknown schedule {kind!r}")

    def gamma(self, t: int) -> float:
        if t < 1:
            raise ValueError("steps are 1-based")
        if self.kind == "constant":
            return self.bound / (self.kappa * np.sqrt(self.horizon))
        return self.gamma0 / np.sqrt(t)

    def gammas(self, steps: int) -> np.ndarray:
        """Vector (gamma(1), ..., gamma(steps)), bit for bit what :meth:`gamma` returns."""
        if self.kind == "constant":
            return np.full(steps, self.bound / (self.kappa * np.sqrt(self.horizon)))
        return self.gamma0 / np.sqrt(np.arange(1, steps + 1))


@dataclass
class TrainReport:
    """Outcome of one run: final iterate, averaged iterate, checkpoint risks.

    ``checkpoints`` holds (budget_used, value) pairs where value is the
    ``evaluate`` result on the averaged model, or a coefficient snapshot when
    no evaluator was supplied.
    """

    final_model: KernelModel
    averaged_model: KernelModel
    checkpoints: list
    queries_used: int


def _prepare(X, model: KernelModel, budget: int, checkpoint_grid, indices):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if indices is None:
        indices = np.arange(X.shape[0])
    else:
        indices = np.asarray(indices, dtype=int)
    steps = min(int(budget), len(indices))
    if checkpoint_grid is None:
        grid: list[int] = []
    else:
        grid = [int(c) for c in checkpoint_grid]
        if any(c < 1 for c in grid) or sorted(set(grid)) != grid:
            raise ValueError("checkpoint grid must be strictly increasing positive ints")
        if grid and grid[-1] > steps:
            raise ValueError(
                f"checkpoint {grid[-1]} exceeds the {steps} steps this run can take"
            )
    used = indices[:steps]
    if not steps:
        return used, steps, grid, np.empty((0, model.rank))
    return used, steps, grid, kernel_matrix(model.spec, X[used], model.representers)


def default_checkpoints(budget: int) -> list[int]:
    """Powers of two up to the budget, always including the budget itself."""
    if budget < 1:
        return []
    grid = []
    c = 1
    while c < budget:
        grid.append(c)
        c *= 2
    grid.append(int(budget))
    return grid


def _descend(model: KernelModel, K, schedule: StepSchedule, grid, evaluate, rule,
             queries: int) -> TrainReport:
    """The step loop shared by every driver.

    Step t (1-based) calls ``rule(t - 1, kcol, gamma)``, which reads the current
    coefficients and returns ``(c, direction)`` or None for no move. The loop
    then shrinks by ``1 - gamma * ridge``, adds ``c * outer(kcol, direction)``
    and folds the iterate into the running mean, ``mean += (a - mean) / t``.
    """
    a = model.coefficients
    mean = np.zeros_like(a)
    buf = np.empty_like(a)
    gammas = schedule.gammas(len(K))
    shrink = 1.0 - gammas * model.ridge if model.ridge != 0.0 else None
    records = []
    pending = iter(grid)
    due = next(pending, 0)
    multiply, subtract = np.multiply, np.subtract
    # rows of K also as (rank, 1) columns: column * direction is outer(kcol, direction)
    for s, kcol, column, gamma in zip(range(len(K)), K, K[:, :, None], gammas):
        move = rule(s, kcol, gamma)
        if shrink is not None:
            a *= shrink[s]
        if move is not None:
            multiply(column, move[1], out=buf)
            buf *= move[0]
            a += buf
        t = s + 1
        subtract(a, mean, out=buf)
        buf /= t
        mean += buf
        if t == due:
            snap = model.with_coefficients(mean)
            records.append((t, evaluate(snap) if evaluate is not None else snap.coefficients))
            due = next(pending, 0)
    return TrainReport(model, model.with_coefficients(mean), records, queries)


def run_median_sgd(
    X,
    oracle: QueryOracle,
    schedule: StepSchedule,
    model: KernelModel,
    rng: np.random.Generator,
    checkpoint_grid=None,
    evaluate=None,
    indices=None,
    direction: str = "sphere",
) -> TrainReport:
    """Absolute-deviation SGD from half-space bits.

    Per step: draw a unit direction U, set z = f(x), query
    eps = sign(<Y - z, U>), and step the coefficients by
    gamma(t) * eps * (U_j k(x, x_i)). ``direction="coordinate"`` draws U
    uniformly from the canonical basis instead of the sphere (the passive
    coordinate strategy for classification).
    """
    used, steps, grid, K = _prepare(X, model, oracle.budget_remaining, checkpoint_grid, indices)
    m = model.output_dim
    if steps:
        if direction == "sphere":
            U = sample_sphere_batch(rng, m, steps)
        elif direction == "coordinate":
            U = np.eye(m)[rng.integers(0, m, steps)]
        else:
            raise ValueError(f"unknown direction scheme {direction!r}")
    a = model.coefficients
    query = oracle.halfspace_query

    def rule(s, kcol, gamma):
        u = U[s]
        return gamma * query(int(used[s]), kcol.dot(a), u), u

    return _descend(model, K, schedule, grid, evaluate, rule, steps)


def run_least_squares_sgd(
    X,
    oracle: QueryOracle,
    schedule: StepSchedule,
    model: KernelModel,
    rng: np.random.Generator,
    bound: float,
    checkpoint_grid=None,
    evaluate=None,
    indices=None,
) -> TrainReport:
    """Squared-loss SGD from threshold bits.

    Per step: draw U on the sphere and V uniform on [0, 2*bound], query
    b = 1{<Y, U> < <f(x), U> - V}, and descend by gamma(t) * b * (U_j k(x, x_i)).
    The caller asserts ||f(x) - Y|| <= 2*bound; the oracle cannot check it.
    """
    if not bound > 0:
        raise ValueError("bound must be > 0")
    used, steps, grid, K = _prepare(X, model, oracle.budget_remaining, checkpoint_grid, indices)
    if steps:
        U = sample_sphere_batch(rng, model.output_dim, steps)
        V = rng.uniform(0.0, 2.0 * bound, steps)
    a = model.coefficients
    query = oracle.threshold_query

    def rule(s, kcol, gamma):
        u = U[s]
        if query(int(used[s]), u, float(kcol.dot(a).dot(u)) - V[s]):
            return -gamma, u
        return None

    return _descend(model, K, schedule, grid, evaluate, rule, steps)


def run_full_sgd(
    X,
    Y,
    schedule: StepSchedule,
    model: KernelModel,
    checkpoint_grid=None,
    evaluate=None,
    indices=None,
) -> TrainReport:
    """Fully supervised subgradient baseline on the absolute-deviation loss.

    Uses the labels directly (no oracle, no budget): descends along
    (f(x) - y)/||f(x) - y||, with subgradient 0 at f(x) = y.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    used, steps, grid, K = _prepare(X, model, len(Y) if indices is None else len(indices),
                                    checkpoint_grid, indices)
    a = model.coefficients

    def rule(s, kcol, gamma):
        r = kcol.dot(a) - Y[used[s]]
        nr = float(np.sqrt(r.dot(r)))
        return (-(gamma / nr), r) if nr > 0.0 else None

    return _descend(model, K, schedule, grid, evaluate, rule, 0)  # no oracle bits spent


def run_passive_median(
    X,
    oracle: QueryOracle,
    schedule: StepSchedule,
    model: KernelModel,
    rng: np.random.Generator,
    checkpoint_grid=None,
    evaluate=None,
    indices=None,
) -> TrainReport:
    """Passive baseline for scalar regression: thresholds drawn blindly.

    Per step: draw v ~ N(0, 1) and learn the bit b = 1{Y > v}. The step is
    the subgradient of the best-case loss over the revealed half-line
    inf_{y in S} |f(x) - y|: move up if b = 1 and f(x) < v, down if b = 0 and
    f(x) > v, and leave the coefficients alone when f(x) already sits in S.
    """
    if model.output_dim != 1:
        raise ValueError("the passive threshold strategy is defined for scalar outputs")
    used, steps, grid, K = _prepare(X, model, oracle.budget_remaining, checkpoint_grid, indices)
    if steps:
        V = rng.standard_normal(steps)
    a = model.coefficients
    query = oracle.threshold_query
    one = np.ones(1)

    def rule(s, kcol, gamma):
        v = float(V[s])
        above = 1 - query(int(used[s]), one, v)  # 1{Y > v} up to the null event Y = v
        z = float(kcol.dot(a[:, 0]))
        if above == 1 and z < v:
            return gamma, one
        if above == 0 and z > v:
            return -gamma, one
        return None

    return _descend(model, K, schedule, grid, evaluate, rule, steps)
