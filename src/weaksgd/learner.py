"""SGD drivers that learn kernel models from single-bit label queries.

Every driver runs the same step loop (:func:`_descend`): walk the input
sequence, spend one oracle bit per step and apply the matching coefficient
step. Checkpoint risks are evaluated on the average of the iterates, which no
step reads. So the loop records each step's move and sums the iterates a
window of steps at a time, in one product with the window's kernel rows. A
window closes at every multiple of 256 steps, at every checkpoint and at the
end of every Gram block; 256 divides ``kernel.CHUNK_ROWS``, the package's one
block size, so the windows do not depend on where the blocks are cut, and
given the same kernel rows neither does the average. The kernel rows
themselves may: a row's last bits can depend on how many rows its block holds
(BLAS takes another path for a one-row block, and at d = 64 blocks of 2 to 88
rows round otherwise too), so a run of B steps is not always a bit-exact
prefix of a longer run. A driver draws its randomness a block of steps at a
time, as the loop reaches the block, and supplies only a *bit rule*, one
oracle call per step, of one of two kinds:

* a *sign rule* (median, least squares, passive), whose direction is drawn
  before the bit: the driver hands the loop its direction rows, and the rule
  returns only the sign of the move. With one output the rule receives each
  step's direction as a Python float, which it hands the oracle as it is.
  The loop scales the kernel rows of a slice of steps by their directions
  and step sizes up front, so a step is one add or one subtract. Two drivers
  step along a basis vector, the coordinate median and passive (one output,
  column 0): they hand the loop each step's picked output column as an
  integer instead, and the loop writes ``k * gamma`` into that column only;
* a *move rule* (full-sgd, infimum-loss), whose direction is read from f(x):
  the rule writes the step's direction into the row of the window's direction
  records that the loop hands it, and returns the step's coefficient.

The loop makes no view or temporary per step. It takes the row views of its
one Gram buffer (and of a sign rule's one buffer of scaled rows) once per
run, and walks slices of those lists; a move rule writes its direction in
place instead of returning a new array.

All give the same bits: each element moves by ``(k * d) * gamma``, added or
subtracted, which is ``(k * d) * (+-gamma)`` added, exactly. For a basis
direction, ``(k * 1.0) * gamma == k * gamma`` and ``(k * 0.0) * gamma`` is
+0.0, the value the other columns hold, for any finite kernel value k >= +0
and gamma > 0. A driver consumes exactly ``min(budget, len(sequence))``
queries.

What each driver draws from its generator, in order, once per trial:

* median (:func:`run_median_sgd`): U on the sphere, or the index of U's
  coordinate;
* least squares (:func:`run_least_squares_sgd`): U, then V;
* passive (:func:`run_passive_median`): V;
* full-sgd (:func:`run_full_sgd`): nothing;
* infimum-loss (:func:`weaksgd.surrogate.infimum_loss_sgd`): the class-set rows.

Drawn a block at a time, each stream gives the same values, and leaves the
generator in the same state, as one draw for the whole run: normals, uniforms
and integers read the generator value by value. Least squares reaches V's
start on a copy of the generator, which first draws and discards every block
of U. One case differs: :func:`~weaksgd.geometry.sample_sphere_batch` redraws
a normal row that is exactly zero at the end of its batch, here the end of the
row's block, so the directions after such a row differ from one whole draw's.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import kernel
from .geometry import _check_scale, _normals, sample_sphere_batch
from .kernel import KernelModel, _as_rows, _label_rows, _unfit_rows, _whole, kernel_matrix
from .oracle import QueryOracle


@dataclass(frozen=True)
class StepSchedule:
    """Step rule: ``decaying`` steps by gamma0 / sqrt(t) at step t (1-based),
    ``constant`` by gamma0 at every step; each step first shrinks the
    coefficients by 1 - gamma * ridge."""

    KINDS = ("decaying", "constant")

    kind: str
    gamma0: float
    ridge: float = 0.0

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"schedule {self.kind!r} is not one of {self.KINDS}")
        if not 0 < self.gamma0 < np.inf:
            raise ValueError(
                f"gamma0 must be finite and > 0 for a {self.kind} schedule, got {self.gamma0}")
        if not 0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")

    @classmethod
    def decaying(cls, gamma0: float) -> "StepSchedule":
        return cls("decaying", float(gamma0))

    def gammas(self, start: int, stop: int) -> np.ndarray:
        """Step sizes (gamma(start + 1), ..., gamma(stop)). A step's size is
        the same bits in whichever block it is built."""
        if self.kind == "constant":
            return np.full(stop - start, self.gamma0, dtype=float)
        return self.gamma0 / np.sqrt(np.arange(start + 1, stop + 1))


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


@dataclass(frozen=True)
class Cycle:
    """The step indices of a walk over ``n`` rows that starts again at row 0
    after the last: 0, 1, ..., n - 1, 0, 1, ... for ``steps`` steps. A slice
    ``cycle[lo:hi]`` builds only its own indices, so a run holds none for the
    steps outside its current block."""

    n: int
    steps: int

    def __post_init__(self):
        _whole(self.n, "Cycle n")
        _whole(self.steps, "Cycle steps")
        if self.steps and not self.n:
            raise ValueError(f"a Cycle of {self.steps} steps has no row to walk")

    def __len__(self) -> int:
        return self.steps

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.arange(*rows.indices(self.steps)) % self.n


def _prepare(X, budget: int, checkpoint_grid, indices, labels: tuple):
    """Inputs as an (n, d) array, the walk of the steps to take (``indices``, a
    :class:`Cycle` over the n rows, cut to ``budget`` steps; each row once
    when ``indices`` is None), and the validated checkpoint grid. ``labels``
    is the shape of the labels the steps read: the one check that they hold
    one row per input row. Every check runs before any query, and ``X``'s rows
    are checked to be kernel inputs (finite, with squared norms that do not
    overflow) once per run, not per block."""
    X = _as_rows(X)
    unfit = _unfit_rows(X)
    if unfit:
        raise ValueError(f"X contains {unfit}")
    n = X.shape[0]
    if labels[0] != n:
        raise ValueError(f"labels of shape {labels} do not match X of shape {X.shape}")
    if indices is None:
        indices = Cycle(n, n)
    elif not isinstance(indices, Cycle):
        raise TypeError(f"indices must be None or a learner.Cycle, got {type(indices).__name__}")
    elif indices.n != n:
        raise ValueError(f"a Cycle over {indices.n} rows cannot walk X of shape {X.shape}")
    steps = min(budget, indices.steps)
    grid = [] if checkpoint_grid is None else [_whole(c, "checkpoint") for c in checkpoint_grid]
    if any(c < 1 for c in grid) or sorted(set(grid)) != grid:
        raise ValueError("checkpoint grid must be strictly increasing positive ints")
    if grid and grid[-1] > steps:
        raise ValueError(f"checkpoint {grid[-1]} exceeds the {steps} steps this run can take")
    return X, Cycle(n, steps), grid


def default_checkpoints(budget: int) -> list[int]:
    """Powers of two up to the budget, always including the budget itself."""
    budget = _whole(budget, "budget")
    if budget < 1:
        return []
    grid = []
    c = 1
    while c < budget:
        grid.append(c)
        c *= 2
    grid.append(budget)
    return grid


# Steps per averaging window. It divides kernel.CHUNK_ROWS, so a window never spans
# two Gram blocks, and for the same kernel rows the average does not depend on
# where the blocks are cut. A row's last bits may depend on its block's row
# count (see the module docstring), which this rule does not change.
_WINDOW = 256

# Steps per slice of a window whose moves a sign rule's loop scales up front.
_SLICE = 64

# The most outputs for which a sphere direction's slice is scaled one output
# column at a time; basis directions write only their picked column. One broadcast (slice, rank, 1) x (slice, 1, m) product runs numpy's
# inner loop only m elements long; m products of (slice, rank) run it rank
# long. At rank 100 the slice cost 1.09, 1.25, 1.29, 1.29 us per step for
# m = 2..5 broadcast and 0.37, 0.77, 0.78, 1.15 us column by column; from
# m = 6 (1.69 against 1.48, then 1.63 against 1.79 at m = 7) the m calls cost
# as much as they save. Ranks 64 and 256 cross at the same m.
_COLUMNS_MAX = 5


def _tail_sums(shrink: np.ndarray) -> np.ndarray:
    """Weights w with w[-1] = 1 and w[j] = 1 + shrink[j + 1] * w[j + 1]: the
    summed factors by which a move made at step j of a window reaches the
    iterates from step j on. Built backward, never by dividing a running
    product, since a shrink factor may be 0 or negative."""
    acc = 1.0
    out = [acc]
    for r in shrink[:0:-1].tolist():
        acc = 1.0 + r * acc
        out.append(acc)
    return np.array(out[::-1])


def _descend(model: KernelModel, X, used, schedule: StepSchedule, grid, evaluate, rule,
             queries: int, directions=None, draw=None) -> TrainReport:
    """The step loop shared by every driver.

    The loop runs in blocks of ``kernel.CHUNK_ROWS`` steps, and holds the state of one
    block at a time. At the start of the block of steps lo to hi - 1 it builds
    their kernel rows, their step sizes and, from ``used[lo:hi]``, their sample
    indices, and the driver draws the block's randomness: ``directions(lo,
    hi)`` returns the direction rows of a sign rule, and ``draw(lo, hi)``
    draws what a move rule reads. Step t (1-based) reads row ``X[used[t - 1]]``
    through its kernel column ``kcol`` and shrinks the coefficients by
    ``1 - gamma * schedule.ridge`` before it moves them. The rule, which reads
    the current coefficients, is one of two kinds.

    * A *move rule* (``directions`` None; full-sgd and infimum-loss, whose
      direction is read from f(x)) is called as ``rule(t - 1, i, kcol,
      gamma, d)``, with the sample index ``i = used[t - 1]`` and ``gamma`` as
      Python numbers and ``d`` the step's row of the window's direction
      records D: the 0-d view ``D[j, 0, ...]`` with one output, the row
      ``D[j]`` otherwise. A rule that moves writes its direction into ``d``
      and returns the coefficient c; a rule that does not move writes
      nothing and returns None. The loop records c in the window's array C
      (0 for no move) and adds ``c * outer(kcol, d)``, read back from C and
      D as 0-d operands: each element gets ``(k * d) * c``. A step with no
      move leaves its row of D as it was, not zeroed: with C = 0 it adds
      only zeros to the average, and zeroing it would change their signs.
    * A *sign rule* (median, least squares and passive, whose direction is
      drawn before the bit) is called as ``rule(t - 1, i, kcol, u)`` with the
      step's direction u and returns the sign of the move: 1, -1 or 0. The
      block's direction rows are copied into D a window at a time. With one
      output u is a Python float, the window's ``D[:n, 0].tolist()``, the
      operand form the one-output oracle takes without converting; otherwise
      u is the step's row of D. Before the steps of a slice of ``_SLICE``
      steps run, the loop scales their rows ``(k * d) * gamma`` into one
      buffer, so a step is one add or one subtract of its row: the products
      ``k * d`` in one broadcast ufunc call, or, with 2 to ``_COLUMNS_MAX``
      outputs, one call per output column, then one call that scales them by
      gamma. The bits are those of a move rule returning ``(sign * gamma,
      u)``: ``x * -g == -(x * g)`` and ``y - x == y + -x`` exactly in IEEE
      arithmetic, signed zeros included.
      C is set at the window's end to ``sign * gamma``, which is ``+-gamma``
      or 0 as a move rule records.
    * A sign rule whose direction is a basis vector (the coordinate median,
      and passive with its one output) has ``directions(lo, hi)`` return the
      index of each step's picked output column, as an integer array. The
      loop builds D and each ``u`` from ``np.eye(m)[picks]``, as before, but
      fills a slice by writing ``k * gamma`` into the picked column of a
      buffer that is zeroed once, and zeroes those entries again after the
      slice; with one output the slice is ``Kw * gamma``. These are the
      bits of the broadcast fill: ``(k * 1.0) * gamma == k * gamma``, and
      ``(k * 0.0) * gamma`` is the buffer's +0.0, for finite k >= +0 and
      gamma > 0. The step's add or subtract of the whole row is unchanged.

    With one output the update runs on 1-D operands, the coefficient column
    ``a[:, 0]`` and the row ``kcol``, so no step pays for a (rank, 1)
    broadcast.

    No step builds an array view: the loop lists the row views of its Gram
    buffer (``kcol``), of the same rows as (rank, 1) columns when there are
    several outputs, of D and C, and of a sign rule's scaled-row buffer, once
    per run, and every window and slice walks slices of those lists.

    :func:`_prepare` refuses an ``X`` that is not finite or whose squared
    norms overflow, :class:`~weaksgd.kernel.KernelModel` refuses such
    representers and :class:`~weaksgd.kernel.KernelSpec` a bandwidth whose
    2 sigma^2 is not finite and > 0, so every kernel value is finite, or the
    fills above would differ: a NaN row spreads NaN to every output column
    in the broadcast fill, but only to the picked one in the basis fill.

    The average is summed a window of steps at a time. A window closes at every
    multiple of ``_WINDOW`` (which divides ``kernel.CHUNK_ROWS``), at every checkpoint
    and at every block end. The iterates of a window of n steps that starts
    from ``start`` sum to ``lead * start + Kw.T @ ((w * C)[:, None] * D)``,
    where ``Kw`` holds the window's kernel rows, w the :func:`_tail_sums` of its
    shrink factors (``n - j`` with no ridge) and ``lead`` the sum of the
    products of its leading shrink factors (n with no ridge). A step with no
    move has C = 0, so whatever direction D holds on its row adds only zeros to
    the sum. A checkpoint scores the total so far divided by its step count.
    """
    a = model.coefficients
    scalar = model.output_dim == 1
    target = a[:, 0] if scalar else a  # a view: the update writes through to a
    total = np.zeros_like(a)  # sum of the iterates of the closed windows
    start = a.copy()  # the iterate the open window starts from
    C = np.empty(_WINDOW)
    D = np.zeros((_WINDOW, model.output_dim))
    steps = len(used)
    due = set(grid)
    records = []
    multiply = np.multiply
    # every block is built into one buffer, with its product in one scratch
    # buffer, so only one is held at a time and their pages are reused rather
    # than faulted in afresh for each block. Two arrays, not one of shape
    # (2, rows, rank): perfbench read its peak RSS 0.2-0.5 MB higher with one
    gram = np.empty((min(steps, kernel.CHUNK_ROWS), model.rank))
    scratch = np.empty_like(gram)
    # row * direction is outer(kcol, direction): with one output a 1-D row,
    # otherwise the row as a (rank, 1) column
    outer = gram if scalar else gram[:, :, None]
    # the row views of gram, taken once per run: kernel_matrix writes every
    # block into gram[:hi - lo] and returns that buffer, so row j of each
    # block is always kcols[j] and rows[j]
    kcols = list(gram)
    rows = kcols if scalar else list(outer)
    if directions is None:
        buf = np.empty_like(target)
        # views of the slots of C and D, from which the update reads c and the
        # direction, and into which the rule writes it: numpy takes a 0-d
        # operand on its fast path, where a Python float or a (1,) direction
        # pays for a conversion or a broadcast
        cs = [C[j, ...] for j in range(_WINDOW)]
        ds = [D[j, 0, ...] for j in range(_WINDOW)] if scalar else list(D)
    else:
        # the scaled rows of one slice: a buffer that does not grow with the
        # budget, where a whole window's rows would add 256 * rank * m floats.
        # Zeroed once: a basis fill writes only its picked entries and zeroes
        # them again after the slice
        moves = np.zeros((min(steps, _SLICE),) + target.shape)
        scaled_rows = list(moves)  # its row views, taken once like kcols
        dirs = D if scalar else D[:, None, :]  # a direction per step, against (rank[, m])
        # with a few outputs, one (slice, rank) product per output column
        columns = range(model.output_dim) if 2 <= model.output_dim <= _COLUMNS_MAX else None
        basis = np.eye(model.output_dim)
        order = np.arange(_SLICE)  # a slice's step positions, for the basis fill
        # each step's direction: with one output a Python float, read a window
        # at a time, which the oracle takes without converting; otherwise a
        # row view of D, listed once per run
        us = None if scalar else list(D)
        signs = [0] * _WINDOW
    for lo in range(0, steps, kernel.CHUNK_ROWS):
        hi = min(lo + kernel.CHUNK_ROWS, steps)
        samples = used[lo:hi]
        K = kernel_matrix(model.spec, X[samples], model.representers, out=gram[:hi - lo],
                          scratch=scratch[:hi - lo])
        gammas = schedule.gammas(lo, hi)
        shrink = 1.0 - gammas * schedule.ridge if schedule.ridge != 0.0 else None
        if directions is not None:
            U = directions(lo, hi)
            picks = None
            if U.dtype.kind in "iu":  # each step's picked output column
                picks, U = U, basis[U]
            scales = gammas.reshape((-1,) + (1,) * target.ndim)
        elif draw is not None:
            draw(lo, hi)
        # window ends: multiples of _WINDOW, checkpoints and the block's end
        cuts = sorted({lo, hi, *range(lo // _WINDOW * _WINDOW + _WINDOW, hi, _WINDOW),
                       *grid[bisect_right(grid, lo):bisect_left(grid, hi)]})
        for wlo, whi in zip(cuts, cuts[1:]):
            n = whi - wlo
            off = wlo - lo  # the window's first row in the block
            Kw = K[off:off + n]
            # Python numbers a window at a time: a block of them would hold
            # 32-36 bytes per step where the arrays hold 8
            index = samples[off:off + n].tolist()
            factors = shrink[off:off + n].tolist() if shrink is not None else None
            if directions is None:
                for j, s, i, kcol, row, gamma, c, d in zip(range(n), range(wlo, whi), index,
                                                           kcols[off:off + n], rows[off:off + n],
                                                           gammas[off:off + n].tolist(),
                                                           cs, ds):
                    step = rule(s, i, kcol, gamma, d)
                    if factors is not None:
                        target *= factors[j]
                    if step is None:
                        C[j] = 0.0
                    else:
                        C[j] = step
                        multiply(row, d, out=buf)
                        buf *= c
                        target += buf
            else:
                D[:n] = U[off:off + n]
                if scalar:
                    us = D[:n, 0].tolist()
                for jlo in range(0, n, _SLICE):
                    jhi = min(jlo + _SLICE, n)
                    scaled = moves[:jhi - jlo]
                    picked = None  # the entries a basis fill wrote
                    if picks is None:
                        if columns is None:
                            multiply(outer[off + jlo:off + jhi], dirs[jlo:jhi], out=scaled)
                        else:
                            for q in columns:
                                multiply(Kw[jlo:jhi], D[jlo:jhi, q:q + 1], out=scaled[:, :, q])
                        scaled *= scales[off + jlo:off + jhi]
                    elif scalar:
                        multiply(Kw[jlo:jhi], scales[off + jlo:off + jhi], out=scaled)
                    else:
                        picked = (order[:jhi - jlo], slice(None), picks[off + jlo:off + jhi])
                        scaled[picked] = Kw[jlo:jhi] * gammas[off + jlo:off + jhi, None]
                    for j, s, i, kcol, u, move in zip(range(jlo, jhi),
                                                      range(wlo + jlo, wlo + jhi),
                                                      index[jlo:jhi],
                                                      kcols[off + jlo:off + jhi],
                                                      us[jlo:jhi], scaled_rows):
                        sign = rule(s, i, kcol, u)
                        if factors is not None:
                            target *= factors[j]
                        if sign > 0:
                            target += move
                        elif sign:
                            target -= move
                        signs[j] = sign
                    if picked is not None:
                        scaled[picked] = 0.0
                multiply(signs[:n], gammas[off:off + n], out=C[:n])
            if shrink is None:
                w = np.arange(n, 0.0, -1.0)
                lead = n
            else:
                w = _tail_sums(shrink[off:off + n])
                lead = shrink[off] * w[0]
            w *= C[:n]
            total += lead * start
            total += Kw.T @ (w[:, None] * D[:n])
            start[:] = a
            if whi in due:
                snap = model.with_coefficients(total / whi)
                records.append((whi, evaluate(snap) if evaluate is not None
                                else snap.coefficients))
    mean = total / steps if steps else total
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
    ``indices`` is None, which walks the rows of X once, or ``Cycle(n, steps)``.
    """
    X, used, grid = _prepare(X, oracle.budget_remaining, checkpoint_grid, indices,
                             (oracle.n_samples,))
    m = model.output_dim
    if direction == "sphere":
        def directions(lo, hi):
            return sample_sphere_batch(rng, m, hi - lo)
    elif direction == "coordinate":
        def directions(lo, hi):
            return rng.integers(0, m, hi - lo)  # the index of each step's basis vector
    else:
        raise ValueError(f"unknown direction scheme {direction!r}")
    a = model.coefficients
    query = oracle.halfspace_query

    if m == 1:
        # z = f(x) and u as Python floats, which the oracle multiplies as they are
        def rule(s, i, kcol, u):
            return query(i, kcol.dot(a).item(0), u)
    else:
        def rule(s, i, kcol, u):
            return query(i, kcol.dot(a), u)

    return _descend(model, X, used, schedule, grid, evaluate, rule, len(used), directions)


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
    ``indices`` is None, which walks the rows of X once, or ``Cycle(n, steps)``.
    """
    _check_scale(bound)
    X, used, grid = _prepare(X, oracle.budget_remaining, checkpoint_grid, indices,
                             (oracle.n_samples,))
    steps = len(used)
    m = model.output_dim
    # V is drawn after the whole of U: a copy of the generator draws and
    # discards U's blocks to reach V's start, then draws V a block at a time
    ahead = copy.deepcopy(rng)
    for lo in range(0, steps, kernel.CHUNK_ROWS):
        _normals(ahead, m, min(kernel.CHUNK_ROWS, steps - lo))
    V, base = None, 0  # the thresholds of the block that starts at step base

    def directions(lo, hi):
        nonlocal V, base
        V, base = ahead.uniform(0.0, 2.0 * bound, hi - lo), lo
        return sample_sphere_batch(rng, m, hi - lo)

    a = model.coefficients
    query = oracle.threshold_query

    if m == 1:
        # <f(x), u> as one product of Python floats, not a length-1 dot
        def rule(s, i, kcol, u):
            return -query(i, u, kcol.dot(a).item(0) * u - V.item(s - base))
    else:
        def rule(s, i, kcol, u):
            return -query(i, u, float(kcol.dot(a).dot(u)) - V.item(s - base))

    report = _descend(model, X, used, schedule, grid, evaluate, rule, steps, directions)
    # the state that drawing all of U, then all of V, leaves the caller's generator in
    rng.bit_generator.state = ahead.bit_generator.state
    return report


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
    (f(x) - y)/||f(x) - y||, with subgradient 0 at f(x) = y. ``Y`` holds one
    row per row of X and one column per output, all finite.
    ``indices`` is None, which walks the rows of X once, or ``Cycle(n, steps)``.
    """
    Y = _label_rows(Y)
    X, used, grid = _prepare(X, len(Y) if indices is None else len(indices),
                             checkpoint_grid, indices, Y.shape)
    if Y.shape[1] != model.output_dim:
        raise ValueError(f"labels of shape {Y.shape} do not fit X of shape {X.shape} "
                         f"and a model of {model.output_dim} outputs")
    a = model.coefficients

    if model.output_dim == 1:
        y = Y[:, 0]  # a view: no per-row copy, so memory does not grow with n

        # the residual as a Python float, where the (1,) arrays pay for a
        # subtraction, a length-1 dot and their wrappers
        def rule(s, i, kcol, gamma, d):
            r = kcol.dot(a).item(0) - y.item(i)
            nr = math.sqrt(r * r)
            if nr > 0.0:
                d[...] = r
                return -(gamma / nr)
            return None
    else:
        def rule(s, i, kcol, gamma, d):
            r = kcol.dot(a) - Y[i]
            nr = math.sqrt(r.dot(r))
            if nr > 0.0:
                d[...] = r
                return -(gamma / nr)
            return None

    return _descend(model, X, used, schedule, grid, evaluate, rule, 0)  # no oracle bits spent


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
    ``indices`` is None, which walks the rows of X once, or ``Cycle(n, steps)``.
    """
    if model.output_dim != 1:
        raise ValueError("the passive threshold strategy is defined for scalar outputs")
    X, used, grid = _prepare(X, oracle.budget_remaining, checkpoint_grid, indices,
                             (oracle.n_samples,))
    V, base = None, 0  # the thresholds of the block that starts at step base

    def directions(lo, hi):
        # every step's direction is the one output's unit vector, column 0
        nonlocal V, base
        V, base = rng.standard_normal(hi - lo), lo
        return np.zeros(hi - lo, dtype=np.intp)

    a0 = model.coefficients[:, 0]
    query = oracle.threshold_query

    def rule(s, i, kcol, u):
        v = V.item(s - base)
        above = 1 - query(i, u, v)  # 1{Y > v} up to the null event Y = v
        z = float(kcol.dot(a0))
        if above == 1 and z < v:
            return 1
        if above == 0 and z > v:
            return -1
        return 0

    return _descend(model, X, used, schedule, grid, evaluate, rule, len(used), directions)
