"""Budgeted single-bit access to hidden labels.

The oracle is the only channel to ground truth during training. It answers
three kinds of one-bit questions (half-space sign, scalar threshold, class
membership), charges one budget unit per answer, and enforces the streaming
protocol when enabled: the t-th query must address sample t-1 in arrival
order, so no sample is ever asked twice.
"""

from __future__ import annotations

import operator

import numpy as np

from .kernel import _as_rows


class BudgetExhausted(RuntimeError):
    """All budgeted queries have been spent."""


class StreamingViolation(RuntimeError):
    """A streaming-mode query addressed an out-of-order or repeated sample."""


class TrivialSetError(ValueError):
    """Membership query with an empty or full class set carries no information."""


class QueryOracle:
    """Holds hidden labels, answers single-bit queries, and keeps the ledger.

    Modes: ``"streaming"`` pins the t-th query to sample index t-1;
    ``"resampling"`` allows arbitrary (possibly repeated) indices.
    Failed queries never mutate the ledger. With ``record_log=True`` every
    answered query is logged as (t, index, kind, cost).
    """

    def __init__(self, labels: np.ndarray, n_classes: int | None, budget: int,
                 mode: str, record_log: bool):
        """Use :meth:`for_regression` or :meth:`for_classification`; they check
        ``labels``: (n, m) real targets, or (n,) classes 1..n_classes."""
        if mode not in ("streaming", "resampling"):
            raise ValueError(f"unknown mode {mode!r}")
        self.budget_total = _whole(budget, "budget")
        self.budget_used = 0
        self.mode = mode
        self.query_log: list[tuple[int, int, str, int]] | None = [] if record_log else None
        self._n = labels.shape[0]
        if n_classes is None:
            self._targets, self._classes, self._m = labels, None, labels.shape[1]
            # with one output <Y_i, u> is a single product of Python floats read
            # from a 1-D view of the labels: the value of a length-1 dot, without
            # its call
            self._scalars = labels[:, 0] if self._m == 1 else None
        else:
            self._targets, self._classes, self._m = None, labels, int(n_classes)
            self._scalars = None
            self._class_ids = frozenset(range(1, self._m + 1))
        self._shape = (self._m,)  # the shape of a query operand

    @classmethod
    def for_regression(cls, targets, budget: int, mode: str = "streaming",
                       record_log: bool = False) -> "QueryOracle":
        """Oracle over real-vector labels; ``targets`` is (n,) or (n, m)."""
        t = _as_rows(targets)
        if t.shape[0] < 1:
            raise ValueError("targets must be a nonempty (n,) or (n, m) array")
        return cls(t.copy(), None, budget, mode, record_log)

    @classmethod
    def for_classification(cls, classes, n_classes: int, budget: int,
                           mode: str = "streaming", record_log: bool = False) -> "QueryOracle":
        """Oracle over classes 1..n_classes, embedded as basis vectors of R^m."""
        c = np.asarray(classes, dtype=int)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("classes must be a nonempty 1-D array")
        if n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if ((c < 1) | (c > n_classes)).any():
            raise ValueError(f"class indices must lie in 1..{n_classes}")
        return cls(c.copy(), n_classes, budget, mode, record_log)

    @property
    def budget_remaining(self) -> int:
        return self.budget_total - self.budget_used

    @property
    def n_samples(self) -> int:
        """The number of samples whose labels the oracle holds."""
        return self._n

    def _precheck(self, i) -> int:
        """Sample index ``i`` as an int; raise if query ``i`` may not be asked now."""
        used = self.budget_used
        if used >= self.budget_total:
            raise BudgetExhausted(
                f"budget of {self.budget_total} queries already spent"
            )
        try:
            index = operator.index(i)  # a Python or numpy integer; not a float
        except TypeError:
            index = None
        if index is None or isinstance(i, bool):
            raise TypeError(f"sample index {i!r} is not an integer")
        i = index
        if not 0 <= i < self._n:
            raise ValueError(f"sample index {i} out of range [0, {self._n})")
        if i != used and self.mode == "streaming":
            raise StreamingViolation(
                f"streaming query {used + 1} must address sample {used}, got {i}"
            )
        return i

    def halfspace_query(self, i: int, z, u) -> int:
        """Which side of the hyperplane through ``z`` orthogonal to ``u`` the
        hidden label lies on: sign(<Y_i - z, u>) with sign(0) = +1."""
        used = self.budget_used
        # one test of the common call: a bit to spend on an int sample index
        # that may be asked now, and both operands already flat float arrays of
        # the label dimension; any other call is checked, and converted, step
        # by step
        if not (used < self.budget_total and type(i) is int and 0 <= i < self._n
                and (i == used or self.mode != "streaming")
                and type(z) is np.ndarray and z.dtype is _FLOAT and z.shape == self._shape
                and type(u) is np.ndarray and u.dtype is _FLOAT and u.shape == self._shape):
            i = self._precheck(i)
            z = _vector(z)
            u = _vector(u)
            if z.size != self._m or u.size != self._m:
                raise ValueError(
                    f"query dimensions ({z.size}, {u.size}) != label dim {self._m}"
                )
        if self._scalars is not None:
            u0 = u.item(0)
            value = self._scalars.item(i) * u0 - z.item(0) * u0
        elif self._classes is not None:
            value = u.item(self._classes.item(i) - 1) - float(z.dot(u))
        else:
            value = float(self._targets[i].dot(u)) - float(z.dot(u))
        self.budget_used = used + 1
        if self.query_log is not None:
            self.query_log.append((used + 1, i, "halfspace", 1))
        return 1 if value >= 0.0 else -1

    def threshold_query(self, i: int, u, c: float) -> int:
        """Bit 1{<Y_i, u> < c} (strict inequality)."""
        used = self.budget_used
        if not (used < self.budget_total and type(i) is int and 0 <= i < self._n
                and (i == used or self.mode != "streaming")
                and type(u) is np.ndarray and u.dtype is _FLOAT and u.shape == self._shape):
            i = self._precheck(i)
            u = _vector(u)
            if u.size != self._m:
                raise ValueError(f"query dimension {u.size} != label dim {self._m}")
        if self._scalars is not None:
            value = self._scalars.item(i) * u.item(0)
        elif self._classes is not None:
            value = u.item(self._classes.item(i) - 1)
        else:
            value = float(self._targets[i].dot(u))
        answer = int(value < float(c))
        self.budget_used = used + 1
        if self.query_log is not None:
            self.query_log.append((used + 1, i, "threshold", 1))
        return answer

    def membership_query(self, i: int, S) -> int:
        """Bit 1{class(Y_i) in S} for a proper nonempty class subset ``S``.

        The ids in ``S`` are compared with the class ids as they are: 2.0
        names class 2, but 1.5 and "2" name no class."""
        if self._classes is None:
            raise ValueError("membership queries require a classification oracle")
        used = self.budget_used
        if not (used < self.budget_total and type(i) is int and 0 <= i < self._n
                and (i == used or self.mode != "streaming")):
            i = self._precheck(i)
        S = frozenset(S)
        if not S <= self._class_ids:
            raise ValueError(f"classes in S must lie in 1..{self._m}")
        if len(S) == 0 or len(S) == self._m:
            raise TrivialSetError("membership set must be a proper nonempty subset")
        answer = int(self._classes.item(i) in S)
        self.budget_used = used + 1
        if self.query_log is not None:
            self.query_log.append((used + 1, i, "membership", 1))
        return answer

    def export_query_log(self, path) -> None:
        """Write the query log as CSV with columns t,index,kind,cost."""
        if self.query_log is None:
            raise ValueError("oracle was created without record_log=True")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,index,kind,cost\n")
            for t, i, kind, cost in self.query_log:
                fh.write(f"{t},{i},{kind},{cost}\n")


_FLOAT = np.dtype(float)


def _whole(value, name: str) -> int:
    """``value`` as an int: the one whole-number rule, for budgets and ``Cycle``
    counts. A bool or non-integer raises ``TypeError``, a negative ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def _vector(v) -> np.ndarray:
    """``v`` as a flat float array."""
    return np.asarray(v, dtype=float).ravel()
