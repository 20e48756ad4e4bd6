"""Budgeted single-bit access to hidden labels.

The oracle is the only channel to ground truth during training. It answers
three kinds of one-bit questions (half-space sign, scalar threshold, class
membership), charges one budget unit per answer, and enforces the streaming
protocol when enabled: the t-th query must address sample t-1 in arrival
order, so no sample is ever asked twice.

Each query tests the protocol (budget, index, streaming order) first, then
its operands, by the kind of label. With one real output an operand is best a
Python float, and the half-space value is ``y * u - z * u`` and the
threshold value ``y * u``; with several outputs or classes, a flat float64
array of the label dimension. Any other form (a list, an int, a numpy scalar,
a (1,) array in place of a float) is converted to a flat float array, refused
if its size is not the label dimension, and read as its float with one real
output, so every form of the same values gets the same answer.
"""

from __future__ import annotations

import operator

import numpy as np

from .kernel import _class_codes, _label_rows, _whole


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
        ``labels``: (n, m) real targets, or (n,) classes 1..n_classes with
        ``n_classes`` an int."""
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
            self._targets, self._classes, self._m = None, labels, n_classes
            self._scalars = None
            self._class_ids = frozenset(range(1, self._m + 1))
        self._shape = (self._m,)  # the shape of a query operand

    @classmethod
    def for_regression(cls, targets, budget: int, mode: str = "streaming",
                       record_log: bool = False) -> "QueryOracle":
        """Oracle over real-vector labels; ``targets`` is (n,) or (n, m), nonempty
        and finite (NaN or +-inf would answer every later bit that reads it)."""
        t = _label_rows(targets)
        if t.shape[0] < 1:
            raise ValueError("targets must be a nonempty (n,) or (n, m) array")
        return cls(t.copy(), None, budget, mode, record_log)

    @classmethod
    def for_classification(cls, classes, n_classes: int, budget: int,
                           mode: str = "streaming", record_log: bool = False) -> "QueryOracle":
        """Oracle over classes 1..n_classes, embedded as basis vectors of R^m."""
        codes, n_classes = _class_codes(classes, n_classes)
        return cls(codes.copy(), n_classes, budget, mode, record_log)

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
        hidden label lies on: sign(<Y_i, u> - <z, u>) with sign(0) = +1.
        The operand forms are the module docstring's."""
        used = self.budget_used
        # the protocol, in one test: a bit to spend on an int sample index
        # that may be asked now; any other index is checked step by step
        if not (used < self.budget_total and type(i) is int and 0 <= i < self._n
                and (i == used or self.mode != "streaming")):
            i = self._precheck(i)
        if self._scalars is not None:
            if type(z) is not float:
                z = self._operand(z)
            if type(u) is not float:
                u = self._operand(u)
            value = self._scalars.item(i) * u - z * u
        else:
            if not (type(z) is np.ndarray and z.dtype is _FLOAT and z.shape == self._shape):
                z = self._operand(z)
            if not (type(u) is np.ndarray and u.dtype is _FLOAT and u.shape == self._shape):
                u = self._operand(u)
            if self._classes is not None:
                value = u.item(self._classes.item(i) - 1) - float(z.dot(u))
            else:
                value = float(self._targets[i].dot(u)) - float(z.dot(u))
        self.budget_used = used + 1
        if self.query_log is not None:
            self.query_log.append((used + 1, i, "halfspace", 1))
        return 1 if value >= 0.0 else -1

    def threshold_query(self, i: int, u, c: float) -> int:
        """Bit 1{<Y_i, u> < c} (strict inequality). The operand forms are the
        module docstring's."""
        used = self.budget_used
        if not (used < self.budget_total and type(i) is int and 0 <= i < self._n
                and (i == used or self.mode != "streaming")):
            i = self._precheck(i)
        if self._scalars is not None:
            if type(u) is not float:
                u = self._operand(u)
            value = self._scalars.item(i) * u
        else:
            if not (type(u) is np.ndarray and u.dtype is _FLOAT and u.shape == self._shape):
                u = self._operand(u)
            if self._classes is not None:
                value = u.item(self._classes.item(i) - 1)
            else:
                value = float(self._targets[i].dot(u))
        answer = int(value < float(c))
        self.budget_used = used + 1
        if self.query_log is not None:
            self.query_log.append((used + 1, i, "threshold", 1))
        return answer

    def _operand(self, v):
        """``v`` in the form a query reads: converted to a flat float array of the
        label dimension, and read as a Python float with one real output."""
        v = np.asarray(v, dtype=float).ravel()
        if v.size != self._m:
            raise ValueError(f"query dimension {v.size} != label dim {self._m}")
        return v.item(0) if self._scalars is not None else v

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
