"""Budgeted single-bit access to hidden labels.

The oracle is the only channel to ground truth during training. It answers
three kinds of one-bit questions (half-space sign, scalar threshold, class
membership), charges one budget unit per answer, and enforces the streaming
protocol when enabled: the t-th query must address sample t-1 in arrival
order, so no sample is ever asked twice.
"""

from __future__ import annotations

import numpy as np


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

    def __init__(self, *, budget: int, mode: str = "streaming", record_log: bool = False):
        if mode not in ("streaming", "resampling"):
            raise ValueError(f"unknown mode {mode!r}")
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.budget_total = int(budget)
        self.budget_used = 0
        self.mode = mode
        self.query_log: list[tuple[int, int, str, int]] | None = [] if record_log else None
        self._targets: np.ndarray | None = None
        self._classes: np.ndarray | None = None
        self._m = 0
        self._n = 0

    @classmethod
    def for_regression(cls, targets, budget: int, mode: str = "streaming",
                       record_log: bool = False) -> "QueryOracle":
        """Oracle over real-vector labels; ``targets`` is (n,) or (n, m)."""
        oracle = cls(budget=budget, mode=mode, record_log=record_log)
        t = np.asarray(targets, dtype=float)
        if t.ndim == 1:
            t = t[:, None]
        if t.ndim != 2 or t.shape[0] < 1:
            raise ValueError("targets must be a nonempty (n,) or (n, m) array")
        oracle._targets = t.copy()
        oracle._n, oracle._m = t.shape
        return oracle

    @classmethod
    def for_classification(cls, classes, n_classes: int, budget: int,
                           mode: str = "streaming", record_log: bool = False) -> "QueryOracle":
        """Oracle over classes 1..n_classes, embedded as basis vectors of R^m."""
        oracle = cls(budget=budget, mode=mode, record_log=record_log)
        c = np.asarray(classes, dtype=int)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("classes must be a nonempty 1-D array")
        if n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if ((c < 1) | (c > n_classes)).any():
            raise ValueError(f"class indices must lie in 1..{n_classes}")
        oracle._classes = c.copy()
        oracle._n, oracle._m = c.size, int(n_classes)
        oracle._class_ids = frozenset(range(1, oracle._m + 1))
        return oracle

    @property
    def label_dim(self) -> int:
        return self._m

    @property
    def budget_remaining(self) -> int:
        return self.budget_total - self.budget_used

    def _precheck(self, i: int) -> int:
        """Raise if query ``i`` may not be asked now; return the ledger count."""
        used = self.budget_used
        if used >= self.budget_total:
            raise BudgetExhausted(
                f"budget of {self.budget_total} queries already spent"
            )
        if not 0 <= i < self._n:
            raise ValueError(f"sample index {i} out of range [0, {self._n})")
        if i != used and self.mode == "streaming":
            raise StreamingViolation(
                f"streaming query {used + 1} must address sample {used}, got {i}"
            )
        return used

    def _charge(self, used: int, i: int, kind: str) -> None:
        self.budget_used = used + 1
        if self.query_log is not None:
            self.query_log.append((used + 1, i, kind, 1))

    def _label_dot(self, i: int, u: np.ndarray) -> float:
        if self._classes is not None:
            return float(u[self._classes[i] - 1])
        return float(self._targets[i].dot(u))

    def halfspace_query(self, i: int, z, u) -> int:
        """Which side of the hyperplane through ``z`` orthogonal to ``u`` the
        hidden label lies on: sign(<Y_i - z, u>) with sign(0) = +1."""
        used = self._precheck(i)
        z = _vector(z)
        u = _vector(u)
        if z.size != self._m or u.size != self._m:
            raise ValueError(
                f"query dimensions ({z.size}, {u.size}) != label dim {self._m}"
            )
        value = self._label_dot(i, u) - float(z.dot(u))
        self._charge(used, i, "halfspace")
        return 1 if value >= 0.0 else -1

    def threshold_query(self, i: int, u, c: float) -> int:
        """Bit 1{<Y_i, u> < c} (strict inequality)."""
        used = self._precheck(i)
        u = _vector(u)
        if u.size != self._m:
            raise ValueError(f"query dimension {u.size} != label dim {self._m}")
        value = self._label_dot(i, u)
        self._charge(used, i, "threshold")
        return int(value < float(c))

    def membership_query(self, i: int, S) -> int:
        """Bit 1{class(Y_i) in S} for a proper nonempty class subset ``S``."""
        if self._classes is None:
            raise ValueError("membership queries require a classification oracle")
        used = self._precheck(i)
        S = frozenset(int(s) for s in S)
        if not S <= self._class_ids:
            raise ValueError(f"classes in S must lie in 1..{self._m}")
        if len(S) == 0 or len(S) == self._m:
            raise TrivialSetError("membership set must be a proper nonempty subset")
        answer = int(int(self._classes[i]) in S)
        self._charge(used, i, "membership")
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


def _vector(v) -> np.ndarray:
    """``v`` as a flat float array, without a copy when it already is one."""
    if type(v) is np.ndarray and v.ndim == 1 and v.dtype is _FLOAT:
        return v
    return np.asarray(v, dtype=float).ravel()
