"""Dataset acquisition: sparse-text and CSV parsers, standardization, seeded
splits, and the synthetic regression / classification generators."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class LabeledDataset:
    """Dense feature matrix with either real-vector or class targets.

    ``targets`` is (n, m) float for regression or (n,) int in 1..n_classes
    for classification. ``extra`` carries parser bookkeeping such as dropped
    row counts and original label values.
    """

    features: np.ndarray
    targets: np.ndarray
    kind: str
    n_classes: int | None = None
    source: str = ""
    feature_names: list | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a nonempty (n, d) matrix")
        if self.kind == "regression":
            self.targets = np.asarray(self.targets, dtype=float)
            if self.targets.ndim == 1:
                self.targets = self.targets[:, None]
            if self.targets.shape[0] != self.n:
                raise ValueError("features and targets disagree on n")
        elif self.kind == "classification":
            self.targets = np.asarray(self.targets, dtype=int)
            if self.targets.ndim != 1 or self.targets.shape[0] != self.n:
                raise ValueError("class targets must be a length-n vector")
            if self.n_classes is None or self.n_classes < 1:
                raise ValueError("classification datasets need n_classes")
            if ((self.targets < 1) | (self.targets > self.n_classes)).any():
                raise ValueError(f"class indices must lie in 1..{self.n_classes}")
        else:
            raise ValueError(f"unknown dataset kind {self.kind!r}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def output_dim(self) -> int:
        return self.n_classes if self.kind == "classification" else self.targets.shape[1]

    def take(self, idx) -> "LabeledDataset":
        return LabeledDataset(np.array(self.features[idx]), np.array(self.targets[idx]),
                              self.kind, self.n_classes, self.source, self.feature_names,
                              dict(self.extra))


@dataclass(frozen=True)
class SplitSpec:
    """Train fraction and shuffle seed for a permutation split."""

    train_fraction: float = 2.0 / 3.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")


def split(dataset: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded shuffle, then prefix/suffix partition. Deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(dataset.n)
    n_train = int(dataset.n * spec.train_fraction)
    return dataset.take(perm[:n_train]), dataset.take(perm[n_train:])


@dataclass(frozen=True)
class StandardizeInfo:
    mean: np.ndarray
    scale: np.ndarray
    constant_columns: np.ndarray  # boolean mask of columns left untouched


def standardize(dataset: LabeledDataset) -> tuple[LabeledDataset, StandardizeInfo]:
    """Center each feature column and scale it to unit variance.

    Zero-variance columns pass through unchanged and are flagged in the
    returned info. Applying the transform twice is the identity up to
    rounding.
    """
    if dataset.n < 2:
        raise ValueError("standardization needs at least two rows")
    mean = dataset.features.mean(axis=0)
    std = dataset.features.std(axis=0)
    constant = std == 0.0
    scale = np.where(constant, 1.0, std)
    out = dataset.take(slice(None))
    out.features = (dataset.features - np.where(constant, 0.0, mean)) / scale
    return out, StandardizeInfo(mean, scale, constant)


def apply_standardize(dataset: LabeledDataset, info: StandardizeInfo) -> LabeledDataset:
    """Apply a previously fitted standardization (train statistics) to new rows."""
    out = dataset.take(slice(None))
    out.features = (dataset.features - np.where(info.constant_columns, 0.0, info.mean)) / info.scale
    return out


def _iter_lines(source):
    if isinstance(source, str):
        return source.splitlines()
    return [ln.rstrip("\n") for ln in source]


def parse_libsvm(source) -> LabeledDataset:
    """Parse sparse `<label> <idx>:<val> ...` text into a dense dataset.

    Indices must be strictly increasing positive integers per line; the
    feature dimension is the largest index seen anywhere, missing entries
    are zero. Labels map to contiguous classes 1..m preserving numeric
    order; the original values are kept in ``extra["label_values"]``.
    """
    rows: list[dict[int, float]] = []
    labels: list[float] = []
    max_idx = 0
    for ln_no, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(ln_no, f"bad label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise ParseError(ln_no, f"non-finite label {tokens[0]!r}")
        entries: dict[int, float] = {}
        prev = 0
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError(ln_no, f"expected idx:val, got {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(ln_no, f"bad feature token {tok!r}") from None
            if not math.isfinite(val):
                raise ParseError(ln_no, f"non-finite feature value {tok!r}")
            if idx < 1:
                raise ParseError(ln_no, f"feature index {idx} must be >= 1")
            if idx <= prev:
                raise ParseError(ln_no, f"feature indices not increasing at {tok!r}")
            prev = idx
            entries[idx] = val
        max_idx = max(max_idx, prev)
        rows.append(entries)
        labels.append(label)
    if not rows:
        raise ParseError(1, "no samples found")
    X = np.zeros((len(rows), max_idx))
    for r, entries in enumerate(rows):
        for idx, val in entries.items():
            X[r, idx - 1] = val
    label_values = sorted(set(labels))
    mapping = {v: i + 1 for i, v in enumerate(label_values)}
    y = np.array([mapping[v] for v in labels], dtype=int)
    return LabeledDataset(X, y, "classification", n_classes=len(label_values),
                          source="libsvm", extra={"label_values": label_values})


def serialize_libsvm(dataset: LabeledDataset) -> str:
    """Sparse-text form of a classification dataset (nonzero entries only)."""
    if dataset.kind != "classification":
        raise ValueError("serialize_libsvm expects a classification dataset")
    label_values = dataset.extra.get("label_values")
    lines = []
    for r in range(dataset.n):
        cls = int(dataset.targets[r])
        label = label_values[cls - 1] if label_values else cls
        parts = [repr(float(label)) if isinstance(label, float) else str(label)]
        row = dataset.features[r]
        for j in np.flatnonzero(row != 0.0):
            parts.append(f"{j + 1}:{float(row[j])!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_csv_regression(source, target_columns) -> LabeledDataset:
    """Numeric CSV with a header row; named columns become the targets.

    Rows with a missing, non-numeric or non-finite cell in any used column
    are dropped and counted in ``extra["dropped_rows"]``. Comma delimiter,
    ``.`` decimal point, no quoting.
    """
    lines = [ln for ln in _iter_lines(source)]
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing header row")
    header = [h.strip() for h in lines[0].split(",")]
    targets = list(target_columns)
    for name in targets:
        if name not in header:
            raise ValueError(f"target column {name!r} not in header {header}")
    t_idx = [header.index(name) for name in targets]
    f_idx = [j for j in range(len(header)) if j not in t_idx]
    feat_rows, targ_rows, dropped = [], [], 0
    for ln_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = [c.strip() for c in raw.split(",")]
        if len(cells) != len(header):
            raise ParseError(ln_no, f"expected {len(header)} cells, got {len(cells)}")
        try:
            values = [float(cells[j]) if cells[j] != "" else math.nan for j in range(len(header))]
        except ValueError:
            dropped += 1
            continue
        if not all(math.isfinite(values[j]) for j in t_idx + f_idx):
            dropped += 1
            continue
        feat_rows.append([values[j] for j in f_idx])
        targ_rows.append([values[j] for j in t_idx])
    if not feat_rows:
        raise ValueError("no usable rows after dropping incomplete ones")
    return LabeledDataset(
        np.array(feat_rows), np.array(targ_rows), "regression",
        source="csv", feature_names=[header[j] for j in f_idx],
        extra={"dropped_rows": dropped, "target_names": targets},
    )


def sin_target(x: np.ndarray) -> np.ndarray:
    """The scalar regression target sin(2 pi x), shaped (n, 1)."""
    x = np.asarray(x, dtype=float).ravel()
    return np.sin(2.0 * np.pi * x)[:, None]


def gen_sin_regression(n: int, rng: np.random.Generator) -> LabeledDataset:
    """Noiseless scalar task: X uniform on [0, 1], Y = sin(2 pi X)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = rng.random(n)
    return LabeledDataset(x[:, None], sin_target(x), "regression", source="sin-regression")


def harmonic_target(x: np.ndarray, output_dim: int) -> np.ndarray:
    """Vector target stacking sine/cosine harmonics of increasing frequency."""
    x = np.asarray(x, dtype=float).ravel()
    cols = []
    for j in range(output_dim):
        freq = 2.0 * np.pi * (j // 2 + 1)
        cols.append(np.cos(freq * x) if j % 2 else np.sin(freq * x))
    return np.stack(cols, axis=1)


def gen_harmonic_regression(n: int, output_dim: int, rng: np.random.Generator) -> LabeledDataset:
    """Noiseless vector task: X uniform on [0, 1], Y the harmonic stack."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if output_dim < 1:
        raise ValueError("output_dim must be >= 1")
    x = rng.random(n)
    return LabeledDataset(x[:, None], harmonic_target(x, output_dim), "regression",
                          source="harmonic-regression")


_ANCHOR_POSITIONS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def anchor_conditional(x, n_classes: int) -> np.ndarray:
    """Class law P(Y | X = x) for the anchored classification task.

    Piecewise-linear in x between five anchors: point masses on classes
    1, 2, 3 at x = 0, 1/2, 1 and the uniform law at x = 1/4 and 3/4.
    A scalar x gives the (n_classes,) law, an array of n points an
    (n, n_classes) array with one law per row.
    """
    if n_classes < 3:
        raise ValueError("the anchored task needs at least 3 classes")
    x = np.asarray(x, dtype=float)
    if not ((0.0 <= x) & (x <= 1.0)).all():
        raise ValueError("x must lie in [0, 1]")
    anchors = np.zeros((5, n_classes))
    anchors[[1, 3]] = 1.0 / n_classes
    anchors[[0, 2, 4], [0, 1, 2]] = 1.0
    seg = np.minimum((x * 4).astype(int), 3)
    lam = ((x - _ANCHOR_POSITIONS[seg]) / 0.25)[..., None]
    return (1.0 - lam) * anchors[seg] + lam * anchors[seg + 1]


def anchor_support_mask(x: np.ndarray, band_halfwidth: float) -> np.ndarray:
    """True where x avoids the two excluded bands around 1/4 and 3/4."""
    x = np.asarray(x, dtype=float)
    in_band = (np.abs(x - 0.25) <= band_halfwidth) | (np.abs(x - 0.75) <= band_halfwidth)
    return ~in_band


def gen_anchor_classification(n: int, n_classes: int, band_halfwidth: float,
                              rng: np.random.Generator) -> LabeledDataset:
    """Sample the anchored classification task.

    X is uniform on [0, 1] minus the two bands of half-width
    ``band_halfwidth`` around 1/4 and 3/4 (rejection sampling); Y follows
    :func:`anchor_conditional`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= band_halfwidth < 0.25:
        raise ValueError("band half-width must lie in [0, 1/4)")
    xs = np.empty(0)
    while xs.size < n:
        cand = rng.random(2 * (n - xs.size) + 8)
        cand = cand[anchor_support_mask(cand, band_halfwidth)]
        xs = np.concatenate([xs, cand])
    xs = xs[:n]
    probs = anchor_conditional(xs, n_classes)
    cum = np.cumsum(probs, axis=1)
    draws = rng.random(n)
    y = (draws[:, None] >= cum).sum(axis=1) + 1
    return LabeledDataset(xs[:, None], y, "classification", n_classes=n_classes,
                          source="anchor-classification")
