"""Dataset acquisition: sparse-text and CSV parsers, standardization, seeded
splits, and the synthetic regression / classification generators."""

from __future__ import annotations

import itertools
import math
import operator
import re
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import kernel


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class LabeledDataset:
    """Dense feature matrix with either real-vector or class targets.

    ``n_classes`` names the kind: ``None`` means ``targets`` is (n, m) float
    (regression), otherwise (n,) int in 1..n_classes (classification).
    ``extra`` carries parser bookkeeping such as dropped row counts and
    original label values.
    """

    features: np.ndarray
    targets: np.ndarray
    n_classes: int | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a nonempty (n, d) matrix")
        if self.n_classes is None:
            self.targets = kernel._as_rows(self.targets)
            if self.targets.shape[0] != self.n:
                raise ValueError("features and targets disagree on n")
            return
        self.targets, self.n_classes = kernel._class_codes(self.targets, self.n_classes)
        if self.targets.shape[0] != self.n:
            raise ValueError("class targets must be a length-n vector")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def output_dim(self) -> int:
        return self.targets.shape[1] if self.n_classes is None else self.n_classes

    def take(self, idx) -> "LabeledDataset":
        return LabeledDataset(np.array(self.features[idx]), np.array(self.targets[idx]),
                              self.n_classes, dict(self.extra))


def _train_size(n: int, train_fraction: float) -> int:
    return int(n * train_fraction)  # the rows of n that split puts in the training part


def split(dataset: LabeledDataset, train_fraction: float,
          seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded shuffle, then prefix/suffix partition. Deterministic per seed."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    n_train = _train_size(dataset.n, train_fraction)
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
    info = StandardizeInfo(mean, np.where(constant, 1.0, std), constant)
    return apply_standardize(dataset, info), info


def apply_standardize(dataset: LabeledDataset, info: StandardizeInfo) -> LabeledDataset:
    """Apply a previously fitted standardization (train statistics) to new rows."""
    features = dataset.features - np.where(info.constant_columns, 0.0, info.mean)
    features /= info.scale
    return LabeledDataset(features, np.array(dataset.targets), dataset.n_classes,
                          dict(dataset.extra))


def _iter_lines(source):
    """The lines of a str or an open text file, without their line ends, read
    one at a time."""
    if isinstance(source, str):
        # split at \n, \r\n and \r, as a file opened in text mode splits, and
        # read in place: a StringIO would copy the text at 4 bytes a character
        return (ln.group().rstrip("\r\n") for ln in re.finditer(_LINE, source))
    return (ln.rstrip("\n") for ln in source)


# a line and its end, or a last line that has none
_LINE = r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+"


# lines read per block: the text of one block, and the bulk reader's
# temporaries, stay a few hundred kB whatever the file's size
_BLOCK_LINES = 256
# the largest index the bulk reader takes, so that a (line, index) key fits in
# int64; a larger one, or one past int64 (which numpy reads as 2**63 - 1),
# goes to the loop
_MAX_INDEX = 2**40
# what the separator check deletes: every byte but ":" and the ASCII ones
# that str.split() parts tokens at
_NOT_SEPARATOR = bytes(b for b in range(256) if not (b == ord(":") or chr(b).isspace()))


def parse_libsvm(source) -> LabeledDataset:
    """Parse sparse `<label> <idx>:<val> ...` text into a dense dataset.

    Indices must be strictly increasing positive integers per line; the
    feature dimension is the largest index seen anywhere, missing entries
    are zero. Labels map to contiguous classes 1..m preserving numeric
    order; the original values are kept in ``extra["label_values"]``.

    The text is read once, as a stream of blocks of ``_BLOCK_LINES`` lines,
    and only numeric buffers outlive a block. Each block is read in bulk;
    where the bulk reader cannot vouch for it (a malformed or non-finite
    token, an index that is not plain ASCII digits or is past 2**40, or
    indices out of order), the per-token loop reads that block alone: it
    raises the block's first error with its line number, or returns the
    block's rows.
    """
    labels, counts, cols, vals = array("d"), array("q"), array("q"), array("d")
    max_idx = max_line = 0
    lines = _iter_lines(source)
    first = 1
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        part = _read_libsvm_block(block, first)
        if part is None:
            part = _read_libsvm_loop(block, first)
        *news, top, top_line = part
        for buf, new in zip((labels, counts, cols, vals), news):
            buf.frombytes(memoryview(new).cast("B"))
        if top > max_idx:
            max_idx, max_line = top, top_line
        first += len(block)
    return _libsvm_dataset(labels, counts, cols, vals, max_idx, max_line)


def _one_colon_each(text, n) -> bool:
    """True when ``text`` is n tokens parted by single spaces, each holding
    exactly one ":" (and nothing but ASCII); no tokens is the empty text."""
    if not n:
        return not text
    try:
        seps = text.encode("ascii").translate(None, _NOT_SEPARATOR)
    except UnicodeEncodeError:
        return False
    return seps == b":" + b" :" * (n - 1)


def _read_libsvm_block(lines, first):
    """The bulk reading of one block of :func:`parse_libsvm`, whose first line
    is line ``first``: ``(labels, counts, cols, vals, top, top_line)``, with
    each nonblank line's label and entry count, each entry's column and value,
    and the block's largest index with the first line that holds it (0 and 0
    for none); or None where the block needs the loop."""
    heads = [ln.split(None, 1) for ln in lines]
    try:
        label = np.fromiter(map(float, [h[0] for h in heads if h]), float)
    except ValueError:
        return None
    if not np.isfinite(label).all():
        return None
    bodies = [h[1] if len(h) == 2 else "" for h in heads if h]
    # a line's entry count is its number of ":", once the separator
    # check has shown that every token holds exactly one
    count = np.fromiter(map(operator.methodcaller("count", ":"), bodies), np.int64,
                        len(bodies))
    n = int(count.sum())
    text = " ".join(bodies)
    del bodies
    if not _one_colon_each(text, n):
        text = " ".join(text.split())  # part the tokens by single spaces
        if not _one_colon_each(text, n):
            return None
    if not n:
        return label, count, array("q"), array("d"), 0, 0
    parts = text.replace(":", " ").split(" ")
    del text
    idx_text = " ".join(parts[::2])
    if idx_text.encode("ascii").translate(None, b"0123456789 "):
        return None
    # an empty index drops out of the read, which the size check finds
    idx = np.fromstring(idx_text, dtype=np.int64, sep=" ")
    del idx_text
    try:
        val = np.fromiter(map(float, parts[1::2]), float, n)
    except ValueError:
        return None
    del parts
    if idx.size != n or idx.min() < 1 or not np.isfinite(val).all():
        return None
    top = idx.argmax()  # the first entry, so the first line, holding the largest
    if idx[top] > _MAX_INDEX:
        return None
    row = np.repeat(np.arange(count.size), count)
    key = (row << 41) + idx  # (line, index) in row-major order, as one int64
    if not (key[1:] > key[:-1]).all():
        return None
    top_line = first + [j for j, h in enumerate(heads) if h][row[top]]
    top = int(idx[top])
    idx -= 1
    return label, count, idx, val, top, top_line


def _read_libsvm_loop(lines, first):
    """The per-token reading of :func:`parse_libsvm` of the lines from line
    ``first`` on: the same tuple as :func:`_read_libsvm_block`, or the first
    bad line's error. The reference for the bulk reader."""
    labels, counts, cols, vals = array("d"), array("q"), array("q"), array("d")
    top = top_line = 0
    for ln_no, raw in enumerate(lines, start=first):
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
            try:
                cols.append(idx - 1)
            except OverflowError:
                raise ParseError(ln_no, f"feature index {idx} does not fit in 64 bits") from None
            vals.append(val)
        if prev > top:
            top, top_line = prev, ln_no
        labels.append(label)
        counts.append(len(tokens) - 1)
    return labels, counts, cols, vals, top, top_line


def _parse_libsvm_loop(lines) -> LabeledDataset:
    """:func:`parse_libsvm` by the per-token loop alone, over the whole text."""
    return _libsvm_dataset(*_read_libsvm_loop(lines, 1))


def _libsvm_dataset(labels, counts, cols, vals, max_idx, max_line) -> LabeledDataset:
    """The dataset from the unboxed buffers of every nonblank line's label and
    entry count and every entry's column and value; ``max_line`` is the first
    line that holds the largest index, ``max_idx``."""
    if not len(labels):
        raise ParseError(1, "no samples found")
    values, codes = np.unique(np.frombuffer(labels, float), return_inverse=True)
    codes += 1
    try:
        X = np.zeros((len(labels), max_idx))
    except (MemoryError, ValueError):  # numpy's ValueError: a size past the address space
        raise ParseError(max_line, f"feature index {max_idx} needs a dense {len(labels)} x "
                                   f"{max_idx} array, too large to allocate") from None
    # filled one block of lines at a time from views of the buffers: no copy
    # of them, and no row index as long as the entries
    counts = np.frombuffer(counts, np.int64)
    cols, vals = np.frombuffer(cols, np.int64), np.frombuffer(vals, float)
    end = 0
    for lo in range(0, counts.size, _BLOCK_LINES):
        count = counts[lo:lo + _BLOCK_LINES]
        start, end = end, end + int(count.sum())
        X[np.repeat(np.arange(lo, lo + count.size), count), cols[start:end]] = vals[start:end]
    return LabeledDataset(X, codes, len(values), extra={"label_values": values.tolist()})


def serialize_libsvm(dataset: LabeledDataset) -> str:
    """Sparse-text form of a classification dataset (nonzero entries only)."""
    if dataset.n_classes is None:
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
    lines = list(_iter_lines(source))
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing header row")
    header = [h.strip() for h in lines[0].split(",")]
    targets = list(target_columns)
    if not targets:
        raise ValueError("target names no column")
    for name in targets:
        if name not in header:
            raise ValueError(f"target column {name!r} not in header {header}")
        if targets.count(name) > 1:
            raise ValueError(f"target column {name!r} is named more than once")
        if header.count(name) > 1:
            raise ValueError(f"target column {name!r} appears more than once in {header}")
    t_idx = [header.index(name) for name in targets]
    f_idx = [j for j in range(len(header)) if j not in t_idx]
    if not f_idx:
        raise ValueError(f"target names every column of {header}, leaving no feature")
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
        raise ParseError(len(lines), "no usable rows after dropping incomplete ones")
    return LabeledDataset(np.array(feat_rows), np.array(targ_rows),
                          extra={"dropped_rows": dropped})


def sin_target(x: np.ndarray) -> np.ndarray:
    """The scalar regression target sin(2 pi x), shaped (n, 1)."""
    x = np.asarray(x, dtype=float).ravel()
    return np.sin(2.0 * np.pi * x)[:, None]


def gen_sin_regression(n: int, rng: np.random.Generator) -> LabeledDataset:
    """Noiseless scalar task: X uniform on [0, 1], Y = sin(2 pi X)."""
    x = rng.random(kernel._whole(n, "n", 1))
    return LabeledDataset(x[:, None], sin_target(x))


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
    output_dim = kernel._whole(output_dim, "output_dim", 1)
    x = rng.random(kernel._whole(n, "n", 1))
    return LabeledDataset(x[:, None], harmonic_target(x, output_dim))


_ANCHOR_POSITIONS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def anchor_conditional(x, n_classes: int) -> np.ndarray:
    """Class law P(Y | X = x) for the anchored classification task.

    Piecewise-linear in x between five anchors: point masses on classes
    1, 2, 3 at x = 0, 1/2, 1 and the uniform law at x = 1/4 and 3/4.
    A scalar x gives the (n_classes,) law, an array of n points an
    (n, n_classes) array with one law per row.
    """
    if kernel._whole(n_classes, "n_classes") < 3:
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
    """True where x avoids the two excluded bands around 1/4 and 3/4. Refuses a
    half-width outside [0, 1/4): from 1/4 on the bands cover all of [0, 1]."""
    if not 0.0 <= band_halfwidth < 0.25:
        raise ValueError(f"band half-width must lie in [0, 1/4), got {band_halfwidth!r}")
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
    n = kernel._whole(n, "n", 1)
    xs = np.empty(0)
    while xs.size < n:
        cand = rng.random(2 * (n - xs.size) + 8)
        cand = cand[anchor_support_mask(cand, band_halfwidth)]
        xs = np.concatenate([xs, cand])
    xs = xs[:n]
    # the class law, its cumulative sum and the label draws one block of
    # kernel.CHUNK_ROWS samples at a time: the same draws, and so the same
    # labels, as one draw for all n
    y = np.empty(n, dtype=int)
    for lo in range(0, n, kernel.CHUNK_ROWS):
        cum = np.cumsum(anchor_conditional(xs[lo:lo + kernel.CHUNK_ROWS], n_classes), axis=1)
        draws = rng.random(cum.shape[0])
        y[lo:lo + kernel.CHUNK_ROWS] = (draws[:, None] >= cum).sum(axis=1) + 1
    return LabeledDataset(xs[:, None], y, n_classes)
