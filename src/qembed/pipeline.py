"""Tabular ingestion and preprocessing for the churn benchmark.

Stages: typed CSV loading, correlation pruning, iterative VIF elimination,
seeded balanced undersampling, full-vocabulary one-hot encoding, optional
z-score standardization, PCA with elbow-based component selection, and a
stratified train/test split.  Every stage is deterministic given a seed.
"""
from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClassTooSmall,
    EmptyFile,
    LengthMismatch,
    MissingColumn,
    NonBinaryTarget,
    NonIncreasingRatios,
    SingleClass,
    TooFewComponents,
    UnknownColumn,
    UnparsableCell,
    ZeroVariance,
)

CATEGORICAL = "categorical"
NUMERIC = "numeric"
TARGET = "target"
ID = "id"

COLUMN_KINDS = (CATEGORICAL, NUMERIC, TARGET, ID)


def checked_int(value, minimum: int, name: str, error=ValueError) -> int:
    """value as a Python int, if it is an integer >= minimum; a numpy
    integer passes, a bool or a float such as 12.0 raises `error`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def checked_real(value, name: str, what: str = "", ok=math.isfinite, error=ValueError) -> float:
    """value as a Python float (-0.0 as 0.0), if it is a finite real number, never a bool, that
    ok(float) accepts; a numpy number passes, anything else raises `error` naming `what`."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not (abs(value) <= sys.float_info.max if isinstance(value, int)  # fits a float
                    else math.isfinite(value)) or not ok(float(value))):
        raise error(f"{name} must be a finite real number {what}".rstrip() + f", got {value!r}")
    return float(value) + 0.0  # -0.0 + 0.0 is 0.0


def checked_labels(values, name: str, error=ValueError) -> np.ndarray:
    """values as an int array (no copy when they are ints), if every entry is 0 or 1; a
    bool and 0.0/1.0 pass, anything else raises `error`."""
    values = np.asarray(values)
    if not ((values == 0) | (values == 1)).all():
        raise error(f"{name} must be 0 or 1")
    return values.astype(int, copy=False)


@dataclass(frozen=True)
class ColumnSpec:
    """Declared name and kind of one CSV column."""

    name: str
    kind: str

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"column name must be a string, got {self.name!r}")
        if self.kind not in COLUMN_KINDS:
            raise ValueError(f"unknown column kind {self.kind!r}")


def checked_layout(schema, name: str, error=ValueError) -> None:
    """Raise `error` unless schema names each column once, has one target and has a feature."""
    names = [spec.name for spec in schema]
    if twice := [n for i, n in enumerate(names) if n in names[:i]]:
        raise error(f"duplicate {name} column names: {twice}")
    if [spec.kind for spec in schema].count(TARGET) != 1:
        raise error(f"{name} must declare exactly one target column")
    if not any(spec.kind in (CATEGORICAL, NUMERIC) for spec in schema):
        raise error(f"{name} declares no numeric or categorical feature column")


@dataclass(frozen=True)
class Dataset:
    """Typed columnar view of a loaded CSV.

    Numeric columns hold float arrays; categorical, target and id columns
    hold string tuples.  `blank_counts` records how many blank numeric
    cells were coerced to 0.0 per column.
    """

    schema: tuple[ColumnSpec, ...]
    columns: dict[str, object]
    n_rows: int
    blank_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        checked_layout(self.schema, "schema")

    @property
    def target_name(self) -> str:
        return next(c.name for c in self.schema if c.kind == TARGET)

    def feature_specs(self) -> list[ColumnSpec]:
        return [c for c in self.schema if c.kind in (CATEGORICAL, NUMERIC)]


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense numeric design matrix with named columns and binary labels.  data and labels are
    read-only views that share the caller's arrays' memory where no conversion copies them."""

    data: np.ndarray
    column_names: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=float).view()  # frozen below, not the caller's
        labels = np.ascontiguousarray(checked_labels(self.labels, "labels")).view()
        if data.ndim != 2:
            raise ValueError("data must be 2-D")
        if data.shape[1] != len(self.column_names):
            raise ValueError("one name per column required")
        if data.size and not np.isfinite([data.min(), data.max()]).all():  # min, max keep nan, inf
            raise ValueError("matrix entries must be finite")
        if labels.shape != (data.shape[0],):
            raise ValueError("label length must equal row count")
        data.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    def take_rows(self, idx) -> "FeatureMatrix":
        """The rows a bool mask of length n_rows marks; any other idx is integer row indices."""
        idx = np.asarray(idx)
        if idx.dtype != bool:
            if idx.size and not np.issubdtype(idx.dtype, np.integer):  # [] reads as float
                raise ValueError(f"take_rows needs a bool mask or integer indices, got {idx.dtype}")
            idx = idx.astype(int)
        elif idx.shape != (self.n_rows,):
            raise ValueError(f"row mask of length {idx.size} for a matrix of {self.n_rows} rows")
        return FeatureMatrix(self.data[idx], self.column_names, self.labels[idx])


# --- CSV loading --------------------------------------------------------------

LOAD_BLOCK_ROWS = 1024  # records read, transposed and parsed at a time


def load_csv(path, schema) -> Dataset:
    """Load a comma-delimited, quoted, header-first CSV against a schema.

    A schema that fails `checked_layout` raises ValueError before the file is
    opened.  Extra file columns are ignored; schema columns must all be
    present, and a repeated header name reads its last column.  Blank lines
    are skipped.  Blank, whitespace-only or missing numeric cells parse as 0.0
    and are counted per column in the returned Dataset; any other numeric
    cell that is not a finite number raises UnparsableCell, for the first
    such cell of the first schema column that has one.

    The file is read LOAD_BLOCK_ROWS records at a time, so only one block
    of row lists is alive at once, and each non-numeric column holds one
    string object per distinct value.
    """
    schema = tuple(schema)
    checked_layout(schema, "schema")
    kinds = {spec.name: spec.kind for spec in schema}
    texts = {name: [] for name, kind in kinds.items() if kind != NUMERIC}
    distinct = {name: {} for name in texts}
    parts = {name: [] for name, kind in kinds.items() if kind == NUMERIC}
    blanks = dict.fromkeys(parts, 0)
    first_bad: dict[str, UnparsableCell] = {}
    n_rows = 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyFile(f"{path}: no header row")
        where = {name: j for j, name in enumerate(header)}
        for name in kinds:
            if name not in where:
                raise MissingColumn(f"{path}: column {name!r} not in header")
        while block := list(itertools.islice(reader, LOAD_BLOCK_ROWS)):
            rows = [row for row in block if row]
            # the header on top keeps every header column when all rows are short
            file_columns = list(itertools.zip_longest(header, *rows, fillvalue=""))
            for name in kinds:
                cells = file_columns[where[name]][1:]
                text = list(map(str.strip, cells))
                if name in texts:
                    texts[name].extend(map(distinct[name].setdefault, text, text))
                    continue
                if n_blank := text.count(""):
                    blanks[name] += n_blank
                    text = [t or "0" for t in text]
                try:
                    values = np.fromiter(map(float, text), float, len(text))
                except ValueError:  # cell by cell; from the first bad cell on, values stay nan
                    values = np.full(len(text), math.nan)
                    for i, t in enumerate(text):
                        try:
                            values[i] = float(t)
                        except ValueError:
                            break
                bad = np.flatnonzero(~np.isfinite(values))  # also nan, inf and 1e400
                if bad.size and name not in first_bad:
                    first_bad[name] = UnparsableCell(n_rows + int(bad[0]), name, cells[bad[0]])
                parts[name].append(values)
            n_rows += len(rows)
            del block, rows, file_columns  # freed before the next block is read
    if not n_rows:
        raise EmptyFile(f"{path}: no data rows")
    for name in kinds:  # a bad cell in a later block of an earlier column wins
        if name in first_bad:
            raise first_bad[name]
    del distinct  # then each list goes as soon as its tuple is built
    columns = {name: np.concatenate(parts.pop(name)) if name in parts else tuple(texts.pop(name))
               for name in kinds}
    return Dataset(schema, columns, n_rows, {name: n for name, n in blanks.items() if n})


def binary_labels(dataset: Dataset) -> tuple[np.ndarray, dict[str, int]]:
    """Map the two target values to 0/1 in sorted order (e.g. No=0, Yes=1)."""
    name = dataset.target_name
    raw = dataset.columns[name]
    values = sorted(set(raw))
    if len(values) < 2:
        raise SingleClass(f"target column {name!r} has a single value {values[0]!r}")
    if len(values) > 2:
        raise NonBinaryTarget(f"target column {name!r} has {len(values)} values, not 2")
    mapping = {values[0]: 0, values[1]: 1}
    return np.array([mapping[v] for v in raw], dtype=int), mapping


# --- column statistics ----------------------------------------------------------

PCA_BLOCK_ROWS = 1024  # centred rows summed into `covariance` at a time


def covariance(X: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """(X - mean)^T (X - mean), summed PCA_BLOCK_ROWS centred rows at a time, with no full-size
    centred copy; einsum without `optimize` calls no BLAS, so no kernel or thread moves a bit."""
    cov = np.zeros((X.shape[1], X.shape[1]))
    for start in range(0, X.shape[0], PCA_BLOCK_ROWS):
        block = X[start:start + PCA_BLOCK_ROWS] - mean
        cov += np.einsum("ki,kj->ij", block, block)
    return cov


def correlation_matrix(matrix: FeatureMatrix) -> np.ndarray:
    """Pearson correlation C[a, b] of every pair of columns, from their `covariance`.

    A column of equal values raises ZeroVariance naming it; the test is on
    the values, since centring by an inexact mean need not leave exact zeros.
    """
    X = matrix.data
    constant = np.ptp(X, axis=0) == 0
    if constant.any():
        raise ZeroVariance(f"column {matrix.column_names[constant.argmax()]!r} is constant")
    cov = covariance(X, X.mean(axis=0))
    scale = np.sqrt(np.diag(cov))
    return cov / np.outer(scale, scale)


def sweep(M: np.ndarray, n: int) -> np.ndarray:
    """Gauss-Jordan sweep of the symmetric M on pivots 0..n-1, in place (Beaton 1964;
    Goodnight 1979).  A pivot at or under 1e-12 times its diagonal before the sweep is
    aliased, in the span of the pivots swept before it, and skipped; returns the aliased
    mask.  With S the swept pivots and R the rest, M[S, S] ends as -M_SS^-1 and M[S, R]
    as M_SS^-1 M_SR.  Elementwise numpy: no BLAS kernel or thread count moves a bit."""
    floor = 1e-12 * M.diagonal()[:n]
    aliased = np.zeros(n, dtype=bool)
    for k in range(n):
        pivot = M[k, k]
        if pivot <= floor[k]:
            aliased[k] = True
            continue
        col = M[:, k] / pivot
        M -= M[:, k, None] * col
        M[k] = M[:, k] = col
        M[k, k] = -1.0 / pivot
    return aliased


@dataclass(frozen=True)
class VifEntry:
    column: str
    vif: float
    infinite: bool


def compute_vif(corr: np.ndarray, names) -> list[VifEntry]:
    """Variance inflation factor per column, from the columns' correlation matrix C.

    VIF_j = 1/(1 - R^2_j), R^2_j that of an intercept-included least-squares
    fit of column j on the others, read off one `sweep` of C on every pivot.
    M[k, k] is then C[k, k] (1 - R^2) for column k on the columns swept before
    it; at or under the sweep's 1e-12 * C[k, k] (R^2 >= 1 - 1e-12) k is
    aliased, in the span of those columns.  With S the swept set, -M[j, j] =
    [C_SS^-1]_jj is VIF_j for j in S, and M[S, a] the fit of an aliased
    column a on S.  A column is infinite (flagged, not raised) when aliased,
    when an aliased column's fit uses it with a coefficient above 1e-8 (a
    coefficient's rounding is about eps times the swept columns' VIFs), or
    when its VIF exceeds 1e12.
    """
    d = len(names)
    if d < 2 or corr.shape != (d, d):
        raise LengthMismatch(f"VIF needs at least two columns and a {d} x {d} C, got {corr.shape}")
    M = corr.copy()
    aliased = sweep(M, d)
    vif = np.maximum(1.0, -M.diagonal())
    infinite = aliased | (vif > 1e12)
    infinite[~aliased] |= (np.abs(M[np.ix_(~aliased, aliased)]) > 1e-8).any(axis=1)
    return [VifEntry(name, math.inf if inf else float(v), bool(inf))
            for name, v, inf in zip(names, vif, infinite)]


def iterative_vif_prune(
    corr: np.ndarray, names, threshold: float
) -> tuple[list[int], list[list[VifEntry]], list[VifEntry]]:
    """Drop the worst VIF offender and recompute until all fall under threshold.

    Each round reads the block of `corr` (the correlation matrix of the
    columns `names`) over the columns kept so far.  Ties (including several
    infinite entries) break toward the earlier column.  Returns the kept
    column indices, the per-iteration VIF tables, and the entries that
    were dropped, in drop order.
    """
    if not threshold > 1:  # nan too
        raise ValueError("VIF threshold must exceed 1")
    keep = list(range(len(names)))
    iterations: list[list[VifEntry]] = []
    dropped: list[VifEntry] = []
    while len(keep) >= 2:
        entries = compute_vif(corr[np.ix_(keep, keep)], [names[j] for j in keep])
        iterations.append(entries)
        i, worst = max(enumerate(entries), key=lambda it: (it[1].vif, -it[0]))
        if not worst.infinite and worst.vif <= threshold:
            break
        dropped.append(worst)
        del keep[i]
    return keep, iterations, dropped


# --- encoding to numeric matrices ------------------------------------------------

def _codes(values) -> tuple[list[str], np.ndarray]:
    """Categories in first-appearance order, and each value's index among them."""
    index = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return list(index), np.fromiter(map(index.__getitem__, values), np.intp, len(values))


def ordinal_matrix(
    dataset: Dataset, labels: np.ndarray | None = None
) -> tuple[FeatureMatrix, dict[str, list[str]]]:
    """Every feature column as numbers, each categorical column coded once.

    Categories are coded by first appearance.  Returns the matrix, in
    schema order, and each categorical column's vocabulary in code order:
    the drop stages work on the codes, and `one_hot` expands them.  The
    matrix carries `labels`, or the `binary_labels` of the target when
    none are given.
    """
    if labels is None:
        labels, _ = binary_labels(dataset)
    specs, vocabularies = dataset.feature_specs(), {}
    data = np.empty((labels.size, len(specs)))  # filled column by column, not stacked
    for j, spec in enumerate(specs):
        if spec.kind == NUMERIC:
            data[:, j] = dataset.columns[spec.name]
        else:
            vocabularies[spec.name], data[:, j] = _codes(dataset.columns[spec.name])
    return FeatureMatrix(data, tuple(spec.name for spec in specs), labels), vocabularies


def one_hot(matrix: FeatureMatrix, vocabularies) -> FeatureMatrix:
    """Expand every coded categorical column into full-vocabulary indicators.

    No category is dropped as a reference level.  Each column with a
    vocabulary becomes one indicator per category, in place and in code
    order, named like "Contract=Month-to-month"; other columns pass through.
    """
    groups = [[f"{name}={cat}" for cat in vocabularies[name]] if name in vocabularies else [name]
              for name in matrix.column_names]
    data = np.empty((matrix.n_rows, sum(map(len, groups))))
    stops = itertools.accumulate(map(len, groups))
    for j, (name, width, stop) in enumerate(zip(matrix.column_names, map(len, groups), stops)):
        column = matrix.data[:, j, None]
        data[:, stop - width:stop] = column == np.arange(width) if name in vocabularies else column
    return FeatureMatrix(data, tuple(itertools.chain.from_iterable(groups)), matrix.labels)


# --- balancing and splitting ------------------------------------------------------

def undersample(matrix: FeatureMatrix, seed: int) -> FeatureMatrix:
    """Balance classes by sampling the majority down to the minority count.

    All minority rows are kept; the combined rows are shuffled by the same
    seeded generator, so equal seeds give identical output.
    """
    labels = matrix.labels
    counts = np.bincount(labels, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise SingleClass("undersampling needs both classes present")
    rng = np.random.default_rng(seed)
    minority = int(np.argmin(counts))
    keep = np.flatnonzero(labels == minority)
    majority_idx = np.flatnonzero(labels != minority)
    sampled = rng.choice(majority_idx, size=counts[minority], replace=False)
    idx = rng.permutation(np.concatenate([keep, sampled]))
    return matrix.take_rows(idx)


def train_test_split(
    matrix: FeatureMatrix, ratio: float, seed: int
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Seeded stratified split; each class contributes floor(m*ratio) to train.

    Raises ClassTooSmall when a class would leave either split without a row.
    """
    if not 0 < ratio < 1:
        raise ValueError("split ratio must be in (0, 1)")
    labels = matrix.labels
    perm = np.random.default_rng(seed).permutation(matrix.n_rows)
    in_train = np.zeros(matrix.n_rows, dtype=bool)
    for cls in (0, 1):
        members = perm[labels[perm] == cls]
        # epsilon guards floor against float products landing just under an integer
        n_train = int(math.floor(members.size * ratio + 1e-9))
        if n_train in (0, members.size):
            empty = "train" if n_train == 0 else "test"
            raise ClassTooSmall(
                f"class {cls} has {members.size} rows, so split_ratio {ratio} "
                f"puts none of them in the {empty} split"
            )
        in_train[members[:n_train]] = True
    train_idx = perm[in_train[perm]]
    test_idx = perm[~in_train[perm]]
    return matrix.take_rows(train_idx), matrix.take_rows(test_idx)


# --- standardization and PCA -------------------------------------------------------

@dataclass(frozen=True)
class Standardizer:
    """Column-wise z-score parameters fitted on one matrix."""

    mean: np.ndarray
    scale: np.ndarray

    @staticmethod
    def fit(matrix: FeatureMatrix) -> "Standardizer":
        """Mean and std in blocks of 8-15 columns (one block under 16 columns), so
        std's centred temporary is a block.  numpy sums a block's columns down the
        rows as it does the matrix's, except a one-column block, summed pairwise."""
        blocks = np.array_split(matrix.data, max(1, matrix.n_cols // 8), axis=1)
        mean = np.concatenate([block.mean(axis=0) for block in blocks])
        scale = np.concatenate([block.std(axis=0) for block in blocks])
        scale = np.where(scale == 0, 1.0, scale)  # constant columns pass through
        return Standardizer(mean, scale)

    def transform(self, matrix: FeatureMatrix) -> FeatureMatrix:
        data = matrix.data - self.mean
        data /= self.scale  # in place: one matrix-sized temporary, not two
        return FeatureMatrix(data, matrix.column_names, matrix.labels)


@dataclass(frozen=True)
class PcaModel:
    """Principal components fitted on a training matrix.

    `components` is k x d with orthonormal rows; `explained_variance_ratio`
    covers all d directions (~0 past the numerical rank) so its
    cumulative curve ends at 1.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray
    rank: int  # numerical rank of the centered matrix

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def rank_deficient(self) -> bool:
        return self.n_components > self.rank


def _jacobi_eigh(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (unsorted) and orthonormal eigenvectors (columns) of a symmetric C by cyclic
    Jacobi in round-robin parallel order (Golub & Van Loan, Matrix Computations, Jacobi methods)
    from elementwise numpy alone, so no BLAS or LAPACK kernel moves a bit.  Each round rotates
    ceil(d/2) disjoint pairs, skipping entries under eps |C|_F, until the off-diagonal norm is at
    most d eps |C|_F."""
    d = len(C)
    n = d + d % 2  # an odd d gets a zero row and column in front, at the fixed position 0
    # [A | V^T], A = V^T C V, rows and A's columns in the round's positions: i pairs with n-1-i
    AV = np.hstack([np.pad(C, (n - d, 0)), np.eye(n)])
    nxt = np.r_[0, n - 1, 1:n - 1]  # after a round, position j >= 1 moves to j + 1, n - 1 to 1
    move = np.arange(2 * n * n).reshape(n, 2 * n)[nxt][:, np.r_[nxt, n:2 * n]].ravel()
    p = np.arange(n // 2)
    q = n - 1 - p
    pivots = np.r_[p, q, p] * 2 * n + np.r_[p, q, q]  # of A[p, p], A[q, q] and A[p, q] in AV
    off, floor = ~np.eye(n, dtype=bool), np.finfo(float).eps * np.sqrt(np.sum(C * C))
    for _ in range(100):  # a cap; the bench's covariances take 7-11 sweeps
        if np.sqrt(np.sum(np.square(AV[:, :n][off]))) <= d * floor:
            break
        for _ in range(n - 1):
            app, aqq, apq = AV.take(pivots).reshape(3, -1)
            # t = tan of the angle zeroing A[p, q] (sym.schur2), written without dividing by apq
            delta, two = aqq - app, apq + apq
            den = delta + np.copysign(np.sqrt(delta * delta + two * two), delta)
            den[np.abs(apq) <= floor] = np.inf  # t = 0: no rotation
            t = two / den
            c = 1 / np.sqrt(1 + t * t)
            s = t * c
            cc, ss = np.concatenate([c, c[::-1]])[:, None], np.concatenate([-s, s[::-1]])[:, None]
            AV = AV * cc + AV[::-1] * ss  # J^T [A | V^T]
            T = AV[:, :n].T  # a view: both products are taken before the add
            np.add(T * cc, T[::-1] * ss, out=AV[:, :n])  # J^T A J
            AV = AV.take(move).reshape(n, 2 * n)
    return AV[:, :n].diagonal()[n - d:].copy(), AV[n - d:, 2 * n - d:].T


def pca_fit(matrix: FeatureMatrix, k: int) -> PcaModel:
    """Top-k principal directions of the centered matrix X: the `_jacobi_eigh` eigenvectors of
    its `covariance`, by descending eigenvalue (a stable sort), with no BLAS or LAPACK call.

    Eigenvalues that round below 0 count as 0 in the ratios; the rank counts those above
    lambda_0 * max(m, d) * eps.  Each component's first entry within a relative 1e-6 of its
    largest |entry| is positive: a one-hot pair ties two entries to ~1e-15, and a bare argmax
    would let rounding pick the sign.  k past the numerical rank is allowed; the model is
    flagged rank-deficient and trailing ratios are ~0.
    """
    X = matrix.data
    m, d = X.shape
    if not 1 <= k <= min(m - 1, d):
        raise ValueError(f"k={k} outside [1, min(rows-1, cols)={min(m - 1, d)}]")
    mean = X.mean(axis=0)
    eig, vectors = _jacobi_eigh(covariance(X, mean))
    order = np.argsort(-eig, kind="stable")
    eig, vt = eig[order], vectors.T[order]
    variance = np.maximum(eig, 0.0)
    total = float(np.sum(variance))
    ratios = variance / total if total > 0 else np.zeros(d)
    size = np.abs(vt[:k])
    pivot = np.argmax(size >= size.max(axis=1, keepdims=True) * (1 - 1e-6), axis=1)
    components = vt[:k] * np.sign(vt[np.arange(k), pivot])[:, None]
    rank = int(np.sum(eig > eig[0] * max(m, d) * np.finfo(float).eps))
    return PcaModel(mean, components, ratios, rank)


def pca_transform(model: PcaModel, matrix: FeatureMatrix) -> FeatureMatrix:
    """Project rows onto the fitted components."""
    return _project(model, matrix.data - model.mean, matrix.labels)


def _project(model: PcaModel, centred: np.ndarray, labels) -> FeatureMatrix:
    names = tuple(f"pc{i}" for i in range(model.n_components))
    return FeatureMatrix(row_dots(centred, model.components), names, labels)


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B.T or A @ b; einsum sums each row alone, not BLAS: blocks and threads keep its bits."""
    return np.einsum("ik,...k->i...", A, B)


def pca_inverse_transform(model: PcaModel, matrix: FeatureMatrix) -> np.ndarray:
    """Map component scores back to the original feature space."""
    return np.einsum("ik,kj->ij", matrix.data, model.components) + model.mean


def find_elbow(ratios) -> int:
    """Elbow of an explained-variance curve.

    Builds the cumulative curve and returns the index with maximum
    perpendicular distance to the chord joining its endpoints; ties break
    toward the smaller index.
    """
    ratios = np.asarray(ratios, dtype=float)
    if ratios.ndim != 1 or ratios.size < 3:
        raise TooFewComponents("elbow needs at least three ratios")
    if not np.isfinite(ratios).all() or np.any(np.diff(ratios) > 1e-9):
        raise NonIncreasingRatios("ratios must be finite and nonincreasing")
    cum = np.cumsum(ratios)
    n = cum.size
    x = np.arange(n)
    dx, dy = n - 1, cum[-1] - cum[0]
    # distance from (x_i, cum_i) to the line through (0, cum_0), (n-1, cum_{n-1})
    dist = np.abs(dy * x - dx * (cum - cum[0])) / math.hypot(dx, dy)
    # near-ties (within float noise of the max) resolve to the smaller index
    return int(np.flatnonzero(dist >= dist.max() - 1e-12)[0])


# --- end-to-end orchestration --------------------------------------------------------

@dataclass(frozen=True)
class PreprocessOptions:
    """Knobs for run_preprocess; defaults match the telco churn benchmark.  Thresholds
    are stored as Python floats, counts as ints, the flag as a bool, names as a tuple."""

    corr_threshold: float = 0.8
    vif_threshold: float = 12.0
    extra_drops: tuple[str, ...] = ()
    standardize: bool = True
    split_ratio: float = 0.8
    n_components: int | None = None  # None: pick by elbow

    def __post_init__(self):
        for name, what, ok in (("corr_threshold", "in (0, 1]", lambda v: 0 < v <= 1),
                               ("vif_threshold", "> 1", lambda v: v > 1),
                               ("split_ratio", "in (0, 1)", lambda v: 0 < v < 1)):
            object.__setattr__(self, name, checked_real(getattr(self, name), name, what, ok))
        if self.n_components is not None:
            object.__setattr__(self, "n_components",
                               checked_int(self.n_components, 1, "n_components"))
        if not isinstance(self.standardize, (bool, np.bool_)):
            raise ValueError(f"standardize must be true or false, got {self.standardize!r}")
        object.__setattr__(self, "standardize", bool(self.standardize))
        if not isinstance(self.extra_drops, (list, tuple)) or not all(
                isinstance(name, str) for name in self.extra_drops):
            raise ValueError(f"extra_drops must be column names, got {self.extra_drops!r}")
        object.__setattr__(self, "extra_drops", tuple(self.extra_drops))
        if len(set(self.extra_drops)) < len(self.extra_drops):
            raise ValueError(f"extra_drops must name each column once, got {self.extra_drops!r}")


@dataclass
class DroppedColumn:
    name: str
    reason: str  # id | correlation | vif | config
    statistic: float


@dataclass
class PreprocessReport:
    """What the pipeline did and why, one entry per decision."""

    dropped: list[DroppedColumn] = field(default_factory=list)
    vif_iterations: list[list[VifEntry]] = field(default_factory=list)
    blank_numeric_cells: dict[str, int] = field(default_factory=dict)
    label_mapping: dict[str, int] = field(default_factory=dict)
    one_hot_columns: int = 0
    class_counts_before: dict[str, int] = field(default_factory=dict)
    class_counts_after: dict[str, int] = field(default_factory=dict)
    elbow_index: int | None = None  # None under three explained-variance ratios
    cumulative_at_elbow: float | None = None
    n_components: int = 0
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class PreprocessResult:
    train: FeatureMatrix
    test: FeatureMatrix
    pca: PcaModel
    report: PreprocessReport


def _class_counts(labels: np.ndarray) -> dict[str, int]:
    counts = np.bincount(labels, minlength=2)
    return {"0": int(counts[0]), "1": int(counts[1])}


def run_preprocess(dataset: Dataset, options: PreprocessOptions, seed: int = 0) -> PreprocessResult:
    """Full preprocessing chain from a typed Dataset to train/test matrices.

    The stages run in a fixed order: drop ids, prune one of each highly
    correlated numeric pair, drop high-VIF columns (on ordinal-coded
    features), drop `extra_drops`, undersample to balance, one-hot the
    surviving categoricals, standardize, fit PCA, keep components up to the
    elbow, then split.  Categorical columns are coded once, into one
    `ordinal_matrix`, and the dataset is let go; the drop stages pick its
    columns off one correlation matrix and `undersample` its rows, and
    `one_hot` expands the cut, whose array is standardized and centred in
    place.  Balancing and PCA both happen before the split; the report notes it.
    `seed` draws the undersample and the split.
    """
    seed = checked_int(seed, 0, "seed")
    report = PreprocessReport(blank_numeric_cells=dict(dataset.blank_counts))
    report.dropped = [DroppedColumn(c.name, "id", 0.0) for c in dataset.schema if c.kind == ID]
    labels, report.label_mapping = binary_labels(dataset)
    matrix, vocabularies = ordinal_matrix(dataset, labels)  # id columns are not features
    del dataset  # the caller's last reference, when it passed the load straight in

    # one C over every feature column: the correlation stage reads C[a, b] for
    # numeric pairs (the later column of each offending pair goes), and each
    # VIF round reads C's block over the columns left
    names = matrix.column_names
    keep = list(range(len(names)))  # indices of the ordinal matrix's columns left
    corr = correlation_matrix(matrix)  # under two columns: no pair, and no VIF round
    for a, b in itertools.combinations([j for j in keep if names[j] not in vocabularies], 2):
        if a in keep and b in keep and abs(corr[a, b]) >= options.corr_threshold:
            keep.remove(b)
            report.dropped.append(DroppedColumn(names[b], "correlation", float(corr[a, b])))
    kept, report.vif_iterations, vif_dropped = iterative_vif_prune(
        corr[np.ix_(keep, keep)], [names[j] for j in keep], options.vif_threshold)
    keep = [keep[i] for i in kept]
    report.dropped += [DroppedColumn(e.column, "vif", e.vif) for e in vif_dropped]

    for name in options.extra_drops:
        if name not in [names[j] for j in keep]:
            raise UnknownColumn(f"extra_drops: {name!r} is not a feature column left to drop")
        report.dropped.append(DroppedColumn(name, "config", 0.0))
    keep = [j for j in keep if names[j] not in options.extra_drops]
    if not keep:
        raise TooFewComponents(
            "extra_drops: no feature column is left after the correlation and VIF drops")

    report.class_counts_before = _class_counts(matrix.labels)
    matrix = undersample(matrix, seed)  # rows, then columns: the cut copies fewer rows
    report.class_counts_after = _class_counts(matrix.labels)
    matrix = FeatureMatrix(matrix.data.take(keep, axis=1),  # one cut; C order, unlike [:, keep]
                           tuple(names[j] for j in keep), matrix.labels)

    matrix = one_hot(matrix, vocabularies)
    report.one_hot_columns = matrix.n_cols
    data = matrix.data  # one_hot's own array, held here alone: updated in place
    data.setflags(write=True)
    if options.standardize:  # Standardizer.transform's arithmetic, without its copy
        scaler = Standardizer.fit(matrix)
        data -= scaler.mean
        data /= scaler.scale

    full = pca_fit(matrix, min(matrix.n_rows - 1, matrix.n_cols))
    ratios, k = full.explained_variance_ratio, options.n_components
    if ratios.size >= 3:  # fewer ratios have no elbow, and n_components must say
        report.elbow_index = elbow = find_elbow(ratios)
        report.cumulative_at_elbow = float(np.cumsum(ratios)[elbow])
        k = max(elbow, 1) if k is None else k
    elif k is None:
        raise TooFewComponents(f"{ratios.size} components have no elbow; set n_components")
    if not 1 <= k <= full.n_components:
        raise TooFewComponents(f"n_components={k} outside [1, {full.n_components}]")
    model = dataclasses.replace(full, components=full.components[:k])  # same eigenpairs
    report.n_components = k
    if model.rank_deficient:
        report.notes.append("requested components exceed numerical rank")
    report.notes.append(
        "balancing, standardization and PCA are fitted on the full pre-split data"
    )
    data -= model.mean  # pca_transform's centring, without its copy
    scores = _project(model, data, matrix.labels)
    del matrix, data  # before the split copies the scores

    train, test = train_test_split(scores, options.split_ratio, seed)
    return PreprocessResult(train, test, model, report)
