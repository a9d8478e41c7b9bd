"""K-nearest-neighbors with deterministic distance tie-breaking."""
from __future__ import annotations

import numpy as np

from ..pipeline import row_dots


def sq_norms(A: np.ndarray) -> np.ndarray:
    return np.sum(A**2, axis=1)


def sq_distances_of_dots(dots: np.ndarray, sq_a, sq_b) -> np.ndarray:
    """Squared distances (|a|^2 + |b|^2) - 2 a.b from the dot products and the
    squared norms, which broadcast against `dots`; `dots` is overwritten with
    the result (which may dip just below 0 from rounding)."""
    dots *= -2.0
    dots += sq_a + sq_b
    return dots


def sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances D[i, j] = |A[i] - B[j]|^2."""
    return sq_distances_of_dots(row_dots(A, B), sq_norms(A)[:, None], sq_norms(B)[None, :])


def knn_proba(X_train: np.ndarray, y_train: np.ndarray, k: int, X: np.ndarray) -> np.ndarray:
    """Vote fraction of class 1 among the k nearest training rows.

    Equal distances break toward the lower training-row index, as a stable
    sort would, so predictions are reproducible.  No row is sorted: each
    row's k-th smallest distance comes from a partition, every training row
    strictly closer is taken, and the rows at exactly that distance fill the
    places left, lowest index first.
    """
    D = sq_distances(X, X_train)
    # a column index (not a view) frees the partitioned copy at once
    kth = np.partition(D, k - 1, axis=1)[:, [k - 1]]
    closer = D < kth
    at = D == kth
    left = k - np.count_nonzero(closer, axis=1)
    # running count of the rows at the k-th distance; it stays below the
    # training rows, so int32 holds it, summed in place
    rank = at.astype(np.int32)
    np.cumsum(rank, axis=1, out=rank)
    closer |= at & (rank <= left[:, None])
    return np.count_nonzero(closer & (y_train == 1), axis=1) / k
