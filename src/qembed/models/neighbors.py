"""K-nearest-neighbors with deterministic distance tie-breaking."""
from __future__ import annotations

import numpy as np


def sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances D[i, j] = |A[i] - B[j]|^2, via the dot-product
    expansion (may dip just below 0 from rounding)."""
    return np.sum(A**2, axis=1)[:, None] + np.sum(B**2, axis=1)[None, :] - 2.0 * (A @ B.T)


def knn_proba(X_train: np.ndarray, y_train: np.ndarray, k: int, X: np.ndarray) -> np.ndarray:
    """Vote fraction of class 1 among the k nearest training rows.

    Equal distances break toward the lower training-row index (stable sort),
    so predictions are reproducible.
    """
    nearest = np.argsort(sq_distances(X, X_train), axis=1, kind="stable")[:, :k]
    return y_train[nearest].mean(axis=1)
