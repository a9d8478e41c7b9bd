"""Kernel SVM trained by sequential minimal optimization (SMO).

The dual is optimized two variables at a time on a maintained gradient,
with the second-order working-set selection of Fan, Chen & Lin (JMLR 6,
2005) and the maximal-violation stop of Keerthi et al. (Neural Comput.
13, 2001); no choice is random.  Class probability is sigmoid(decision
value); rank metrics are unaffected by that monotone squashing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidHyperparameter, LengthMismatch
from ..pipeline import checked_int
from .neighbors import sq_distances

KERNEL_KINDS = ("linear", "polynomial", "rbf", "sigmoid")


@dataclass(frozen=True)
class KernelFn:
    """Kernel family plus its parameters; gamma=None resolves to 1/d, for d
    features, in `resolve`, which the fit and `gram` call."""

    kind: str
    gamma: float | None = None
    degree: int = 3
    coef0: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidHyperparameter(f"unknown kernel {self.kind!r}")
        if self.gamma is not None and not self.gamma > 0:
            raise InvalidHyperparameter("gamma must be positive")
        object.__setattr__(self, "degree",
                           checked_int(self.degree, 1, "degree", InvalidHyperparameter))

    def resolve(self, n_features: int) -> "KernelFn":
        if self.gamma is not None or self.kind == "linear":
            return self
        return KernelFn(self.kind, 1.0 / n_features, self.degree, self.coef0)


def kernel_eval(kernel: KernelFn, a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch("kernel arguments must be equal-length vectors")
    return float(gram(kernel, a[None, :], b[None, :])[0, 0])


def gram(kernel: KernelFn, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel matrix K[i, j] = k(A[i], B[j])."""
    if kernel.kind == "linear":
        return A @ B.T
    g = kernel.resolve(A.shape[1]).gamma
    if kernel.kind == "polynomial":
        return (g * (A @ B.T) + kernel.coef0) ** kernel.degree
    if kernel.kind == "sigmoid":
        return np.tanh(g * (A @ B.T) + kernel.coef0)
    return np.exp(-g * np.maximum(sq_distances(A, B), 0.0))


def fit_smo(
    X: np.ndarray, y01: np.ndarray, kernel: KernelFn, C: float, tol: float, max_iter: int
):
    """SMO with second-order working-set selection.

    Returns (alpha, bias, iterations, converged).  Keeps the dual
    gradient G = Q alpha - 1 with Q = K * y y^T.  Each iteration takes i
    as the maximal violator over I_up, j by the WSS2 gain over I_low,
    moves the pair by the Newton step clipped to the box and updates G
    with two rows of Q.  Stops when the violation gap max_up(-yG) -
    min_low(-yG) drops below tol (converged), or after max_iter pair
    updates (not converged).  Pair updates keep sum(alpha*y) = 0.  The
    bias is the mean of -yG over the free vectors, or the midpoint of
    [min_low, max_up] when none is free.
    """
    y = np.where(y01 == 1, 1.0, -1.0)
    Q = gram(kernel, X, X)
    Q *= y[:, None]
    Q *= y
    diag = Q.diagonal().copy()
    alpha = np.zeros(X.shape[0])
    G = -np.ones(X.shape[0])
    for it in range(max_iter + 1):
        score = -y * G
        up = np.where(y > 0, alpha < C, alpha > 0)
        low = np.where(y > 0, alpha > 0, alpha < C)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        g_up, g_low = score[i], np.min(score[low])
        converged = bool(g_up - g_low < tol)
        if converged or it == max_iter:
            break
        # curvature along the pair direction, clamped as LIBSVM's tau
        # clamps it so that a non-PSD kernel (sigmoid) still steps
        b = g_up - score
        a = np.maximum(diag[i] + diag - 2.0 * y[i] * y * Q[i], 1e-12)
        j = int(np.argmin(np.where(low & (b > 0), -b * b / a, np.inf)))
        # alpha_i moves by +y_i t and alpha_j by -y_j t, each toward one bound
        bound_i = C if y[i] > 0 else 0.0
        bound_j = 0.0 if y[j] > 0 else C
        room_i, room_j = abs(bound_i - alpha[i]), abs(bound_j - alpha[j])
        t = min(b[j] / a[j], room_i, room_j)
        old_i, old_j = alpha[i], alpha[j]
        alpha[i] = bound_i if t == room_i else old_i + y[i] * t
        alpha[j] = bound_j if t == room_j else old_j - y[j] * t
        G += (alpha[i] - old_i) * Q[i] + (alpha[j] - old_j) * Q[j]
    free = (alpha > 0) & (alpha < C)
    bias = float(np.mean(score[free]) if free.any() else (g_up + g_low) / 2)
    return alpha, bias, it, converged


def decision_values(X_train, y01_train, alpha, bias, kernel, X) -> np.ndarray:
    y = np.where(y01_train == 1, 1.0, -1.0)
    return gram(kernel, X, X_train) @ (alpha * y) + bias
