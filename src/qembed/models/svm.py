"""Kernel SVM trained by sequential minimal optimization (SMO).

The dual is optimized two variables at a time on a maintained gradient,
with the second-order working-set selection of Fan, Chen & Lin (JMLR 6,
2005) and the maximal-violation stop of Keerthi et al. (Neural Comput.
13, 2001); no choice is random.  Class probability is sigmoid(decision
value); rank metrics are unaffected by that monotone squashing.

A fit never holds the m x m kernel matrix: a row of Q = K * y y^T is
computed when a pair update asks for it, from one matrix-vector product
and the squared row norms taken once per fit, and kept in an LRU cache of
at most _CACHE_BYTES (least recently used row out first), as LIBSVM does
(Chang & Lin, ACM TIST 2:27, 2011).  So a fit holds O(_CACHE_BYTES + m d).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from ..errors import DimensionMismatch, InvalidHyperparameter
from ..pipeline import checked_int, checked_real, row_dots
from .neighbors import sq_distances_of_dots, sq_norms

# the settings each family's of_dots reads; one it does not read keeps its default
_READS = {"linear": (), "polynomial": ("gamma", "degree", "coef0"), "rbf": ("gamma",),
          "sigmoid": ("gamma", "coef0")}
KERNEL_KINDS = tuple(_READS)

# bytes of Q rows one fit keeps: 1,329 rows at telco's 3,156 train rows,
# which kept those fits no slower than on the full Gram
_CACHE_BYTES = 32 << 20


@dataclass(frozen=True)
class KernelFn:
    """Kernel family plus its parameters, each left at its default unless the
    family reads it; gamma=None resolves to 1/d, for d features, in `resolve`."""

    kind: str
    gamma: float | None = None
    degree: int = 3
    coef0: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidHyperparameter(f"unknown kernel {self.kind!r}")
        if self.gamma is not None:
            object.__setattr__(self, "gamma", checked_real(
                self.gamma, "gamma", "> 0", (0.0).__lt__, InvalidHyperparameter))
        object.__setattr__(self, "coef0",
                           checked_real(self.coef0, "coef0", error=InvalidHyperparameter))
        object.__setattr__(self, "degree",
                           checked_int(self.degree, 1, "degree", InvalidHyperparameter))
        for f in fields(self)[1:]:
            if f.name not in _READS[self.kind] and getattr(self, f.name) != f.default:
                raise InvalidHyperparameter(f"the {self.kind} kernel does not read {f.name}")

    def resolve(self, n_features: int) -> "KernelFn":
        if self.gamma is not None or self.kind == "linear":
            return self
        if n_features < 1:
            raise DimensionMismatch(
                f"{self.kind} kernel: gamma=1/d needs a feature column, got d=0")
        return KernelFn(self.kind, 1.0 / n_features, self.degree, self.coef0)

    def of_dots(self, dots: np.ndarray, sq_a, sq_b) -> np.ndarray:
        """k(a, b) from the dot products a.b and the squared norms |a|^2 and
        |b|^2, which broadcast against `dots`; needs a resolved gamma.

        Works in place: `dots` is overwritten with the result and returned.
        rbf clips the squared distance at 0, so k(a, a) is exactly 1.
        """
        if self.kind == "polynomial":
            dots *= self.gamma
            dots += self.coef0
            dots **= self.degree
        elif self.kind == "sigmoid":
            dots *= self.gamma
            dots += self.coef0
            np.tanh(dots, out=dots)
        elif self.kind == "rbf":
            np.maximum(sq_distances_of_dots(dots, sq_a, sq_b), 0.0, out=dots)
            dots *= -self.gamma
            np.exp(dots, out=dots)
        return dots


def gram(kernel: KernelFn, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel matrix K[i, j] = k(A[i], B[j]), each row's dots from `row_dots`."""
    return kernel.resolve(A.shape[1]).of_dots(
        row_dots(A, B), sq_norms(A)[:, None], sq_norms(B)[None, :])


def q_rows(X: np.ndarray, y: np.ndarray, kernel: KernelFn):
    """(row, diag) for Q = K * y y^T of one fit: row(i) computes row i when
    first asked for and keeps it in an LRU cache of _CACHE_BYTES of rows (a
    caller reads the cached array, never writes it); diag is Q's diagonal,
    k(x_i, x_i), whose dot product is the squared norm."""
    kernel = kernel.resolve(X.shape[1])
    sq = sq_norms(X)

    @lru_cache(maxsize=max(1, _CACHE_BYTES // (8 * X.shape[0])))
    def row(i: int) -> np.ndarray:
        q = kernel.of_dots(X @ X[i], sq[i], sq)
        q *= y[i] * y
        return q

    return row, kernel.of_dots(sq.copy(), sq, sq)


def fit_smo(
    X: np.ndarray, y01: np.ndarray, kernel: KernelFn, C: float, tol: float, max_iter: int
):
    """SMO with second-order working-set selection.

    Returns (alpha, bias, iterations, converged).  Keeps the dual
    gradient G = Q alpha - 1 with Q = K * y y^T.  Each iteration takes i
    as the maximal violator over I_up, j by the WSS2 gain over I_low,
    moves the pair by the Newton step clipped to the box and updates G
    with two rows of Q from q_rows.  Stops when the violation gap
    max_up(-yG) - min_low(-yG) drops below tol (converged), or after
    max_iter pair updates (not converged).  Pair updates keep
    sum(alpha*y) = 0.  The bias is the mean of -yG over the free vectors,
    or the midpoint of [min_low, max_up] when none is free.
    """
    y = np.where(y01 == 1, 1.0, -1.0)
    Q, diag = q_rows(X, y, kernel)
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
        q_i = Q(i)
        a = np.maximum(diag[i] + diag - 2.0 * y[i] * y * q_i, 1e-12)
        j = int(np.argmin(np.where(low & (b > 0), -b * b / a, np.inf)))
        # alpha_i moves by +y_i t and alpha_j by -y_j t, each toward one bound
        bound_i = C if y[i] > 0 else 0.0
        bound_j = 0.0 if y[j] > 0 else C
        room_i, room_j = abs(bound_i - alpha[i]), abs(bound_j - alpha[j])
        t = min(b[j] / a[j], room_i, room_j)
        old_i, old_j = alpha[i], alpha[j]
        alpha[i] = bound_i if t == room_i else old_i + y[i] * t
        alpha[j] = bound_j if t == room_j else old_j - y[j] * t
        G += (alpha[i] - old_i) * q_i + (alpha[j] - old_j) * Q(j)
    free = (alpha > 0) & (alpha < C)
    bias = float(np.mean(score[free]) if free.any() else (g_up + g_low) / 2)
    return alpha, bias, it, converged

