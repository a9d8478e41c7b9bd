"""Logistic regression fitted by damped Newton steps (IRLS).

Every product that sums over data rows or gives one value per data row
goes through `pipeline.row_dots`, and each Newton system is solved by one
elementwise `pipeline.sweep`, not LAPACK, so the fit's bits follow neither
the BLAS kernel nor its thread count."""
from __future__ import annotations

import numpy as np

from ..pipeline import row_dots, sweep


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def log_loss_l2(X, y, weights, bias, l2) -> float:
    """Mean cross-entropy plus (l2/2)*||w||^2; the bias is unpenalized."""
    p = np.clip(sigmoid(row_dots(X, weights) + bias), 1e-15, 1 - 1e-15)
    ce = -float(np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
    return ce + 0.5 * l2 * float(np.dot(weights, weights))


def log_loss_gradient(X, y, weights, bias, l2) -> tuple[np.ndarray, float]:
    """Analytic gradient of log_loss_l2 in (weights, bias)."""
    err = sigmoid(row_dots(X, weights) + bias) - y
    grad_w = row_dots(X.T, err) / X.shape[0] + l2 * weights
    grad_b = float(np.mean(err))
    return grad_w, grad_b


def fit_logreg(X, y, l2: float, max_iter: int):
    """Damped Newton until the gradient infinity-norm drops below 1e-6.

    Each step is taken in the smaller space, as LIBLINEAR picks primal or dual
    (Lin, Weng & Keerthi 2008): in (w, b) when d <= m, and when d > m in
    (beta, b) with w = X^T beta, by the (m+1)-square J^T H J [u; s] = -J^T g
    for J = diag(X^T, 1), built from K = X X^T once per fit; the (d+1)^2
    Hessian is never formed, and with l2 > 0 the two give one step.  Either
    system is solved by one `sweep` of [[H, g], [g^T, 0]], and an aliased
    pivot (an all-zero column at l2 = 0, a duplicated row) steps by zero.
    The step is then halved until the loss falls by the Armijo fraction of
    its predicted decrease.  Returns (weights, bias, iterations, converged).
    """
    m, d = X.shape
    dual = d > m
    K = row_dots(X, X) if dual else None
    A = np.hstack([K if dual else X, np.ones((m, 1))])
    ridge = l2 * (K if dual else np.eye(d))
    n = A.shape[1]
    theta = np.zeros(n)

    def weights(th):
        return row_dots(X.T, th[:-1]) if dual else th[:-1]

    def loss(th):
        return log_loss_l2(X, y, weights(th), th[-1], l2)

    for it in range(max_iter + 1):
        grad = np.append(*log_loss_gradient(X, y, weights(theta), theta[-1], l2))
        converged = bool(np.max(np.abs(grad)) < 1e-6)
        if converged or it == max_iter:
            break
        if dual:  # J^T g
            grad = np.append(row_dots(X, grad[:-1]), grad[-1])
        p = sigmoid(row_dots(A, theta))
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = row_dots(A.T * (p * (1 - p)), A.T) / m
        M[:n - 1, :n - 1] += ridge
        M[:n, n] = M[n, :n] = grad
        step = np.where(sweep(M, n, 1e-12), 0.0, -M[:n, n])
        # the floor on t ends the search where rounding hides the decrease
        t, base, slope = 1.0, loss(theta), float(grad @ step)
        while t > 1e-10 and loss(theta + t * step) > base + 1e-4 * t * slope:
            t /= 2
        theta = theta + t * step
    return weights(theta), float(theta[-1]), it, converged
