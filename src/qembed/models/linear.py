"""Logistic regression fitted by damped Newton steps (IRLS).

Every product that sums over data rows or gives one value per data row
goes through `pipeline.row_dots`, so the fit's bits do not follow the BLAS
thread count."""
from __future__ import annotations

import numpy as np

from ..pipeline import row_dots


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

    Each step solves the (d+1)x(d+1) Newton system by LU (`solve`); with
    l2 = 0 an all-zero column makes the Hessian singular, and that step
    falls back to least squares.  The step is then halved until the loss
    falls by the Armijo fraction of its predicted decrease.  Returns
    (weights, bias, iterations, converged).
    """
    m, d = X.shape
    A = np.hstack([X, np.ones((m, 1))])
    theta = np.zeros(d + 1)

    def loss(th):
        return log_loss_l2(X, y, th[:d], th[d], l2)

    for it in range(max_iter + 1):
        grad = np.append(*log_loss_gradient(X, y, theta[:d], theta[d], l2))
        converged = bool(np.max(np.abs(grad)) < 1e-6)
        if converged or it == max_iter:
            break
        p = sigmoid(row_dots(A, theta))
        hessian = row_dots(A.T * (p * (1 - p)), A.T)
        hessian /= m  # in place, as the ridge: one (d+1)^2 array a step
        hessian[range(d), range(d)] += l2
        try:
            step = -np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step = -np.linalg.lstsq(hessian, grad, rcond=None)[0]
        # the floor on t ends the search where rounding hides the decrease
        t, base, slope = 1.0, loss(theta), float(grad @ step)
        while t > 1e-10 and loss(theta + t * step) > base + 1e-4 * t * slope:
            t /= 2
        theta = theta + t * step
    return theta[:d], float(theta[d]), it, converged
