"""Tree ensembles: bagged forest, SAMME AdaBoost on stumps, gradient boosting."""
from __future__ import annotations

import math

import numpy as np

from .linear import sigmoid
from .tree import Tree, grow_classifier, grow_regression, presort


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int,
    feature_fraction: float | None,
    max_depth: int | None,
    min_leaf: int,
    bootstrap: bool,
    rng: np.random.Generator,
) -> list[Tree]:
    """Bootstrap bagging with per-split feature subsampling.

    feature_fraction=None defaults to 1/sqrt(d).  With one tree, full
    features and no bootstrap this reduces to the plain classifier tree.
    """
    m, d = X.shape
    frac = feature_fraction if feature_fraction is not None else 1.0 / math.sqrt(d)
    n_sub = max(1, min(d, int(round(frac * d))))
    trees = []
    for _ in range(n_trees):
        idx = rng.integers(0, m, size=m) if bootstrap else np.arange(m)
        trees.append(
            grow_classifier(
                X[idx], y[idx], max_depth=max_depth, min_leaf=min_leaf,
                n_sub=n_sub, rng=rng,
            )
        )
    return trees


def forest_proba(trees: list[Tree], X: np.ndarray) -> np.ndarray:
    return np.mean([t.predict(X) for t in trees], axis=0)


def fit_adaboost(
    X: np.ndarray, y: np.ndarray, n_rounds: int
) -> tuple[list[Tree], list[float]]:
    """SAMME with depth-1 stumps on a binary problem.

    Sample weights renormalize to sum 1 after every round.  A round with
    weighted error 0 gets a large clamped vote and ends training; a round
    no better than chance is discarded and ends training.  Columns are
    sorted once per fit.
    """
    m = X.shape[0]
    w = np.full(m, 1.0 / m)
    order = presort(X)
    stumps: list[Tree] = []
    alphas: list[float] = []
    for _ in range(n_rounds):
        stump = grow_classifier(X, y, sample_weight=w, max_depth=1, min_leaf=1, order=order)
        pred = (stump.predict(X) >= 0.5).astype(int)
        err = float(np.dot(w, pred != y))
        if err >= 0.5:
            break
        err = max(err, 1e-10)
        alpha = math.log((1.0 - err) / err)
        stumps.append(stump)
        alphas.append(alpha)
        w = w * np.exp(alpha * (pred != y))
        w /= w.sum()
        if err <= 1e-10:
            break
    return stumps, alphas


def adaboost_proba(stumps: list[Tree], alphas: list[float], X: np.ndarray) -> np.ndarray:
    """Weighted vote share for class 1 (no sigmoid; margins map linearly)."""
    if not stumps:
        return np.full(X.shape[0], 0.5)
    votes = np.zeros(X.shape[0])
    for stump, alpha in zip(stumps, alphas):
        votes += alpha * (stump.predict(X) >= 0.5)
    return votes / sum(alphas)


def fit_gbt(
    X: np.ndarray,
    y: np.ndarray,
    n_rounds: int,
    lr: float,
    max_depth: int | None,
    min_leaf: int,
) -> tuple[float, list[Tree], list[float]]:
    """Stagewise regression trees on log-loss gradients with Newton leaves.

    Returns the constant initial log-odds, the trees, and the training
    log-loss recorded after every round.  Columns are sorted once per fit.
    """
    p_bar = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
    f0 = math.log(p_bar / (1.0 - p_bar))
    scores = np.full(X.shape[0], f0)
    order = presort(X)
    trees: list[Tree] = []
    losses: list[float] = []
    for _ in range(n_rounds):
        p = sigmoid(scores)
        tree = grow_regression(X, y - p, p * (1 - p), max_depth, min_leaf, order)
        trees.append(tree)
        scores = scores + lr * tree.predict(X)
        pc = np.clip(sigmoid(scores), 1e-15, 1 - 1e-15)
        losses.append(-float(np.mean(y * np.log(pc) + (1 - y) * np.log(1 - pc))))
    return f0, trees, losses


def gbt_proba(f0: float, trees: list[Tree], lr: float, X: np.ndarray) -> np.ndarray:
    scores = np.full(X.shape[0], f0)
    for tree in trees:
        scores = scores + lr * tree.predict(X)
    return sigmoid(scores)
