"""Tree ensembles: SAMME AdaBoost on stumps, gradient boosting.

Each fit returns a tree-sum state: `trees`, one weight per tree in
`weights`, `offset` and `scale`, scored by `tree_sum` as
(offset + sum_t weights[t] * trees[t].predict(X)) / scale.  The single
tree and the forest are the same state.
"""
from __future__ import annotations

import math

import numpy as np

from .linear import sigmoid
from .tree import Tree, grow_classifier, grow_regression, presort


def fit_adaboost(X: np.ndarray, y: np.ndarray, n_rounds: int) -> dict:
    """SAMME with depth-1 stumps on a binary problem.

    Each stump's leaves hold its 0/1 vote and its weight is its alpha, so
    the score is the alpha-weighted share of votes for class 1 (no
    sigmoid; margins map linearly).  With no stump better than chance the
    score is 0.5.  Sample weights renormalize to sum 1 after every round.
    A round with weighted error 0 gets a large clamped vote and ends
    training; a round no better than chance is discarded and ends
    training.  Columns are sorted once per fit.
    """
    m = X.shape[0]
    w = np.full(m, 1.0 / m)
    presorted = presort(X)
    stumps: list[Tree] = []
    alphas: list[float] = []
    for _ in range(n_rounds):
        stump = grow_classifier(
            X, y, sample_weight=w, max_depth=1, min_leaf=1, presorted=presorted)
        stump.value = (stump.value >= 0.5).astype(float)
        miss = stump.predict(X) != y
        err = float(np.dot(w, miss))
        if err >= 0.5:
            break
        err = max(err, 1e-10)
        alpha = math.log((1.0 - err) / err)
        stumps.append(stump)
        alphas.append(alpha)
        w = w * np.exp(alpha * miss)
        w /= w.sum()
        if err <= 1e-10:
            break
    return {
        "trees": stumps,
        "weights": np.array(alphas),
        "offset": 0.0 if stumps else 0.5,
        "scale": sum(alphas) if stumps else 1.0,
    }


def fit_gbt(
    X: np.ndarray,
    y: np.ndarray,
    n_rounds: int,
    lr: float,
    max_depth: int | None,
    min_leaf: int,
) -> dict:
    """Stagewise regression trees on log-loss gradients with Newton leaves.

    The score is the log-odds: offset the constant initial log-odds, every
    weight lr, scale 1.  Columns are sorted once per fit.
    """
    p_bar = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
    f0 = math.log(p_bar / (1.0 - p_bar))
    scores = np.full(X.shape[0], f0)
    presorted = presort(X)
    trees: list[Tree] = []
    for _ in range(n_rounds):
        p = sigmoid(scores)
        tree = grow_regression(X, y - p, p * (1 - p), max_depth, min_leaf, presorted)
        trees.append(tree)
        scores = scores + lr * tree.predict(X)
    return {
        "trees": trees, "weights": np.full(n_rounds, lr), "offset": f0, "scale": 1.0,
    }


def tree_sum(state: dict, X: np.ndarray) -> np.ndarray:
    """(offset + sum_t weights[t] * trees[t].predict(X)) / scale, in tree order."""
    score = np.full(X.shape[0], state["offset"])
    for weight, tree in zip(state["weights"], state["trees"]):
        score = score + weight * tree.predict(X)
    return score / state["scale"]
