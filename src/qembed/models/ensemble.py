"""Tree ensembles: SAMME AdaBoost on stumps, gradient boosting.

Each fit returns a tree-sum state: `tree`, one node table of all trees,
one weight per tree in `weights`, `offset` and `scale`, scored by
`tree_sum` as (offset + sum_t weights[t] * tree.predict(X)[t]) / scale.
The single tree and the forest are the same state.  A fit reads its
training rows' leaf values off the grower, never walking its trees.
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
    training; a round no better than chance is discarded, its nodes
    with it, and ends training.  Columns are sorted once per fit.
    """
    m = X.shape[0]
    w = np.full(m, 1.0 / m)
    presorted = presort(X)
    nodes, roots, alphas = [], [], []
    for _ in range(n_rounds):
        root = len(nodes)
        vote = grow_classifier(
            nodes, X, y, sample_weight=w, max_depth=1, min_leaf=1, presorted=presorted) >= 0.5
        miss = vote != y
        err = float(np.dot(w, miss))
        if err >= 0.5:
            del nodes[root:]
            break
        for rec in nodes[root:]:  # the stump's nodes hold its 0/1 votes
            rec[4] = float(rec[4] >= 0.5)
        err = max(err, 1e-10)
        alpha = math.log((1.0 - err) / err)
        roots.append(root)
        alphas.append(alpha)
        w = w * np.exp(alpha * miss)
        w /= w.sum()
        if err <= 1e-10:
            break
    return {
        "tree": Tree.of(nodes, roots),
        "weights": np.array(alphas),
        "offset": 0.0 if roots else 0.5,
        "scale": sum(alphas) if roots else 1.0,
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
    nodes, roots = [], []
    for _ in range(n_rounds):
        p = sigmoid(scores)
        roots.append(len(nodes))
        leaf = grow_regression(nodes, X, y - p, p * (1 - p), max_depth, min_leaf, presorted)
        scores = scores + lr * leaf
    return {"tree": Tree.of(nodes, roots), "weights": np.full(n_rounds, lr), "offset": f0,
            "scale": 1.0}


def tree_sum(state: dict, X: np.ndarray) -> np.ndarray:
    """(offset + sum_t weights[t] * tree.predict(X)[t]) / scale, in tree order."""
    score = np.full(X.shape[0], state["offset"])
    for weight, leaf in zip(state["weights"], state["tree"].predict(X)):
        score = score + weight * leaf
    return score / state["scale"]
