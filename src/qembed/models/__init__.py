"""From-scratch classifiers behind a single fit/predict interface.

Seven kinds: logreg, knn, svm, tree, forest, adaboost, gbt.  A kind is
registered in two places: its hyperparameter defaults in DEFAULT_PARAMS
and its (fit, score) pair in _KINDS.  A ModelSpec names the kind, the seed
and the hyperparameters (validated against the defaults); fit() returns a
TrainedModel, one record for every kind: the spec, fit metadata and a
plain dict of the kind's fitted state, which the kind's score function
reads.  Models live only for the run that fits them; nothing persists them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import le, lt

import numpy as np

from ..errors import (
    ClassTooSmall,
    DimensionMismatch,
    InvalidHyperparameter,
    InvalidLabel,
    NonFiniteFeature,
    SingleClass,
)
from ..pipeline import FeatureMatrix, checked_int, checked_real
from . import ensemble, linear, neighbors, svm, tree
from .svm import KernelFn


@dataclass
class TrainMeta:
    iterations: int = 0
    converged: bool = True


def _fit_logreg(p, seed, data, y):
    weights, bias, iters, ok = linear.fit_logreg(data, y, p["l2"], p["max_iter"])
    return TrainMeta(iters, ok), {"weights": weights, "bias": bias}


def _fit_svm(p, seed, data, y):
    kernel = KernelFn(p["kernel"], p["gamma"], p["degree"], p["coef0"]).resolve(data.shape[1])
    alpha, bias, iters, ok = svm.fit_smo(data, y, kernel, p["C"], p["tol"], p["max_iter"])
    support = alpha > 0
    return TrainMeta(iters, ok), {
        "kernel": kernel, "sv_X": data[support], "sv_y": y[support],
        "sv_alpha": alpha[support], "bias": bias,
    }


def _fit_tree(p, seed, data, y):
    nodes = []
    tree.grow_classifier(nodes, data, y, max_depth=p["max_depth"], min_leaf=p["min_leaf"])
    return TrainMeta(), {"tree": tree.Tree.of(nodes, [0]), "weights": np.ones(1),
                         "offset": 0.0, "scale": 1.0}


def _fit_forest(p, seed, data, y):
    grown = tree.grow_forest(data, y, p["n_trees"], p["feature_fraction"], p["max_depth"],
                             p["min_leaf"], p["bootstrap"], np.random.default_rng(seed))
    return _rounds({"tree": grown, "weights": np.ones(p["n_trees"]), "offset": 0.0,
                    "scale": p["n_trees"]})


def _rounds(state):
    """A tree-sum state, with one iteration per tree."""
    return TrainMeta(state["tree"].roots.size), state


def _tree_sum(p, s, data):
    return ensemble.tree_sum(s, data)


DEFAULT_PARAMS: dict[str, dict] = {
    "logreg": {"l2": 1e-4, "max_iter": 100},
    "knn": {"k": 5},
    "svm": {
        "C": 1.0,
        "kernel": "rbf",
        "gamma": None,
        "degree": 3,
        "coef0": 0.0,
        "tol": 1e-3,
        "max_iter": 100_000,
    },
    "tree": {"max_depth": 8, "min_leaf": 2},
    "forest": {
        "n_trees": 100,
        "feature_fraction": None,
        "max_depth": 8,
        "min_leaf": 2,
        "bootstrap": True,
    },
    "adaboost": {"n_rounds": 100},
    "gbt": {"n_rounds": 100, "lr": 0.1, "max_depth": 3, "min_leaf": 2},
}

# kind: (fit(params, seed, X, y) -> (TrainMeta, state),
#        score(params, state, X) -> P(class=1) per row)
_KINDS = {
    "logreg": (_fit_logreg,
               lambda p, s, data: linear.sigmoid(data @ s["weights"] + s["bias"])),
    "knn": (lambda p, seed, data, y: (TrainMeta(), {"X": data.copy(), "y": y.copy()}),
            lambda p, s, data: neighbors.knn_proba(
                s["X"], s["y"], min(p["k"], len(s["y"])), data)),
    "svm": (_fit_svm, lambda p, s, data: linear.sigmoid(svm.decision_values(
        s["sv_X"], s["sv_y"], s["sv_alpha"], s["bias"], s["kernel"], data))),
    "tree": (_fit_tree, _tree_sum),
    "forest": (_fit_forest, _tree_sum),
    "adaboost": (lambda p, seed, data, y: _rounds(
        ensemble.fit_adaboost(data, y, p["n_rounds"])), _tree_sum),
    "gbt": (lambda p, seed, data, y: _rounds(ensemble.fit_gbt(
                data, y, p["n_rounds"], p["lr"], p["max_depth"], p["min_leaf"])),
            lambda p, s, data: linear.sigmoid(ensemble.tree_sum(s, data))),
}
MODEL_KINDS = tuple(DEFAULT_PARAMS)


# What each hyperparameter must be, checked by key, the same in every kind: an
# integer >= 1, a bool, or a finite real number x in its range, below(0, x) and
# x <= high.  None is allowed for the _NULLABLE keys.
_INTEGERS = ("max_iter", "k", "max_depth", "min_leaf", "n_trees", "n_rounds")
_REALS = {"l2": (">= 0", le, np.inf), "C": ("> 0", lt, np.inf), "tol": ("> 0", lt, np.inf),
          "lr": ("> 0", lt, np.inf), "feature_fraction": ("in (0, 1]", lt, 1)}
_NULLABLE = ("feature_fraction", "max_depth")


def _validate_params(p: dict) -> None:
    for key, v in p.items():
        if v is None and key in _NULLABLE:
            continue
        if key in _INTEGERS:
            checked_int(v, 1, key, InvalidHyperparameter)
        elif key in _REALS:
            what, below, high = _REALS[key]
            checked_real(v, key, what, lambda x: below(0, x) and x <= high, InvalidHyperparameter)
        elif key == "bootstrap" and not isinstance(v, (bool, np.bool_)):
            raise InvalidHyperparameter(f"bootstrap must be true or false, got {v!r}")
    if "kernel" in p:  # KernelFn checks the kernel's own settings: gamma, degree, coef0
        KernelFn(p["kernel"], p["gamma"], p["degree"], p["coef0"])


@dataclass(frozen=True)
class ModelSpec:
    """Model kind, seed and hyperparameters (missing ones take defaults);
    a numpy scalar is stored as the Python number it holds."""

    kind: str
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DEFAULT_PARAMS:
            raise InvalidHyperparameter(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "seed", checked_int(self.seed, 0, "seed", InvalidHyperparameter))
        if not isinstance(self.params, dict):
            raise InvalidHyperparameter(f"params must be a dict, got {self.params!r}")
        defaults = DEFAULT_PARAMS[self.kind]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise InvalidHyperparameter(
                f"{self.kind}: unknown hyperparameters {sorted(unknown)}"
            )
        merged = {**defaults, **self.params}
        _validate_params(merged)
        object.__setattr__(self, "params", {
            k: v.item() if isinstance(v, np.generic) else v for k, v in merged.items()
        })


def _matrix_data(X) -> np.ndarray:
    if isinstance(X, FeatureMatrix):
        return X.data
    return np.asarray(X, dtype=float)


def _check_finite(data: np.ndarray, what: str) -> None:
    """Raise on a non-finite feature of a 2-D array, naming its row."""
    finite = np.isfinite(data)
    if not finite.all():
        row = finite.all(axis=1).argmin()
        raise NonFiniteFeature(f"{what} row {row} has a non-finite feature")


@dataclass(eq=False)
class TrainedModel:
    """Fitted classifier: spec, fit metadata and the kind's fitted state.

    `state` is a plain dict:
      logreg   weights, bias
      knn      X, y (the training rows)
      svm      kernel (the KernelFn with gamma resolved), sv_X, sv_y,
               sv_alpha, bias
      tree, forest, adaboost, gbt
               tree (one node table of every tree), weights, offset,
               scale (see `ensemble`)
    """

    spec: ModelSpec
    meta: TrainMeta
    n_features: int
    state: dict

    def predict_proba(self, X) -> np.ndarray:
        """P(class=1) per row; every feature must be finite."""
        data = _matrix_data(X)
        if data.ndim != 2 or data.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"expected {self.n_features} features, got shape {data.shape}"
            )
        _check_finite(data, "scored")
        return _KINDS[self.spec.kind][1](self.spec.params, self.state, data)

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(int)


def fit(spec: ModelSpec, X, y=None) -> TrainedModel:
    """Train one model; y defaults to the FeatureMatrix labels.

    Requires at least one feature column, finite features, 0/1 labels and
    at least two samples of each class.
    Non-convergence (logreg Newton-step cap, SMO pair-update cap) is
    flagged in the metadata, never raised.
    """
    data = _matrix_data(X)
    if y is None:
        if not isinstance(X, FeatureMatrix):
            raise ValueError("labels required when X is a bare array")
        y = X.labels
    y = np.asarray(y)
    if data.ndim != 2 or y.shape != (data.shape[0],) or data.shape[1] == 0:
        raise DimensionMismatch("X must be 2-D, with a feature column and one label per row")
    _check_finite(data, "training")
    if not np.isin(y, (0, 1)).all():
        raise InvalidLabel("labels must be 0 or 1")
    y = y.astype(int)
    counts = np.bincount(y, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise SingleClass("training data must contain both classes")
    if counts.min() < 2:
        raise ClassTooSmall("need at least two samples per class")
    meta, state = _KINDS[spec.kind][0](spec.params, spec.seed, data, y)
    return TrainedModel(spec, meta, data.shape[1], state)


__all__ = [
    "ModelSpec",
    "TrainMeta",
    "TrainedModel",
    "KernelFn",
    "MODEL_KINDS",
    "DEFAULT_PARAMS",
    "fit",
]
