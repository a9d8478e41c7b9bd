"""From-scratch classifiers behind a single fit/predict interface.

Seven kinds: logreg, knn, svm, tree, forest, adaboost, gbt.  A ModelSpec
names the kind, the seed and the hyperparameters (validated against
per-kind defaults); fit() returns an immutable TrainedModel that can
score new rows and round-trip through a JSON-safe dict.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    ClassTooSmall,
    DimensionMismatch,
    InvalidHyperparameter,
    InvalidLabel,
    NonFiniteFeature,
    SingleClass,
)
from ..pipeline import FeatureMatrix
from . import ensemble, linear, neighbors, svm, tree
from .svm import KernelFn, kernel_eval
from .tree import Tree

MODEL_KINDS = ("logreg", "knn", "svm", "tree", "forest", "adaboost", "gbt")

DEFAULT_PARAMS: dict[str, dict] = {
    "logreg": {"lr": 0.1, "epochs": 5000, "l2": 1e-4},
    "knn": {"k": 5},
    "svm": {
        "C": 1.0,
        "kernel": "rbf",
        "gamma": None,
        "degree": 3,
        "coef0": 0.0,
        "tol": 1e-3,
        "max_sweeps": 100,
        "quiet_sweeps": 3,
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


def _positive_int(value, what: str, allow_none=False) -> None:
    if allow_none and value is None:
        return
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise InvalidHyperparameter(f"{what} must be an integer >= 1")


def _validate_params(kind: str, p: dict) -> None:
    if kind == "logreg":
        if not p["lr"] > 0:
            raise InvalidHyperparameter("lr must be positive")
        _positive_int(p["epochs"], "epochs")
        if p["l2"] < 0:
            raise InvalidHyperparameter("l2 must be nonnegative")
    elif kind == "knn":
        _positive_int(p["k"], "k")
    elif kind == "svm":
        if not p["C"] > 0:
            raise InvalidHyperparameter("C must be positive")
        KernelFn(p["kernel"], p["gamma"], p["degree"], p["coef0"])
        if not p["tol"] > 0:
            raise InvalidHyperparameter("tol must be positive")
        _positive_int(p["max_sweeps"], "max_sweeps")
        _positive_int(p["quiet_sweeps"], "quiet_sweeps")
    elif kind in ("tree", "forest", "gbt"):
        _positive_int(p["max_depth"], "max_depth", allow_none=True)
        _positive_int(p["min_leaf"], "min_leaf")
        if kind == "forest":
            _positive_int(p["n_trees"], "n_trees")
            frac = p["feature_fraction"]
            if frac is not None and not 0 < frac <= 1:
                raise InvalidHyperparameter("feature_fraction must be in (0, 1]")
        if kind == "gbt":
            _positive_int(p["n_rounds"], "n_rounds")
            if not p["lr"] > 0:
                raise InvalidHyperparameter("lr must be positive")
    elif kind == "adaboost":
        _positive_int(p["n_rounds"], "n_rounds")


@dataclass(frozen=True)
class ModelSpec:
    """Model kind, seed and hyperparameters (missing ones take defaults)."""

    kind: str
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidHyperparameter(f"unknown model kind {self.kind!r}")
        defaults = DEFAULT_PARAMS[self.kind]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise InvalidHyperparameter(
                f"{self.kind}: unknown hyperparameters {sorted(unknown)}"
            )
        merged = {**defaults, **self.params}
        _validate_params(self.kind, merged)
        object.__setattr__(self, "params", merged)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "params": dict(self.params)}

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        return ModelSpec(d["kind"], d.get("seed", 0), dict(d.get("params", {})))


@dataclass
class TrainMeta:
    iterations: int = 0
    converged: bool = True
    seconds: float = 0.0


def _matrix_data(X) -> np.ndarray:
    if isinstance(X, FeatureMatrix):
        return X.data
    return np.asarray(X, dtype=float)


class TrainedModel:
    """Fitted classifier; subclasses implement _proba and state_dict."""

    def __init__(self, spec: ModelSpec, meta: TrainMeta, n_features: int):
        self.spec = spec
        self.meta = meta
        self.n_features = n_features

    def predict_proba(self, X) -> np.ndarray:
        """P(class=1) per row."""
        data = _matrix_data(X)
        if data.ndim != 2 or data.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"expected {self.n_features} features, got shape {data.shape}"
            )
        return self._proba(data)

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(int)

    def _proba(self, data: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def state_dict(self) -> dict:
        raise NotImplementedError


class LogregModel(TrainedModel):
    def __init__(self, spec, meta, weights, bias):
        super().__init__(spec, meta, len(weights))
        self.weights = np.asarray(weights, dtype=float)
        self.bias = float(bias)

    def _proba(self, data):
        return linear.sigmoid(data @ self.weights + self.bias)

    def state_dict(self):
        return {"weights": self.weights.tolist(), "bias": self.bias}


class KnnModel(TrainedModel):
    def __init__(self, spec, meta, X_train, y_train):
        super().__init__(spec, meta, X_train.shape[1])
        self.X_train = np.asarray(X_train, dtype=float)
        self.y_train = np.asarray(y_train, dtype=int)

    def _proba(self, data):
        k = min(self.spec.params["k"], self.X_train.shape[0])
        return neighbors.knn_proba(self.X_train, self.y_train, k, data)

    def state_dict(self):
        return {"X": self.X_train.tolist(), "y": self.y_train.tolist()}


class SvmModel(TrainedModel):
    def __init__(self, spec, meta, kernel, sv_X, sv_y, sv_alpha, bias, n_features):
        super().__init__(spec, meta, n_features)
        self.kernel = kernel
        self.sv_X = np.asarray(sv_X, dtype=float).reshape(-1, n_features)
        self.sv_y = np.asarray(sv_y, dtype=int)
        self.sv_alpha = np.asarray(sv_alpha, dtype=float)
        self.bias = float(bias)

    def _proba(self, data):
        if self.sv_X.size == 0:
            return linear.sigmoid(np.full(data.shape[0], self.bias))
        return svm.svm_proba(
            self.sv_X, self.sv_y, self.sv_alpha, self.bias, self.kernel, data
        )

    def decision_function(self, X) -> np.ndarray:
        data = _matrix_data(X)
        if self.sv_X.size == 0:
            return np.full(data.shape[0], self.bias)
        return svm.decision_values(
            self.sv_X, self.sv_y, self.sv_alpha, self.bias, self.kernel, data
        )

    def state_dict(self):
        return {
            "kernel": dataclasses.asdict(self.kernel),
            "sv_X": self.sv_X.tolist(),
            "sv_y": self.sv_y.tolist(),
            "sv_alpha": self.sv_alpha.tolist(),
            "bias": self.bias,
            "n_features": self.n_features,
        }


class TreeModel(TrainedModel):
    def __init__(self, spec, meta, tree, n_features):
        super().__init__(spec, meta, n_features)
        self.tree = tree

    def _proba(self, data):
        return self.tree.predict(data)

    def state_dict(self):
        return {"tree": self.tree.to_record(), "n_features": self.n_features}


class ForestModel(TrainedModel):
    def __init__(self, spec, meta, trees, n_features):
        super().__init__(spec, meta, n_features)
        self.trees = trees

    def _proba(self, data):
        return ensemble.forest_proba(self.trees, data)

    def state_dict(self):
        return {"trees": [t.to_record() for t in self.trees], "n_features": self.n_features}


class AdaboostModel(TrainedModel):
    def __init__(self, spec, meta, stumps, alphas, n_features):
        super().__init__(spec, meta, n_features)
        self.stumps = stumps
        self.alphas = list(alphas)

    def _proba(self, data):
        return ensemble.adaboost_proba(self.stumps, self.alphas, data)

    def state_dict(self):
        return {
            "trees": [s.to_record() for s in self.stumps],
            "alphas": self.alphas,
            "n_features": self.n_features,
        }


class GbtModel(TrainedModel):
    def __init__(self, spec, meta, f0, trees, losses, n_features):
        super().__init__(spec, meta, n_features)
        self.f0 = float(f0)
        self.trees = trees
        self.losses = list(losses)

    def _proba(self, data):
        return ensemble.gbt_proba(self.f0, self.trees, self.spec.params["lr"], data)

    def state_dict(self):
        return {
            "f0": self.f0,
            "trees": [t.to_record() for t in self.trees],
            "losses": self.losses,
            "n_features": self.n_features,
        }


def fit(spec: ModelSpec, X, y=None) -> TrainedModel:
    """Train one model; y defaults to the FeatureMatrix labels.

    Requires finite features, 0/1 labels and at least two samples of each class.
    Non-convergence (logreg epoch cap, SMO sweep cap) is flagged in the
    metadata, never raised.
    """
    data = _matrix_data(X)
    if y is None:
        if not isinstance(X, FeatureMatrix):
            raise ValueError("labels required when X is a bare array")
        y = X.labels
    y = np.asarray(y)
    if data.ndim != 2 or y.shape != (data.shape[0],):
        raise DimensionMismatch("X must be 2-D with one label per row")
    if not np.all(np.isfinite(data)):
        raise NonFiniteFeature("training features must be finite")
    if not np.isin(y, (0, 1)).all():
        raise InvalidLabel("labels must be 0 or 1")
    y = y.astype(int)
    counts = np.bincount(y, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise SingleClass("training data must contain both classes")
    if counts.min() < 2:
        raise ClassTooSmall("need at least two samples per class")

    start = time.perf_counter()
    model = _FITTERS[spec.kind](spec, data, y)
    model.meta.seconds = time.perf_counter() - start
    return model


def _fit_logreg(spec, data, y):
    p = spec.params
    weights, bias, iters, ok = linear.fit_logreg(data, y, p["lr"], p["epochs"], p["l2"])
    return LogregModel(spec, TrainMeta(iters, ok), weights, bias)


def _fit_knn(spec, data, y):
    return KnnModel(spec, TrainMeta(), data.copy(), y.copy())


def _fit_svm(spec, data, y):
    p = spec.params
    kernel = KernelFn(p["kernel"], p["gamma"], p["degree"], p["coef0"]).resolve(
        data.shape[1]
    )
    rng = np.random.default_rng(spec.seed)
    alpha, bias, sweeps, ok = svm.fit_smo(
        data, y, kernel, p["C"], p["tol"], p["max_sweeps"], p["quiet_sweeps"], rng
    )
    support = alpha > 0
    return SvmModel(
        spec, TrainMeta(sweeps, ok), kernel,
        data[support], y[support], alpha[support], bias, data.shape[1],
    )


def _fit_tree(spec, data, y):
    p = spec.params
    grown = tree.grow_classifier(
        data, y, max_depth=p["max_depth"], min_leaf=p["min_leaf"]
    )
    return TreeModel(spec, TrainMeta(), grown, data.shape[1])


def _fit_forest(spec, data, y):
    p = spec.params
    rng = np.random.default_rng(spec.seed)
    trees = ensemble.fit_forest(
        data, y, p["n_trees"], p["feature_fraction"], p["max_depth"],
        p["min_leaf"], p["bootstrap"], rng,
    )
    return ForestModel(spec, TrainMeta(len(trees)), trees, data.shape[1])


def _fit_adaboost(spec, data, y):
    stumps, alphas = ensemble.fit_adaboost(data, y, spec.params["n_rounds"])
    return AdaboostModel(spec, TrainMeta(len(stumps)), stumps, alphas, data.shape[1])


def _fit_gbt(spec, data, y):
    p = spec.params
    f0, trees, losses = ensemble.fit_gbt(
        data, y, p["n_rounds"], p["lr"], p["max_depth"], p["min_leaf"]
    )
    return GbtModel(spec, TrainMeta(len(trees)), f0, trees, losses, data.shape[1])


_FITTERS = {
    "logreg": _fit_logreg,
    "knn": _fit_knn,
    "svm": _fit_svm,
    "tree": _fit_tree,
    "forest": _fit_forest,
    "adaboost": _fit_adaboost,
    "gbt": _fit_gbt,
}


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    return model.predict_proba(X)


# --- JSON-safe persistence ------------------------------------------------------

def model_to_dict(model: TrainedModel) -> dict:
    return {
        "spec": model.spec.to_dict(),
        "meta": dataclasses.asdict(model.meta),
        "state": model.state_dict(),
    }


def model_from_dict(d: dict) -> TrainedModel:
    spec = ModelSpec.from_dict(d["spec"])
    meta = TrainMeta(**d["meta"])
    state = d["state"]
    if spec.kind == "logreg":
        return LogregModel(spec, meta, state["weights"], state["bias"])
    if spec.kind == "knn":
        return KnnModel(spec, meta, np.array(state["X"]), np.array(state["y"]))
    if spec.kind == "svm":
        kernel = KernelFn(**state["kernel"])
        return SvmModel(
            spec, meta, kernel,
            np.array(state["sv_X"], dtype=float),
            np.array(state["sv_y"], dtype=int),
            np.array(state["sv_alpha"], dtype=float),
            state["bias"],
            state["n_features"],
        )
    n_features = state["n_features"]
    if spec.kind == "tree":
        return TreeModel(spec, meta, Tree.from_record(state["tree"]), n_features)
    trees = [Tree.from_record(r) for r in state["trees"]]
    if spec.kind == "forest":
        return ForestModel(spec, meta, trees, n_features)
    if spec.kind == "adaboost":
        return AdaboostModel(spec, meta, trees, state["alphas"], n_features)
    return GbtModel(spec, meta, state["f0"], trees, state["losses"], n_features)


__all__ = [
    "ModelSpec",
    "TrainMeta",
    "TrainedModel",
    "KernelFn",
    "kernel_eval",
    "MODEL_KINDS",
    "DEFAULT_PARAMS",
    "fit",
    "predict_proba",
    "model_to_dict",
    "model_from_dict",
]
