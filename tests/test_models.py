import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from qembed import models
from qembed import pipeline as pl
from qembed.bench import runner
from qembed.bench.config import EncodingEntry, load_config
from qembed.bench.data import synthetic_telco
from qembed.encoding import angle_scheme
from qembed.errors import (
    ClassTooSmall,
    DimensionMismatch,
    InvalidHyperparameter,
    InvalidLabel,
    NonFiniteFeature,
    SingleClass,
)
from qembed.models import KernelFn, ModelSpec, ensemble, linear
from qembed.models.linear import log_loss_gradient, log_loss_l2
from qembed.models import svm as svm_module
from qembed.models.neighbors import knn_proba, sq_distances
from qembed.models.svm import fit_smo, gram, q_rows
from qembed.models import tree as tree_module
from qembed.models.tree import (
    _BLOCK, _EPS, SCANNED, TIE_FREE, TWO_VALUED, Tree, _left_sum, _partition, _splitmix64,
    _threshold,
    grow_classifier, grow_forest, grow_regression, presort,
)


def blobs(seed, n=60, d=3, spread=1.0):
    """Two separated gaussian clusters with labels 0/1."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([
        rng.normal(-1.5, spread, size=(half, d)),
        rng.normal(+1.5, spread, size=(n - half, d)),
    ])
    y = np.array([0] * half + [1] * (n - half))
    idx = rng.permutation(n)
    return X[idx], y[idx]


def train_accuracy(model, X, y):
    return float(np.mean(model.predict(X) == y))


REJECTED = "rejected"
# A bool given as a number, NaN, inf and a string: each a typed error in every record
NOT_A_NUMBER = [True, np.bool_(True), math.nan, math.inf, "1"]


class TestModelSpec:
    def test_defaults_merged(self):
        spec = ModelSpec("knn")
        assert spec.params["k"] == 5
        spec = ModelSpec("gbt", params={"lr": 0.05})
        assert spec.params["n_rounds"] == 100
        assert spec.params["lr"] == 0.05

    def test_unknown_kind_and_params(self):
        with pytest.raises(InvalidHyperparameter):
            ModelSpec("perceptron")
        with pytest.raises(InvalidHyperparameter, match=r"unknown model kind \['svm'\]"):
            ModelSpec(["svm"])
        with pytest.raises(InvalidHyperparameter):
            ModelSpec("knn", params={"n_neighbors": 3})
        # the retired solver knobs are unknown keys, not silently ignored
        for kind, key in [("svm", "quiet_sweeps"), ("svm", "max_sweeps"),
                          ("logreg", "lr"), ("logreg", "epochs")]:
            with pytest.raises(InvalidHyperparameter):
                ModelSpec(kind, params={key: 1})

    def test_range_validation(self):
        with pytest.raises(InvalidHyperparameter):
            ModelSpec("knn", params={"k": 0})
        with pytest.raises(InvalidHyperparameter):
            ModelSpec("svm", params={"C": -1.0})
        with pytest.raises(InvalidHyperparameter):
            ModelSpec("svm", params={"gamma": 0.0})
        with pytest.raises(InvalidHyperparameter):
            ModelSpec("tree", params={"min_leaf": 0})
        with pytest.raises(InvalidHyperparameter):
            ModelSpec("forest", params={"feature_fraction": 1.5})
        with pytest.raises(InvalidHyperparameter):
            ModelSpec("logreg", params={"max_iter": 0})
        for kind, key in [("forest", "n_trees"), ("knn", "k"), ("tree", "max_depth")]:
            with pytest.raises(InvalidHyperparameter):
                ModelSpec(kind, params={key: True})
        # real hyperparameters must be finite numbers, not bools or strings
        for kind, params in [
            ("logreg", {"l2": math.nan}),
            ("logreg", {"l2": 0.0}),
            ("logreg", {"l2": -0.0}),
            ("svm", {"C": math.inf}),
            ("svm", {"gamma": math.inf}),
            ("svm", {"kernel": "polynomial", "coef0": "a"}),
            ("svm", {"tol": math.inf}),
            ("gbt", {"lr": math.inf}),
            ("forest", {"feature_fraction": True}),
        ]:
            with pytest.raises(InvalidHyperparameter, match="finite real"):
                ModelSpec(kind, params=params)

    def test_unknown_kernel(self):
        # the family is named "polynomial"; "poly" is not an alias
        with pytest.raises(InvalidHyperparameter, match="unknown kernel 'poly'"):
            ModelSpec("svm", params={"kernel": "poly"})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
    def test_seed_must_be_an_integer_at_least_zero(self, seed):
        # the forest seeds numpy's generator, which rejects these only at fit
        with pytest.raises(InvalidHyperparameter, match="seed must be an integer >= 0"):
            ModelSpec("forest", seed=seed)
        assert ModelSpec("forest", seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_bootstrap_must_be_a_bool(self, value):
        # a truthy string would switch bootstrapping on
        with pytest.raises(InvalidHyperparameter, match="bootstrap must be true or false"):
            ModelSpec("forest", params={"bootstrap": value})
        assert ModelSpec("forest", params={"bootstrap": False}).params["bootstrap"] is False

    @pytest.mark.parametrize("value", [True, False, 0, 2.0])
    def test_degree_must_be_an_integer_not_a_bool(self, value):
        with pytest.raises(InvalidHyperparameter, match="degree must be an integer >= 1"):
            ModelSpec("svm", params={"kernel": "polynomial", "degree": value})

    def test_degree_takes_a_numpy_integer(self):
        # as k and max_iter do; the fit scores exactly what degree=2 scores
        X, y = blobs(5, n=30)
        scores = [
            models.fit(ModelSpec("svm", params={"kernel": "polynomial", "degree": d}),
                       X, y).predict_proba(X)
            for d in (np.int64(2), 2)
        ]
        assert np.array_equal(*scores)

    @pytest.mark.parametrize("kind, key, value, stored", [
        ("logreg", "l2", np.float32(0.5), 0.5), ("logreg", "max_iter", np.int64(5), 5),
        ("svm", "C", np.int64(2), 2.0), ("svm", "gamma", np.float64(0.25), 0.25),
        ("svm", "coef0", np.int64(-1), -1.0), ("forest", "bootstrap", np.bool_(False), False),
        ("forest", "feature_fraction", np.float64(1.0), 1.0),
        *[(kind, key, bad, REJECTED) for kind, key in [
            ("logreg", "l2"), ("svm", "C"), ("svm", "gamma"), ("svm", "coef0"), ("svm", "tol"),
            ("gbt", "lr"), ("forest", "feature_fraction"), ("knn", "k"), ("forest", "n_trees"),
        ] for bad in NOT_A_NUMBER],
        ("forest", "bootstrap", 1, REJECTED), ("forest", "bootstrap", np.int64(0), REJECTED),
    ])
    def test_shared_rules(self, kind, key, value, stored):
        # numpy scalars are stored as the Python numbers and bools they hold, every
        # real as a float (an integer C too), so the spec echoes as JSON
        # rbf, the default kernel, does not read coef0
        params = {key: value, **({"kernel": "sigmoid"} if key == "coef0" else {})}
        if stored is REJECTED:
            with pytest.raises(InvalidHyperparameter, match=f"{key} must be .*, got"):
                ModelSpec(kind, params=params)
            return
        got = ModelSpec(kind, params=params).params[key]
        assert (got, type(got)) == (stored, type(stored))

    @pytest.mark.parametrize("kind, key", [
        ("logreg", "l2"), ("svm", "C"), ("svm", "gamma"), ("svm", "coef0"), ("svm", "tol"),
        ("gbt", "lr"), ("forest", "feature_fraction")])
    def test_int_too_large_for_a_float_rejected(self, kind, key):
        # such an int passes the type test, and math.isfinite of it overflowed
        with pytest.raises(InvalidHyperparameter,
                           match=f"^{key} must be a finite real number.*, got 1000"):
            ModelSpec(kind, params={key: 10**400})

    @pytest.mark.parametrize("params", [None, 3, [("k", 3)]])
    def test_params_must_be_a_dict(self, params):
        with pytest.raises(InvalidHyperparameter, match="params must be a dict"):
            ModelSpec("knn", params=params)

    def test_numpy_scalars_stored_as_python_numbers(self):
        # so the spec echoes as JSON, as a config's manifest does
        spec = ModelSpec("svm", seed=np.int64(4), params={
            "kernel": "polynomial", "max_iter": np.int64(50), "degree": np.int32(2),
            "C": np.float32(0.5)})
        assert spec == ModelSpec("svm", seed=4, params={
            "kernel": "polynomial", "max_iter": 50, "degree": 2, "C": 0.5})
        assert [type(v) for v in (spec.seed, spec.params["max_iter"], spec.params["degree"],
                                  spec.params["C"])] == [int, int, int, float]
        assert json.loads(json.dumps(asdict(spec))) == asdict(spec)


class TestFitValidation:
    def test_single_class(self):
        X = np.zeros((4, 2))
        with pytest.raises(SingleClass):
            models.fit(ModelSpec("knn"), X, np.zeros(4, dtype=int))

    def test_class_too_small(self):
        X = np.zeros((4, 2))
        with pytest.raises(ClassTooSmall):
            models.fit(ModelSpec("knn"), X, np.array([0, 0, 0, 1]))

    def test_non_finite(self):
        X = np.array([[1.0], [math.nan], [2.0], [3.0]])
        with pytest.raises(NonFiniteFeature):
            models.fit(ModelSpec("knn"), X, np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("bad", [2, -1])
    def test_labels_outside_0_1(self, bad):
        X = np.arange(6.0)[:, None]
        with pytest.raises(InvalidLabel):
            models.fit(ModelSpec("tree"), X, np.array([0, 1, bad, 1, 0, 0]))

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_bare_array_needs_labels(self, kind):
        # only a FeatureMatrix carries its labels
        with pytest.raises(ValueError, match="labels required when X is a bare array"):
            models.fit(ModelSpec(kind), np.zeros((6, 2)))

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_no_feature_columns(self, kind):
        # forest and svm would divide by the zero width; the rest scored constants
        with pytest.raises(DimensionMismatch, match="a feature column"):
            models.fit(ModelSpec(kind), np.zeros((6, 0)), np.array([0, 1, 0, 1, 0, 1]))

    def test_dimension_mismatch_on_predict(self):
        X, y = blobs(0, n=20, d=3)
        model = models.fit(ModelSpec("knn"), X, y)
        with pytest.raises(DimensionMismatch):
            model.predict_proba(np.zeros((5, 4)))

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_non_finite_row_on_predict_is_named(self, kind):
        X, y = blobs(0, n=20, d=3)
        model = models.fit(ModelSpec(kind, params=_small_params(kind)), X, y)
        for bad in (math.nan, math.inf, -math.inf):
            rows = np.zeros((6, 3))
            rows[3, 1] = rows[5, 0] = bad
            with pytest.raises(NonFiniteFeature, match="row 3 "):
                model.predict_proba(rows)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, True, "0.5"])
    def test_predict_threshold_must_be_a_finite_real(self, threshold):
        # as compute_report checks it: nan scored every row 0, "0.5" a numpy type error
        X, y = blobs(0, n=20, d=3)
        model = models.fit(ModelSpec("knn"), X, y)
        with pytest.raises(ValueError, match="^threshold must be a finite real number"):
            model.predict(X, threshold=threshold)
        assert model.predict(X, threshold=np.float64(0.5)).tolist() == model.predict(X).tolist()


def probability_rows(seed, m, d, duplicated):
    """m probability-like rows (nonnegative, each summing to 1) of d columns, the
    last `duplicated` of them copies of the first, with labels that a few columns lean on."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, d)) ** 2
    X /= X.sum(axis=1, keepdims=True)
    X[m - duplicated:] = X[:duplicated]
    y = (X[:, :d // 8].sum(axis=1) + rng.normal(scale=0.05, size=m) > 1 / 8).astype(int)
    y[m - duplicated:] = y[:duplicated]
    return X, y


def reference_logreg(X, y, l2, max_iter=100):
    """fit_logreg's damped Newton, each step solving the (d+1)^2 primal system by LU."""
    m, d = X.shape
    A = np.column_stack([X, np.ones(m)])
    theta = np.zeros(d + 1)

    def loss(th):
        return log_loss_l2(X, y, th[:d], th[d], l2)

    for it in range(max_iter):
        grad = np.append(*log_loss_gradient(X, y, theta[:d], theta[d], l2))
        if np.max(np.abs(grad)) < 1e-6:
            break
        p = linear.sigmoid(A @ theta)
        hessian = (A.T * (p * (1 - p))) @ A / m
        hessian[range(d), range(d)] += l2
        step = -np.linalg.solve(hessian, grad)
        t, base, slope = 1.0, loss(theta), float(grad @ step)
        while t > 1e-10 and loss(theta + t * step) > base + 1e-4 * t * slope:
            t /= 2
        theta = theta + t * step
    return theta[:d], float(theta[d]), it


class TestLogreg:
    def test_symmetric_pair(self):
        X = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        y = np.array([0, 1, 0, 1])
        model = models.fit(ModelSpec("logreg"), X, y)
        assert train_accuracy(model, X, y) == 1.0
        # symmetry pins the boundary at the origin
        assert abs(model.state["bias"]) < 1e-6
        assert model.predict_proba(np.array([[0.0]]))[0] == pytest.approx(0.5, abs=1e-6)

    def test_zero_weights_give_half(self):
        X, y = blobs(1, n=20)
        model = models.fit(ModelSpec("logreg", params={"max_iter": 1}), X, y)
        model.state["weights"][:] = 0.0
        model.state["bias"] = 0.0
        assert np.allclose(model.predict_proba(X), 0.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m, d = 12, 4
            X = rng.normal(size=(m, d))
            y = rng.integers(0, 2, size=m).astype(float)
            w = rng.normal(scale=0.5, size=d)
            b = float(rng.normal())
            l2 = 1e-3
            grad_w, grad_b = log_loss_gradient(X, y, w, b, l2)
            h = 1e-5
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                num = (log_loss_l2(X, y, w + e, b, l2) - log_loss_l2(X, y, w - e, b, l2)) / (2 * h)
                assert abs(num - grad_w[j]) / max(abs(num), 1e-8) < 1e-4
            num_b = (log_loss_l2(X, y, w, b + h, l2) - log_loss_l2(X, y, w, b - h, l2)) / (2 * h)
            assert abs(num_b - grad_b) / max(abs(num_b), 1e-8) < 1e-4

    def test_zero_column_at_default_l2(self, refuse_linalg, monkeypatch):
        # an all-zero column (amplitude padding) has only the ridge on its
        # Hessian diagonal: its pivot is swept, not aliased, and its weight
        # steps by exactly zero
        refuse_linalg()
        masks = []

        def recording_sweep(M, n):
            masks.append(pl.sweep(M, n))
            return masks[-1]

        monkeypatch.setattr(linear, "sweep", recording_sweep)
        X, y = blobs(3, n=30, spread=3.0)
        X = np.column_stack([X, np.zeros(len(X))])
        model = models.fit(ModelSpec("logreg"), X, y)
        assert model.meta.converged and len(masks) == model.meta.iterations > 0
        assert not np.any(masks)
        weights, bias = model.state["weights"], model.state["bias"]
        assert weights[-1] == 0.0
        grad_w, grad_b = log_loss_gradient(X, y, weights, bias, model.spec.params["l2"])
        assert max(np.max(np.abs(grad_w)), abs(grad_b)) < 1e-6

    def test_regular_fit_calls_no_linalg(self, refuse_linalg):
        refuse_linalg()
        X, y = blobs(3, n=30, spread=3.0)
        model = models.fit(ModelSpec("logreg"), X, y)
        assert model.meta.converged and model.meta.iterations > 0

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("l2", [1e-8, 1e-4, 1.0])
    def test_row_space_step_matches_primal_solve(self, refuse_linalg, seed, l2):
        # more columns than rows: the step is taken in the row space, against
        # a reference that solves the (d+1)^2 primal system by LU every step;
        # the smallest penalty still makes the two spaces one model
        X, y = probability_rows(seed, m=40, d=96, duplicated=6)
        weights, bias, iters = reference_logreg(X, y, l2)
        refuse_linalg()
        got = models.fit(ModelSpec("logreg", params={"l2": l2}), X, y)
        assert got.meta.converged and got.meta.iterations == iters
        theta, want = np.append(got.state["weights"], got.state["bias"]), np.append(weights, bias)
        assert np.max(np.abs(theta - want)) <= 1e-9 * np.max(np.abs(want))
        probe = probability_rows(seed + 100, m=50, d=96, duplicated=0)[0]
        p_ref = linear.sigmoid(probe @ weights + bias)
        assert ((got.predict_proba(probe) >= 0.5) == (p_ref >= 0.5)).all()

    def test_step_halves_until_the_loss_falls_enough(self, monkeypatch):
        # a small near-separable problem where one full Newton step fails the
        # Armijo test; every other iteration evaluates the loss twice
        X = np.array([[-2.05, 8.54], [14.13, -4.51], [-7.34, 10.59], [10.25, 4.06],
                      [-1.0, 4.84], [-10.68, 15.93], [-9.79, -11.92]])
        y = np.array([0, 1, 0, 0, 0, 0, 1])
        calls = []
        real_loss = linear.log_loss_l2

        def counting_loss(*args):
            calls.append(args)
            return real_loss(*args)

        monkeypatch.setattr(linear, "log_loss_l2", counting_loss)
        model = models.fit(ModelSpec("logreg"), X, y)
        assert model.meta.converged
        assert len(calls) == 2 * model.meta.iterations + 1
        assert train_accuracy(model, X, y) == 1.0

    def test_convergence_flag(self):
        X, y = blobs(3, n=30)
        capped = models.fit(ModelSpec("logreg", params={"max_iter": 2}), X, y)
        assert not capped.meta.converged
        assert capped.meta.iterations == 2


class TestKnn:
    def test_k1_memorizes(self):
        X, y = blobs(4, n=30, spread=2.0)
        model = models.fit(ModelSpec("knn", params={"k": 1}), X, y)
        assert train_accuracy(model, X, y) == 1.0

    def test_vote_fraction(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0]])
        y = np.array([1, 1, 0, 0])
        model = models.fit(ModelSpec("knn", params={"k": 3}), X, y)
        assert model.predict_proba(np.array([[0.05]]))[0] == pytest.approx(2 / 3)

    def test_distance_tie_prefers_lower_index(self):
        # duplicate rows with opposite labels: index order decides the vote
        X = np.array([[1.0], [1.0], [9.0], [9.0]])
        y = np.array([1, 0, 0, 1])
        model = models.fit(ModelSpec("knn", params={"k": 1}), X, y)
        assert model.predict_proba(np.array([[1.0]]))[0] == 1.0  # row 0 wins

    def test_k_splits_a_tie_group(self):
        # distances 1, 0, 0, 0, 1: k=2 takes rows 1 and 2 of the three at 0,
        # k=4 adds row 0, not row 4, of the two at 1
        X_train = np.array([[0.0], [1.0], [1.0], [1.0], [2.0]])
        y = np.array([1, 1, 0, 0, 0])
        probe = np.array([[1.0]])
        assert knn_proba(X_train, y, 2, probe)[0] == 0.5
        assert knn_proba(X_train, y, 4, probe)[0] == 0.5
        assert knn_proba(X_train, y, 5, probe)[0] == 0.4

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_stable_argsort(self, seed):
        # 0/1 features, as basis encoding gives, tie most distances; every k
        # from 1 to the number of training rows gives the stable sort's bits
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(5, 40)), int(rng.integers(1, 6))
        X_train = rng.integers(0, 2, size=(n, d)).astype(float)
        X = rng.integers(0, 2, size=(15, d)).astype(float)
        if seed % 3 == 0:
            X_train, X = rng.normal(size=X_train.shape), rng.normal(size=X.shape)
        y = rng.integers(0, 2, size=n)
        for k in range(1, n + 1):
            nearest = np.argsort(sq_distances(X, X_train), axis=1, kind="stable")[:, :k]
            expected = y[nearest].mean(axis=1)
            got = knn_proba(X_train, y, k, X)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), k


def _kernel(k: KernelFn, a, b) -> float:
    """k(a, b) for two vectors, read off a one-row gram."""
    return gram(k, np.array([a], dtype=float), np.array([b], dtype=float))[0, 0]


class TestKernels:
    def test_rbf_self_is_one(self):
        k = KernelFn("rbf", gamma=1.0)
        a = np.array([0.3, -0.7, 2.0])
        assert _kernel(k, a, a) == pytest.approx(1.0)

    def test_linear_orthogonal(self):
        k = KernelFn("linear")
        assert _kernel(k, [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_polynomial_example(self):
        k = KernelFn("polynomial", gamma=1.0, degree=2, coef0=0.0)
        assert _kernel(k, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(121.0)

    def test_sigmoid_formula(self):
        k = KernelFn("sigmoid", gamma=0.5, coef0=0.1)
        a, b = np.array([1.0, 2.0]), np.array([0.5, -1.0])
        assert _kernel(k, a, b) == pytest.approx(math.tanh(0.5 * (-1.5) + 0.1))

    @pytest.mark.parametrize("kind, field, value", [
        ("rbf", "degree", 5), ("rbf", "coef0", 2.0), ("linear", "gamma", 7.0),
        ("linear", "degree", 2), ("linear", "coef0", -1.0), ("sigmoid", "degree", 4),
    ])
    def test_setting_the_family_does_not_read_rejected(self, kind, field, value):
        # each once ran as the family's defaults under another config hash
        with pytest.raises(InvalidHyperparameter,
                           match=f"^the {kind} kernel does not read {field}$"):
            KernelFn(kind, **{field: value})

    @pytest.mark.parametrize("kind, field, value", [
        ("polynomial", "gamma", 2.0), ("polynomial", "degree", 2), ("polynomial", "coef0", 1.0),
        ("rbf", "gamma", 2.0), ("sigmoid", "gamma", 2.0), ("sigmoid", "coef0", 1.0),
    ])
    def test_setting_the_family_reads_changes_its_value(self, kind, field, value):
        # each setting a family accepts away from its default is one its of_dots reads
        a, b = [1.0, 2.0], [0.5, -1.0]
        assert _kernel(KernelFn(kind, **{field: value}), a, b) != _kernel(KernelFn(kind), a, b)

    @pytest.mark.parametrize("kind", ["linear", "polynomial", "rbf", "sigmoid"])
    def test_unread_setting_at_its_default_accepted(self, kind):
        assert KernelFn(kind, None, 3, 0) == KernelFn(kind)

    def test_gamma_must_be_positive(self):
        with pytest.raises(InvalidHyperparameter, match="gamma must be a finite real number > 0"):
            KernelFn("rbf", gamma=0.0)

    @pytest.mark.parametrize("field, value, stored", [
        ("gamma", np.float32(0.5), 0.5), ("gamma", np.int64(2), 2.0), ("gamma", None, None),
        ("coef0", np.int64(-1), -1.0), ("coef0", np.float64(0.25), 0.25),
        ("degree", np.int32(2), 2),
        *[(field, bad, REJECTED) for field in ("gamma", "coef0", "degree") for bad in NOT_A_NUMBER],
        ("gamma", -1, REJECTED),
    ])
    def test_shared_rules(self, field, value, stored):
        # KernelFn alone checks the kernel's settings, and stores Python numbers;
        # a bool gamma ran as 1, and NaN or inf gave a NaN gram
        if stored is REJECTED:
            with pytest.raises(InvalidHyperparameter, match=f"{field} must be .*, got"):
                KernelFn("polynomial", **{field: value})
            return
        got = getattr(KernelFn("polynomial", **{field: value}), field)
        assert (got, type(got)) == (stored, type(stored))

    @pytest.mark.parametrize("field", ["gamma", "coef0"])
    def test_int_too_large_for_a_float_rejected(self, field):
        with pytest.raises(InvalidHyperparameter,
                           match=f"^{field} must be a finite real number.*, got 1000"):
            KernelFn("rbf", **{field: 10**400})

    @pytest.mark.parametrize("kind", ["rbf", "polynomial", "sigmoid"])
    def test_default_gamma_needs_a_feature(self, kind):
        # gamma=None resolves to 1/d, so zero feature columns have no gamma
        with pytest.raises(DimensionMismatch, match="d=0"):
            gram(KernelFn(kind), np.zeros((2, 0)), np.zeros((2, 0)))

    def test_rbf_gram_psd(self):
        rng = np.random.default_rng(5)
        k = KernelFn("rbf", gamma=0.7)
        for _ in range(20):
            A = rng.normal(size=(20, 3))
            K = gram(k, A, A)
            assert np.max(np.abs(K - K.T)) < 1e-12
            assert np.linalg.eigvalsh(K).min() > -1e-8


class TestSvm:
    def test_separable_blobs(self):
        X, y = blobs(6, n=40, spread=0.5)
        model = models.fit(ModelSpec("svm"), X, y)
        assert train_accuracy(model, X, y) == 1.0

    def test_dual_feasibility(self):
        rng = np.random.default_rng(7)
        X, y = blobs(7, n=50, spread=1.5)
        for kernel in ("linear", "rbf", "polynomial", "sigmoid"):
            spec = ModelSpec("svm", params={"kernel": kernel, "C": 1.0})
            kern = KernelFn(kernel).resolve(X.shape[1])
            alpha, bias, _, _ = fit_smo(X, y, kern, 1.0, 1e-3, 100_000)
            assert np.all(alpha >= -1e-12)
            assert np.all(alpha <= 1.0 + 1e-12)
            y_pm = np.where(y == 1, 1.0, -1.0)
            assert abs(np.dot(alpha, y_pm)) < 1e-6

    def test_kkt_conditions_at_convergence(self):
        # overlapping blobs give zero, free and at-C multipliers; at the stop
        # every margin y*f(x) is within tol of its KKT condition
        X, y = blobs(12, n=50, spread=3.0)
        y_pm = np.where(y == 1, 1.0, -1.0)
        tol = 1e-3
        for kernel in ("linear", "rbf", "polynomial", "sigmoid"):
            kern = KernelFn(kernel).resolve(X.shape[1])
            alpha, bias, _, converged = fit_smo(X, y, kern, 1.0, tol, 100_000)
            assert converged, kernel
            margin = y_pm * (gram(kern, X, X) @ (alpha * y_pm) + bias)
            assert np.all(margin[alpha == 0] >= 1 - tol), kernel
            assert np.all(margin[alpha == 1.0] <= 1 + tol), kernel
            free = (alpha > 0) & (alpha < 1.0)
            assert free.any() and np.all(np.abs(margin[free] - 1) <= tol), kernel

    def test_probabilities_monotone_in_decision(self):
        X, y = blobs(8, n=40)
        model = models.fit(ModelSpec("svm", params={"kernel": "linear"}), X, y)
        s = model.state
        dec = gram(s["kernel"], X, s["sv_X"]) @ s["sv_coef"] + s["bias"]
        proba = model.predict_proba(X)
        order = np.argsort(dec)
        assert np.all(np.diff(proba[order]) >= -1e-12)

    @pytest.mark.parametrize("kernel", ["linear", "rbf", "polynomial", "sigmoid"])
    def test_state_holds_dual_coefficients(self, kernel):
        # sv_coef is alpha*y over the support vectors: it sums to 0, lies in
        # [-C, C], and the score is sigmoid of the decision value it gives,
        # each row's kernel dots and sum taken by row_dots
        X, y = blobs(11, n=50, spread=2.0)
        model = models.fit(ModelSpec("svm", params={"kernel": kernel, "C": 0.5}), X, y)
        s = model.state
        assert set(s) == {"kernel", "sv_X", "sv_coef", "bias"}
        assert abs(float(np.sum(s["sv_coef"]))) < 1e-6
        assert np.all((np.abs(s["sv_coef"]) > 0) & (np.abs(s["sv_coef"]) <= 0.5))
        want = linear.sigmoid(pl.row_dots(gram(s["kernel"], X, s["sv_X"]), s["sv_coef"])
                              + s["bias"])
        assert model.predict_proba(X).tobytes() == want.tobytes()

    def test_empty_support_set_scores_a_constant(self):
        # a tol above the starting violation gap of 2 stops SMO before any
        # update; the support rows keep the data's width, so scoring works
        X, y = blobs(37, n=20, d=3)
        model = models.fit(ModelSpec("svm", params={"tol": 3.0}), X, y)
        assert model.state["sv_X"].shape == (0, 3)
        assert np.all(model.predict_proba(X) == model.predict_proba(X[:1])[0])

    def test_state_keeps_the_fitted_kernel(self):
        # gamma=None resolves once, at fit, to 1/d; scoring reads that kernel
        X, y = blobs(10, n=30, d=4)
        model = models.fit(ModelSpec("svm", params={"kernel": "sigmoid", "coef0": 0.5}), X, y)
        assert "gamma" not in model.state
        assert model.state["kernel"] == KernelFn("sigmoid", 0.25, 3, 0.5)
        # gram resolves an unset gamma the same way
        assert np.array_equal(gram(KernelFn("sigmoid", coef0=0.5), X, X),
                              gram(model.state["kernel"], X, X))

    def test_deterministic(self):
        X, y = blobs(9, n=40)
        a = models.fit(ModelSpec("svm", seed=3), X, y)
        b = models.fit(ModelSpec("svm", seed=3), X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


def reference_smo(X, y01, kernel, C, tol, max_iter):
    """fit_smo's loop on the full m x m Q, as it ran before Q rows were cached."""
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
        b = g_up - score
        a = np.maximum(diag[i] + diag - 2.0 * y[i] * y * Q[i], 1e-12)
        j = int(np.argmin(np.where(low & (b > 0), -b * b / a, np.inf)))
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


KERNELS = [KernelFn("linear"), KernelFn("polynomial", degree=3, coef0=0.5), KernelFn("rbf"),
           KernelFn("sigmoid", coef0=0.5)]


class TestKernelRows:
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    def test_rows_and_diagonal_match_gram(self, kernel):
        X, y01 = blobs(21, n=30, d=4)
        y = np.where(y01 == 1, 1.0, -1.0)
        row, diag = q_rows(X, y, kernel)
        K = gram(kernel, X, X)
        for i in range(X.shape[0]):
            assert np.max(np.abs(row(i) - K[i] * y[i] * y)) <= 1e-12
        assert np.max(np.abs(diag - K.diagonal())) <= 1e-12
        if kernel.kind == "rbf":
            # (|x|^2 + |x|^2) - 2|x|^2 is exactly 0, where the Gram can miss 1 by an ulp
            assert np.all(diag == 1.0)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    def test_fit_matches_the_full_gram_loop(self, kernel):
        # Q rows differ from the Gram's in their last bits, so two working-set
        # candidates within an ulp of each other may be picked differently; on
        # 50 features for 40 rows no two come that close (closest 1.4e-11)
        X, y = blobs(3, n=40, d=50, spread=3.0)
        kern = kernel.resolve(X.shape[1])
        alpha, bias, iters, converged = fit_smo(X, y, kern, 1.0, 1e-3, 100_000)
        ref_alpha, ref_bias, ref_iters, ref_converged = reference_smo(
            X, y, kern, 1.0, 1e-3, 100_000)
        assert (iters, converged) == (ref_iters, ref_converged)
        assert np.max(np.abs(alpha - ref_alpha)) <= 1e-9
        assert abs(bias - ref_bias) <= 1e-9

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    def test_two_row_budget_gives_the_same_bits(self, kernel, monkeypatch):
        # an evicted row is recomputed with the same bits, so the budget
        # changes memory and time only
        X, y = blobs(13, n=60, spread=2.0)
        kern = kernel.resolve(X.shape[1])
        fits = []
        for budget in (svm_module._CACHE_BYTES, 2 * 8 * X.shape[0]):
            monkeypatch.setattr(svm_module, "_CACHE_BYTES", budget)
            alpha, bias, iters, converged = fit_smo(X, y, kern, 1.0, 1e-3, 100_000)
            fits.append((alpha.tobytes(), bias, iters, converged))
        assert fits[0] == fits[1]

    def test_least_recently_used_row_goes_first(self, monkeypatch):
        # under a two-row budget, 3 5 3 7 3 5 evicts 5, the least recently
        # used, for 7, so both later 3s hit; oldest-out would evict 3 and
        # miss five times
        X, y01 = blobs(14, n=20)
        monkeypatch.setattr(svm_module, "_CACHE_BYTES", 2 * 8 * 20)
        row, _ = q_rows(X, np.where(y01 == 1, 1.0, -1.0), KernelFn("rbf"))
        for i in (3, 5, 3, 7, 3, 5):
            row(i)
        info = row.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (2, 4, 2)

    def test_fit_holds_no_m_by_m_array(self, monkeypatch):
        # at 2,000 rows one m x m float array is 30.5 MiB; a fit under a
        # 1 MiB row budget stays under 2 MiB
        monkeypatch.setattr(svm_module, "_CACHE_BYTES", 1 << 20)
        X, y = blobs(15, n=2000, d=12, spread=2.0)
        tracemalloc.start()
        try:
            fit_smo(X, y, KernelFn("rbf").resolve(12), 1.0, 1e-3, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestBlockedScoring:
    """kNN and SVM score blocks of test rows whose (rows x training rows, or
    x support vectors) floats fit models._SCORE_BYTES."""

    SPECS = [ModelSpec("knn"), *(ModelSpec("svm", params={"kernel": k.kind, "coef0": k.coef0})
                                 for k in KERNELS)]

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.params.get("kernel", s.kind))
    def test_blocks_keep_the_bits(self, spec, rows, monkeypatch):
        X, y = blobs(40, n=60, d=4, spread=2.0)
        probe, _ = blobs(41, n=45, d=4, spread=3.0)
        model = models.fit(spec, X, y)
        whole = model.predict_proba(probe)
        width = len(model.state["y" if spec.kind == "knn" else "sv_coef"])
        monkeypatch.setattr(models, "_SCORE_BYTES", 8 * width * rows)
        assert model.predict_proba(probe).tobytes() == whole.tobytes()

    def test_empty_support_set_scores_in_blocks(self, monkeypatch):
        monkeypatch.setattr(models, "_SCORE_BYTES", 8)
        X, y = blobs(37, n=20, d=3)
        model = models.fit(ModelSpec("svm", params={"tol": 3.0}), X, y)
        assert model.state["sv_X"].shape == (0, 3)
        proba = model.predict_proba(X)
        assert proba.shape == (20,) and np.all(proba == proba[0])

    @pytest.mark.parametrize("kind", ["knn", "svm"])
    def test_peak_memory_about_twice_the_budget(self, kind):
        # 800 test x 3,000 training rows: one whole product is 19.2 MB
        rng = np.random.default_rng(42)
        X, X_test = rng.normal(size=(3000, 12)), rng.normal(size=(800, 12))
        y = np.arange(3000) % 2
        if kind == "knn":
            model = models.fit(ModelSpec("knn"), X, y)
        else:
            state = {"kernel": KernelFn("rbf").resolve(12), "sv_X": X,
                     "sv_coef": rng.normal(size=3000), "bias": 0.0}
            model = models.TrainedModel(ModelSpec("svm"), models.TrainMeta(), 12, state)
        tracemalloc.start()
        try:
            model.predict_proba(X_test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * models._SCORE_BYTES


THREAD_PROBE = """
import dataclasses, hashlib, sys
from qembed import models
from qembed.bench.config import load_config
from qembed.bench.runner import preprocess_run
config = dataclasses.replace(load_config(sys.argv[1]), synthetic_rows=7043)
pre, manifest = preprocess_run(config)
print(manifest["split_checksum"])
for kind in ("svm", "knn", "logreg"):
    proba = models.fit(models.ModelSpec(kind), pre.train).predict_proba(pre.test)
    print(kind, hashlib.sha256(proba.tobytes()).hexdigest())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two BLAS threads")
def test_same_bits_at_one_and_two_blas_threads():
    # the 7,043-row draw of configs/synthetic.json, classical encoding (the
    # split itself): PCA projection, kNN, SVM and logreg scores at 1 and 2 threads
    root = Path(__file__).resolve().parent.parent
    outputs = []
    for threads in ("1", "2"):
        path = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(path)}
        done = subprocess.run([sys.executable, "-c", THREAD_PROBE, str(root / "configs/synthetic.json")],
                              env=env, capture_output=True, text=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def _reference_best_split(X, seg, scores, totals, min_leaf, best):
    """Every cut of every column scanned, in (features, rows) blocks."""
    n = seg.shape[1]
    cuts = slice(min_leaf - 1, n - min_leaf)
    step = max(1, _BLOCK // n)
    best_j, best_thr = -1, 0.0
    for start in range(0, X.shape[1], step):
        block = np.arange(start, min(start + step, X.shape[1]))
        sorted_rows = seg[block]
        sc = X[sorted_rows, block[:, None]]
        below, above = sc[:, cuts], sc[:, min_leaf:n - min_leaf + 1]
        score = np.where(above > below, scores(sorted_rows, cuts, totals), np.inf)
        won = -1
        for r, s in enumerate(score.min(axis=1).tolist()):
            if s < best - _EPS:
                best, won = s, r
        if won >= 0:
            cut = score[won].argmin()
            best_j = int(block[won])
            best_thr = float(_threshold(below[won, cut], above[won, cut]))
    return best_j, best_thr


def reference_grow(nodes, X, node, search, best0, max_depth, min_leaf, presorted=None):
    """The depth-first grower before columns were told apart by kind: every
    column mergesorted and partitioned, every cut of every column scanned.
    It stands in for `tree._grow`; search's `cut_scores` and `presorted` go unused."""
    scores = search[0]
    m, d = X.shape
    limit = np.inf if max_depth is None else max_depth
    order = np.empty((d + 1, m), dtype=np.int32)
    for j in range(d):
        order[j] = np.argsort(X[:, j], kind="mergesort")
    order[d] = np.arange(m)
    go_left, leaf = np.zeros(m, dtype=bool), np.empty(m)
    stack = [(0, m, 0, None, 2)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while stack:
            lo, hi, depth, parent, slot = stack.pop()
            if parent is not None:
                parent[slot] = len(nodes)
            seg = order[:, lo:hi]
            rows = seg[d]
            val, splittable, totals = node(rows)
            nodes.append(rec := [-1, 0.0, -1, -1, val])
            if not splittable or hi - lo < 2 * min_leaf or depth >= limit:
                leaf[rows] = val
                continue
            j, thr = _reference_best_split(X, seg, scores, totals, min_leaf, best0)
            if j < 0:
                leaf[rows] = val
                continue
            rec[:2] = j, thr
            go_left[rows] = goes = X[rows, j] <= thr
            n_left = int(np.count_nonzero(goes))
            _partition(seg[d:] if depth + 1 >= limit else seg, go_left, n_left)
            stack.append((lo + n_left, hi, depth + 1, rec, 3))
            stack.append((lo, lo + n_left, depth + 1, rec, 2))
    return leaf


KIND_CASES = ("two_valued", "constant", "interleaved", "signed_zero")


def kind_data(case, m=150, seed=7):
    """Columns of the kinds the grower tells apart: tied scanned columns,
    +-1 columns, constant ones, and two-valued columns whose low or high
    side mixes -0.0 and 0.0; labels follow a few of them, plus a probe."""
    rng = np.random.default_rng(seed)
    scanned = np.round(rng.normal(size=(m, 3)) * 2) / 2
    two = rng.choice([-1.0, 1.0], size=(m, 3))
    const = np.full((m, 2), 0.1)
    zeros = np.column_stack([rng.choice([-0.0, 0.0, 1.0], size=m),
                             rng.choice([-1.0, -0.0, 0.0], size=m)])
    cols = {
        "two_valued": [two, zeros],
        "constant": [const[:, :1], scanned, const[:, 1:]],
        "interleaved": [scanned[:, :1], two[:, :1], const[:, :1], two[:, 1:], scanned[:, 1:2],
                        zeros[:, :1], const[:, 1:], scanned[:, 2:], zeros[:, 1:]],
        "signed_zero": [zeros, rng.choice([-0.0, 0.0, 0.5, 2.0], size=(m, 1))],
    }[case]
    X = np.column_stack(cols)
    signal = two[:, 0] + zeros[:, 0] - zeros[:, 1] + scanned[:, 0] + two[:, 1]
    y = (signal + rng.normal(scale=1.5, size=m) > np.median(signal)).astype(int)
    probe = np.vstack([X, np.round(rng.normal(size=(40, X.shape[1])) * 2) / 2, -X])
    return X, y, probe


def tree_bytes(t):
    return [getattr(t, name).tobytes() for name in
            ("feature", "threshold", "left", "right", "value", "roots")]


def grown(grow, *args, **kwargs):
    """A standalone grower's one tree, as a node table."""
    nodes = []
    grow(nodes, *args, **kwargs)
    return Tree.of(nodes, [0])


def subtree(table, root):
    """Node ids of the tree at root, in preorder, and its depth in edges."""
    ids, depth, stack = [], 0, [(root, 0)]
    while stack:
        node, d = stack.pop()
        ids.append(int(node))
        depth = max(depth, d)
        if table.left[node] >= 0:
            stack += [(table.right[node], d + 1), (table.left[node], d + 1)]
    return ids, depth


def walk(table, X):
    """Leaf value per tree and row, one tree and one row at a time, from each root."""
    out = np.empty((table.roots.size, X.shape[0]))
    for t, root in enumerate(table.roots):
        for i, x in enumerate(X):
            node = root
            while table.left[node] >= 0:
                go_left = x[table.feature[node]] <= table.threshold[node]
                node = table.left[node] if go_left else table.right[node]
            out[t, i] = table.value[node]
    return out


class TestTree:
    def test_distinct_rows_memorized_at_unlimited_depth(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            X = rng.normal(size=(8, 3))
            y = rng.integers(0, 2, size=8)
            if y.min() == y.max() or min(np.bincount(y)) < 2:
                continue
            spec = ModelSpec("tree", params={"max_depth": None, "min_leaf": 1})
            model = models.fit(spec, X, y)
            assert train_accuracy(model, X, y) == 1.0

    def test_xor_pattern_needs_zero_gain_split(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        spec = ModelSpec("tree", params={"max_depth": None, "min_leaf": 1})
        model = models.fit(spec, X, y)
        assert train_accuracy(model, X, y) == 1.0

    def test_depth_limit_respected(self):
        X, y = blobs(11, n=80, spread=2.5)
        model = models.fit(ModelSpec("tree", params={"max_depth": 2}), X, y)
        assert subtree(model.state["tree"], 0)[1] <= 2

    def test_split_tie_prefers_lower_feature(self):
        # identical informative columns: the split must use feature 0
        col = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        X = np.column_stack([col, col])
        y = col.astype(int)
        root = grown(grow_classifier, X, y, max_depth=1, min_leaf=1)
        assert root.feature[0] == 0

    @pytest.mark.parametrize("a, b", [(1 + 2**-52, 1 + 2**-51), (1.7e308, 1.79e308)])
    def test_threshold_keeps_both_children(self, a, b):
        # the midpoint of adjacent floats rounds up to b, and that of huge ones
        # overflows; either way `x <= midpoint` would send every row left
        X = np.array([[a], [a], [b], [b]])
        spec = ModelSpec("tree", params={"min_leaf": 1})
        model = models.fit(spec, X, np.array([0, 0, 1, 1]))
        assert model.state["tree"].threshold[0] == a
        assert list(model.predict_proba(X)) == [0.0, 0.0, 1.0, 1.0]

    def test_grower_working_set_is_bounded(self):
        # The grower holds one (d + 1) x m int32 index array (1.66 MB here)
        # and per-node temporaries capped by a fixed element budget.  4 MiB
        # leaves room for those, but not for a second copy of X (3.2 MB), a
        # 64-bit index array (3.3 MB) or full-width float blocks at the root.
        # The second matrix is two-valued, as basis encoding's output is: its
        # columns are cut in closed form and hold only the identity row.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12568, 32))
        y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(size=12568) > 0).astype(int)
        for data in (X, np.sign(X)):
            tracemalloc.start()
            try:
                grow_classifier([], data, y, max_depth=8, min_leaf=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20

    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    @pytest.mark.parametrize("case", KIND_CASES)
    def test_grower_matches_reference(self, case, min_leaf, monkeypatch):
        # Constant columns skipped and two-valued ones cut in closed form give
        # the bits of scanning every cut of every sorted column.
        X, y, probe = kind_data(case)
        w = np.random.default_rng(min_leaf).random(y.size)
        fits = {
            "tree": lambda: models.fit(ModelSpec("tree", params={
                "max_depth": None, "min_leaf": min_leaf}), X, y).state["tree"],
            "weighted": lambda: grown(grow_classifier, X, y, w, max_depth=None, min_leaf=min_leaf),
            "adaboost": lambda: models.fit(ModelSpec("adaboost"), X, y).state["tree"],
            "gbt": lambda: models.fit(ModelSpec("gbt", params={
                "n_rounds": 10, "max_depth": None, "min_leaf": min_leaf}), X, y).state["tree"],
            "gbt_depth_3": lambda: models.fit(ModelSpec("gbt", params={
                "n_rounds": 10, "min_leaf": min_leaf}), X, y).state["tree"],
        }
        got = {name: fit() for name, fit in fits.items()}
        monkeypatch.setattr(tree_module, "_grow", reference_grow)
        for name, fit in fits.items():
            want = fit()
            assert tree_bytes(got[name]) == tree_bytes(want), name
            assert got[name].predict(probe).tobytes() == want.predict(probe).tobytes(), name
        assert got["tree"].feature[0] >= 0

    def test_grower_matches_reference_on_wide_nodes(self, monkeypatch):
        # Nodes of more than _BLOCK rows take one column per block, so the
        # closed-form sums run over several blocks.
        X, y, probe = kind_data("interleaved", m=_BLOCK + 900)
        w = np.random.default_rng(0).random(y.size)
        grad, hess = w - 0.5, w * (1 - w)
        fits = (
            lambda: grown(grow_classifier, X, y, max_depth=3, min_leaf=2),
            lambda: grown(grow_classifier, X, y, w, max_depth=3, min_leaf=5),
            lambda: grown(grow_regression, X, grad, hess, max_depth=3, min_leaf=1),
        )
        got = [fit() for fit in fits]
        monkeypatch.setattr(tree_module, "_grow", reference_grow)
        for tree, fit in zip(got, fits):
            assert tree_bytes(tree) == tree_bytes(fit())

    def test_closed_form_sums_are_prefix_sums(self):
        # A two-valued column's left sums add the low side's values in row
        # order, one at a time, as the scan's prefix sum over the sorted
        # column does; a pairwise sum would differ in the last bits.
        rng = np.random.default_rng(8)
        v = rng.normal(size=500) * 10.0 ** rng.integers(-8, 8, size=500)
        left = rng.random((6, 500)) < 0.6
        for mask, got in zip(left, _left_sum(left, v).tolist()):
            assert got == np.cumsum(v[mask])[-1]

    def test_presort_kinds_and_orders(self):
        # Tied scanned columns (signed zeros included) and an untied one get
        # a per-column mergesort's order; the others get no order row.  The
        # untied one is a run of its own, tie-free.
        X, _, _ = kind_data("interleaved")
        rng = np.random.default_rng(3)
        X = np.column_stack([X, rng.normal(size=X.shape[0]),
                             rng.choice([-0.0, 0.0, 1.0, 2.0], size=X.shape[0])])
        runs, cut, order = presort(X)
        assert [(k, f.tolist()) for k, f, _ in runs] == [
            (SCANNED, [0]), (TWO_VALUED, [1]), (TWO_VALUED, [3, 4]), (SCANNED, [5]),
            (TWO_VALUED, [6]), (SCANNED, [8]), (TWO_VALUED, [9]), (TIE_FREE, [10]),
            (SCANNED, [11])]
        scanned = np.concatenate([f for k, f, _ in runs if k != TWO_VALUED])
        assert np.concatenate([at for k, _, at in runs if k != TWO_VALUED]).tolist() == \
            list(range(scanned.size))
        for k, f, _ in runs:  # a tie-free column's sorted values all differ
            tie_free = [np.all(np.diff(np.sort(X[:, j])) > 0) for j in f]
            assert tie_free == [k == TIE_FREE] * f.size
        assert order.shape == (scanned.size + 1, X.shape[0]) and order.dtype == np.int32
        for r, j in enumerate(scanned):
            assert np.array_equal(order[r], np.argsort(X[:, j], kind="mergesort"))
        assert np.array_equal(order[-1], np.arange(X.shape[0]))
        for j in np.concatenate([f for k, f, _ in runs if k == TWO_VALUED]):
            assert cut[j] == _threshold(X[:, j].min(), X[:, j].max())

    @pytest.mark.parametrize("seed", range(5))
    def test_tie_free_columns_grow_the_tied_paths_trees(self, seed, monkeypatch):
        # PCA scores have no tie; the first score's rank in bins of 8 rows, put
        # first, has many.  Reporting every scanned column as tied sends them
        # all through the value gather and the distinct-neighbor mask, and
        # the reference grower scans every cut of every sorted column: no bit
        # may change.
        u, y = scaled_train(seed)
        X = np.column_stack([u[:, 0].argsort().argsort() // 8, u])
        assert [k for k, _, _ in presort(X).runs] == [SCANNED, TIE_FREE]
        w = np.random.default_rng(seed).random(y.size)
        fits = {
            "tree": lambda: models.fit(ModelSpec("tree"), X, y).state["tree"],
            "weighted": lambda: grown(grow_classifier, X, y, w, max_depth=8, min_leaf=3),
            "adaboost": lambda: models.fit(ModelSpec("adaboost"), X, y).state["tree"],
            "gbt": lambda: models.fit(ModelSpec("gbt", params={"n_rounds": 20}), X, y).state[
                "tree"],
        }
        got = {name: fit() for name, fit in fits.items()}
        stable = tree_module._stable_argsort
        monkeypatch.setattr(tree_module, "_stable_argsort", lambda col: (stable(col)[0], True))
        assert [k for k, _, _ in presort(X).runs] == [SCANNED]
        for grow in (tree_module._grow, reference_grow):
            monkeypatch.setattr(tree_module, "_grow", grow)
            for name, fit in fits.items():
                assert tree_bytes(got[name]) == tree_bytes(fit()), name
        assert any((got[name].feature == 0).any() for name in ("tree", "gbt"))

    @pytest.mark.parametrize("max_depth", [None, 3])
    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    @pytest.mark.parametrize("case", KIND_CASES)
    def test_counting_equals_summing_ones(self, case, min_leaf, max_depth):
        # without weights the grower counts rows and labels; all-ones weights
        # sum them, and integer sums are exact in float64, so no bit changes
        X, y, _ = kind_data(case)
        tables, leaves = [], []
        for weights in (None, np.ones(y.size)):
            nodes = []
            leaves.append(grow_classifier(nodes, X, y, weights, max_depth=max_depth,
                                          min_leaf=min_leaf).tobytes())
            tables.append(tree_bytes(Tree.of(nodes, [0])))
        assert tables[0] == tables[1] and leaves[0] == leaves[1]

    def test_leaf_probabilities_are_class_fractions(self):
        X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
        y = np.array([1, 1, 0, 0, 0, 0])
        root = grown(grow_classifier, X, y, max_depth=1, min_leaf=1)
        got = root.predict(np.array([[0.0], [1.0]]))[0]
        assert got[0] == pytest.approx(2 / 3)
        assert got[1] == pytest.approx(0.0)


class TestForest:
    def test_single_tree_reduction(self):
        X, y = blobs(12, n=60, spread=2.0)
        tree_model = models.fit(ModelSpec("tree"), X, y)
        forest_model = models.fit(
            ModelSpec(
                "forest",
                params={"n_trees": 1, "feature_fraction": 1.0, "bootstrap": False},
            ),
            X, y,
        )
        assert np.array_equal(
            tree_model.predict_proba(X), forest_model.predict_proba(X)
        )

    def test_deterministic_and_probabilistic_output(self):
        X, y = blobs(13, n=50, spread=2.0)
        spec = ModelSpec("forest", seed=5, params={"n_trees": 20})
        a = models.fit(spec, X, y)
        b = models.fit(spec, X, y)
        pa = a.predict_proba(X)
        assert np.array_equal(pa, b.predict_proba(X))
        assert np.all((pa >= 0) & (pa <= 1))

    @pytest.mark.parametrize("max_depth, min_leaf", [(8, 2), (None, 1), (3, 5)])
    def test_trees_follow_the_draw_order(self, max_depth, min_leaf):
        # Bootstrap counts come first, one bincount of m draws per tree; with
        # all features no other draw happens.  Each tree is then the plain
        # tree on its bootstrap rows, ties and duplicates included.
        X, y, probe = tied_data()
        m = X.shape[0]
        spec = ModelSpec("forest", seed=11, params={
            "n_trees": 6, "feature_fraction": 1.0, "max_depth": max_depth, "min_leaf": min_leaf,
        })
        table = models.fit(spec, X, y).state["tree"]
        assert table.roots.tolist() == list(range(6))
        rng = np.random.default_rng(11)
        for root, leaf in zip(table.roots, table.predict(probe)):
            rows = np.repeat(np.arange(m), np.bincount(rng.integers(0, m, size=m), minlength=m))
            plain = grown(grow_classifier, X[rows], y[rows], max_depth=max_depth,
                          min_leaf=min_leaf)
            assert leaf.tobytes() == plain.predict(probe)[0].tobytes()
            assert sorted(table.value[subtree(table, root)[0]].tolist()) == sorted(
                plain.value.tolist())

    def test_working_set_is_bounded(self):
        # The level-wise grower holds every tree's in-bag rows and counts as
        # int32 (1.6 MB here), a rank table (0.2 MB), the node tables
        # (~0.6 MB) and one run of temporaries capped by a fixed element
        # budget (~0.4 MB): 3.1-3.2 MiB measured.  4 MiB leaves room for
        # those, but not for 64-bit rows and counts (+1.6 MB), per-pair
        # results for a whole level (~1.3 MB at the deepest) or a level
        # searched in one piece (tens of MB).
        rng = np.random.default_rng(5)
        X = rng.normal(size=(3156, 16))
        y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(size=3156) > 0).astype(int)
        tracemalloc.start()
        try:
            grow_forest(X, y, 100, None, 8, 2, True, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("feature_fraction", [None, 1.0])
    def test_bits_do_not_depend_on_the_run_budget(self, monkeypatch, bootstrap,
                                                  feature_fraction):
        # Each level is searched in chunks of nodes and runs of segments, and
        # partitioned in runs, under element budgets.  Capping every budget at
        # 16 cuts a level into many runs, most of them one segment over the cap.
        X, y, probe = tied_data()
        fit = lambda: grow_forest(X, y, 8, feature_fraction, None, 1, bootstrap,
                                  np.random.default_rng(3))
        default, runs, cut = fit(), tree_module._runs, []

        def capped(size, budget=tree_module._RUN):
            for run in runs(size, min(budget, 16)):
                cut.append(size[run].sum() > 16)
                yield run

        monkeypatch.setattr(tree_module, "_runs", capped)
        small = fit()
        assert len(cut) > 100 and 0 < sum(cut) < len(cut)
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(small, name).tobytes() == getattr(default, name).tobytes()
        assert small.predict(probe).tobytes() == default.predict(probe).tobytes()

    def test_splitmix64_matches_integer_reference(self):
        def reference(z):
            z = (z + 0x9E3779B97F4A7C15) % 2**64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
            return z ^ (z >> 31)

        rng = np.random.default_rng(42)
        keys = [0, 2**64 - 1, *rng.integers(2**64, dtype=np.uint64, size=1000).tolist()]
        got = _splitmix64(np.array(keys, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [reference(z) for z in keys]
        assert got[0] == 0xE220A8397B1DCDAF  # splitmix64's first output from seed 0

    def test_seed_changes_bootstrap(self):
        X, y = blobs(14, n=50, spread=2.0)
        a = models.fit(ModelSpec("forest", seed=1, params={"n_trees": 10}), X, y)
        b = models.fit(ModelSpec("forest", seed=2, params={"n_trees": 10}), X, y)
        assert not np.array_equal(a.predict_proba(X), b.predict_proba(X))


class TestAdaboost:
    def test_weights_renormalized_every_round(self, monkeypatch):
        sums = []
        original = ensemble.grow_classifier

        def spy(nodes, X, y, sample_weight=None, **kw):
            if sample_weight is not None:
                sums.append(float(np.sum(sample_weight)))
            return original(nodes, X, y, sample_weight=sample_weight, **kw)

        monkeypatch.setattr(ensemble, "grow_classifier", spy)
        X, y = blobs(15, n=40, spread=2.5)
        models.fit(ModelSpec("adaboost", params={"n_rounds": 15}), X, y)
        assert len(sums) >= 2
        assert all(abs(s - 1.0) < 1e-12 for s in sums)

    def test_single_stump_vote(self):
        # one clean stump: any row it labels 1 must score above 0.5
        X = np.array([[0.0], [0.1], [0.9], [1.0]])
        y = np.array([0, 0, 1, 1])
        model = models.fit(ModelSpec("adaboost", params={"n_rounds": 1}), X, y)
        assert model.state["tree"].roots.size == 1
        proba = model.predict_proba(X)
        assert np.all(proba[y == 1] > 0.5)
        assert np.all(proba[y == 0] < 0.5)

    def test_no_stump_better_than_chance_scores_one_half(self):
        # a constant feature cannot split balanced labels: the first stump's
        # weighted error is 0.5, so training stops with no stump
        X = np.ones((8, 1))
        y = np.array([0, 1] * 4)
        model = models.fit(ModelSpec("adaboost"), X, y)
        table = model.state["tree"]
        assert table.roots.size == table.value.size == 0 and model.meta.iterations == 0
        assert np.array_equal(model.predict_proba(np.array([[0.0], [1.0], [5.0]])),
                              [0.5, 0.5, 0.5])

    def test_improves_over_stump_on_hard_data(self):
        X, y = blobs(16, n=120, d=4, spread=2.8)
        stump = models.fit(ModelSpec("tree", params={"max_depth": 1, "min_leaf": 1}), X, y)
        boosted = models.fit(ModelSpec("adaboost"), X, y)
        assert train_accuracy(boosted, X, y) >= train_accuracy(stump, X, y)


class TestGbt:
    def test_training_loss_monotone(self, gbt_losses):
        for seed in range(5):
            X, y = blobs(20 + seed, n=60, d=3, spread=2.5)
            model = models.fit(ModelSpec("gbt", params={"n_rounds": 40}), X, y)
            losses = gbt_losses(model, X, y)
            assert np.all(np.diff(losses) <= 1e-12)

    def test_loss_starts_below_prior(self, gbt_losses):
        X, y = blobs(26, n=60, spread=2.0)
        model = models.fit(ModelSpec("gbt", params={"n_rounds": 5}), X, y)
        p0 = np.clip(y.mean(), 1e-15, 1 - 1e-15)
        prior_loss = -(y.mean() * math.log(p0) + (1 - y.mean()) * math.log(1 - p0))
        assert gbt_losses(model, X, y)[0] <= prior_loss + 1e-12

    def test_fits_separable_data(self):
        X, y = blobs(27, n=60, spread=0.6)
        model = models.fit(ModelSpec("gbt"), X, y)
        assert train_accuracy(model, X, y) == 1.0


TABLE_SPECS = {
    "tree": ModelSpec("tree", params={"max_depth": None, "min_leaf": 1}),
    "forest": ModelSpec("forest", seed=4, params={"n_trees": 12}),
    "adaboost": ModelSpec("adaboost", params={"n_rounds": 30}),
    "gbt": ModelSpec("gbt", params={"n_rounds": 15}),
}
TABLE_CASES = (*KIND_CASES, "tied")


def table_data(case):
    return tied_data() if case == "tied" else kind_data(case)


def spy_returns(monkeypatch, name):
    """What each call of ensemble's grower `name` returned, from now on."""
    returned, original = [], getattr(ensemble, name)

    def spy(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(ensemble, name, spy)
    return returned


def assert_one_tree_per_node(table):
    ids = [i for root in table.roots for i in subtree(table, root)[0]]
    assert sorted(ids) == list(range(table.value.size))


class TestTreeTable:
    """Every tree model is one node table: `roots` lists each tree's root,
    child ids index the whole table, and one walk scores every tree."""

    @pytest.mark.parametrize("kind", sorted(TABLE_SPECS))
    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_one_walk_scores_every_tree(self, case, kind):
        # predict gives each row's leaf in each tree, as walking one tree and one
        # row at a time from its root does; tree_sum adds weights[t] times row t,
        # in tree order; every node is in exactly one tree
        X, y, probe = table_data(case)
        model = models.fit(TABLE_SPECS[kind], X, y)
        state, table = model.state, model.state["tree"]
        want = walk(table, probe)
        assert want.shape == (table.roots.size, probe.shape[0])
        assert table.predict(probe).tobytes() == want.tobytes()
        score = np.full(probe.shape[0], state["offset"])
        for weight, leaf in zip(state["weights"], want):
            score = score + weight * leaf
        assert ensemble.tree_sum(state, probe).tobytes() == (score / state["scale"]).tobytes()
        assert_one_tree_per_node(table)
        assert model.meta.iterations == (0 if kind == "tree" else table.roots.size)

    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_boosters_read_leaf_values_off_the_grower(self, case, monkeypatch):
        # round t's grower returns row t of the table's walk over the training
        # rows (AdaBoost's stumps hold its values as 0/1 votes), so no fit walks
        # its own trees
        X, y, _ = table_data(case)
        for kind, grower in (("adaboost", "grow_classifier"), ("gbt", "grow_regression")):
            returned = spy_returns(monkeypatch, grower)
            with monkeypatch.context() as no_walk:
                no_walk.setattr(Tree, "predict", None)
                table = models.fit(TABLE_SPECS[kind], X, y).state["tree"]
            rounds = np.array(returned[:table.roots.size])
            if kind == "adaboost":
                rounds = (rounds >= 0.5).astype(float)
            assert rounds.tobytes() == walk(table, X).tobytes(), kind

    def test_a_discarded_stump_leaves_no_node(self, monkeypatch):
        # two stumps are kept; under their reweighting the third is no better
        # than chance, so it is dropped with its nodes and ends training
        X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1, 1, 0])
        returned = spy_returns(monkeypatch, "grow_classifier")
        model = models.fit(ModelSpec("adaboost"), X, y)
        table = model.state["tree"]
        assert len(returned) == 3 and table.roots.tolist() == [0, 3]
        assert table.value.size == 6 and model.meta.iterations == 2
        assert_one_tree_per_node(table)
        assert set(table.value.tolist()) <= {0.0, 1.0}


class TestProbabilityContract:
    def test_all_kinds_in_unit_interval(self):
        X, y = blobs(30, n=50, d=3, spread=2.0)
        Xt, _ = blobs(31, n=30, d=3, spread=3.0)
        for kind in models.MODEL_KINDS:
            spec = ModelSpec(kind, params=_small_params(kind))
            model = models.fit(spec, X, y)
            p = model.predict_proba(Xt)
            assert p.shape == (30,)
            assert np.all(p >= 0) and np.all(p <= 1)
            # binary complement sums to one by construction
            assert np.allclose(p + (1 - p), 1.0, atol=1e-9)


def _small_params(kind):
    return {
        "logreg": {"max_iter": 200},
        "knn": {},
        "svm": {"max_iter": 20},
        "tree": {},
        "forest": {"n_trees": 10},
        "adaboost": {"n_rounds": 10},
        "gbt": {"n_rounds": 10},
    }[kind]


class TestDeterminism:
    def test_same_seed_same_predictions(self):
        X, y = blobs(36, n=50, d=4, spread=2.0)
        for kind in models.MODEL_KINDS:
            spec = ModelSpec(kind, seed=9, params=_small_params(kind))
            a = models.fit(spec, X, y).predict_proba(X)
            b = models.fit(spec, X, y).predict_proba(X)
            assert np.array_equal(a, b), kind


@functools.lru_cache(maxsize=None)
def scaled_train(seed):
    """The [0, 1]-scaled PCA train split of the bundled 500-row table, as the
    bench feeds basis and linear_pi encodings, and its labels."""
    options = pl.PreprocessOptions(n_components=12)
    train = pl.run_preprocess(synthetic_telco(500, seed), options, seed).train
    lo = train.data.min(axis=0)
    return (train.data - lo) / (train.data.max(axis=0) - lo), train.labels


MAPS = {"exp(3u)+u": lambda u: np.exp(3 * u) + u, "cos(pi u)": lambda u: np.cos(np.pi * u)}


class TestNullControls:
    """Rank-based models see only each column's order of values, so a strictly
    monotone map of every column leaves their train predictions unchanged.
    Under a decreasing map the order reverses; the tree and AdaBoost still
    agree, while gbt (seed 3) and the forest can pick the mirrored cut of an
    equal-gain tie, so only the increasing map is pinned for them.  The
    forest's feature draws follow each node's rows, which a mirror keeps, so
    its predictions under the decreasing map stay close, though not equal."""

    @pytest.mark.parametrize("mapping, kind", [
        *(("exp(3u)+u", kind) for kind in ("tree", "adaboost", "gbt", "forest")),
        *(("cos(pi u)", kind) for kind in ("tree", "adaboost")),
    ])
    @pytest.mark.parametrize("seed", range(10))
    def test_train_predictions_unchanged(self, mapping, kind, seed):
        u, y = scaled_train(seed)
        v = MAPS[mapping](u)
        spec = ModelSpec(kind, seed=seed, params={"bootstrap": False} if kind == "forest" else {})
        before = models.fit(spec, u, y).predict_proba(u)
        assert before.tobytes() == models.fit(spec, v, y).predict_proba(v).tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_mirrored_forest_stays_close(self, seed):
        u, y = scaled_train(seed)
        v = MAPS["cos(pi u)"](u)
        spec = ModelSpec("forest", seed=seed)
        before = models.fit(spec, u, y).predict_proba(u)
        assert np.abs(models.fit(spec, v, y).predict_proba(v) - before).mean() < 0.01


def tied_data():
    """Quantized columns with many tied values, plus an off-grid probe."""
    rng = np.random.default_rng(2024)
    X = rng.normal(size=(160, 6))
    X[:, :3] = np.round(X[:, :3] * 2) / 2
    X[:, 3:] = np.clip(np.round(X[:, 3:]), -1, 1)
    y = (X[:, 0] + 0.5 * X[:, 3] + rng.normal(scale=0.8, size=160) > 0).astype(int)
    probe = np.vstack([X, np.round(rng.normal(size=(40, 6)) * 4) / 4])
    return X, y, probe


class TestPinnedOutputs:
    """sha256 of the predict_proba bytes of every model kind on tied data.

    Ties make the split order depend on the stable sort, the forest's
    bootstrap duplicates rows, and AdaBoost reweights them, so any change
    in how splits are searched, ordered or broken shows up here.  numpy's
    exp and OpenBLAS's dot product pick CPU-specific kernels, so svm,
    AdaBoost and gbt have one digest per x86-64 choice: numpy with or
    without AVX-512, OpenBLAS's SkylakeX or Haswell kernels.  logreg's
    Newton step is one elementwise `sweep`, so only numpy's kernels move
    its bits.
    """

    PINS = {
        "logreg": (
            ModelSpec("logreg"),
            {
                "ef59d3e81b8217b2aabf3a045c0f18a739c292f2f88b99a0191b5026b0b134c9",
                "7b56366ed84162f5cb255f08bf5c39183259b4f547102e80283f75acf77e2968",
            },
        ),
        "knn": (
            ModelSpec("knn"),
            {"6808c2a60986e68cbb2d3a2e5d260d470fc6ae6f9f5b4a416fcad4ee15a37232"},
        ),
        "svm": (
            ModelSpec("svm"),
            {
                "7d26eec7a02fde8c163af9ed71cf35ec9a65e31d1863c4d2f02bb8579277ef85",
                "d2a4ede8f1c40a8505243c361156c6a83e7a7d7ca1c1d5c4fe9402af072f7f43",
            },
        ),
        "tree": (
            ModelSpec("tree"),
            {"099aaea2a800430981687c7b1e3b4d04ab7fd57df2b44fc3378bdc2e3188fa9c"},
        ),
        "tree_deep": (
            ModelSpec("tree", params={"max_depth": None, "min_leaf": 1}),
            {"d4d5c83346bec041f4c9531b020fcdc05ab57e5a913f6abb7b73777d31823cce"},
        ),
        "forest": (
            ModelSpec("forest", seed=3, params={"n_trees": 15}),
            {"df0c02e429a3b8691adbdaed57b6f5333e93ea3cf503415725e7afe32242b700"},
        ),
        "adaboost": (
            ModelSpec("adaboost", params={"n_rounds": 25}),
            {
                "dc6357bd7559a81152697775207a8ac980a010168c340fc16b0f287315ebfbe5",
                "ff5d368ea0d92ca8b75225b1f4dceaf39a551a25be7a6527463889205108317a",
                "310dcb7c8ee5345bb27351f0be79f326ad3e7fa74e09bdfc6ed9ed12e8eadd8d",
                "945aa0b495c12956c3383dabc5133de76e7ea38558fc80c47004de47aa0b52ed",
            },
        ),
        "gbt": (
            ModelSpec("gbt", params={"n_rounds": 25}),
            {
                "cacb58d55b70c4a4440055b6bdc42cf3c94574392dac18695d037203ca676d56",
                "5883235f9c19cd078324d7337d5aed1d897d4cdff2da8fa3f1cd7db4c59cae07",
            },
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_predict_proba_bytes(self, name):
        spec, digests = self.PINS[name]
        X, y, probe = tied_data()
        proba = models.fit(spec, X, y).predict_proba(probe)
        assert proba.dtype == np.float64
        assert hashlib.sha256(proba.tobytes()).hexdigest() in digests

    def test_wide_logreg_fit_bytes(self):
        # a row-space Newton fit: configs/synthetic.json's seed-0 draw at ten
        # components, angle-X probability_vector, 212 train rows x 1,024 columns;
        # one digest with numpy's AVX-512 kernels, one without
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "synthetic.json")
        pre, _ = runner.preprocess_run(replace(cfg, preprocess=replace(cfg.preprocess,
                                                                       n_components=10)))
        entry = EncodingEntry("angle", angle_scheme("X", readout="probability_vector"))
        train, _, _ = runner.encode_split(entry, pre.train, pre.test)
        model = models.fit(ModelSpec("logreg"), train)
        digest = hashlib.sha256(model.state["weights"].tobytes())
        digest.update(repr((model.state["bias"], model.meta.iterations)).encode())
        assert train.data.shape == (212, 1024)
        assert digest.hexdigest() in {
            "b2a2070fc40d7998fbbf47c12314f0da5ca550c9a72f1c0f205309d4a7f59efc",
            "f964a6c1669e3c13bbf938a643a856f9f5da7a3348b1c1695c9772e8b558e543",
        }
