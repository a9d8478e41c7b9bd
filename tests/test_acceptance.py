"""Acceptance gate: ten numbered end-to-end criteria, one test per criterion.

Each test finishes by printing one `criterion NN PASS` line; pytest itself
supplies the failure line otherwise.  Criterion 6 runs the full churn
pipeline and needs the public CSV (env QEMBED_TELCO or
data/telco.csv); it skips when the file is absent, in which case the
synthetic pipeline checks of criterion 7 stand in as the required gate.
"""
import math
import os
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from qembed import encoding as enc
from qembed import metrics as mt
from qembed import models, qsim
from qembed.bench.config import TELCO_SCHEMA, config_from_dict, load_config
from qembed.bench.runner import run_matrix
from qembed.models import ModelSpec
from qembed.models.linear import log_loss_gradient, log_loss_l2
from qembed.pipeline import (
    FeatureMatrix,
    PreprocessOptions,
    compute_vif,
    correlation_matrix,
    find_elbow,
    load_csv,
    pca_fit,
    pca_inverse_transform,
    pca_transform,
    run_preprocess,
    train_test_split,
)

TELCO_ENV = "QEMBED_TELCO"
_ROOT = Path(__file__).resolve().parent.parent
_DEFAULT_TELCO = _ROOT / "data" / "telco.csv"


def _telco_path() -> Path:
    return Path(os.environ.get(TELCO_ENV, _DEFAULT_TELCO))


def _passed(n: int, detail: str) -> None:
    print(f"criterion {n:02d} PASS: {detail}")


def _best_ms(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best


def blobs(seed, n=500, d=10, spread=2.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([
        rng.normal(-1.5, spread, size=(half, d)),
        rng.normal(1.5, spread, size=(n - half, d)),
    ])
    y = np.array([0] * half + [1] * (n - half))
    perm = rng.permutation(n)
    return X[perm], y[perm]


def test_criterion_01_amplitude_example():
    x = [1.2, 2.7, 1.1, 0.5]
    state = enc.amplitude_encode(x)
    assert state.n_qubits == 2
    want = np.array(x) / math.sqrt(10.19)
    assert np.max(np.abs(state.amps - want)) < 1e-12
    ms = _best_ms(lambda: enc.amplitude_encode(x))
    assert ms < 1.0
    _passed(1, f"amplitudes = x/sqrt(10.19) within 1e-12, {ms:.3f} ms")


def test_criterion_02_text_example():
    states = enc.basis_encode_text("hello")
    codes = [ord(c) for c in "hello"]
    assert codes == [104, 101, 108, 108, 111]
    assert len(states) == 5
    for state, code in zip(states, codes):
        assert state.n_qubits == 7
        amps = state.amps
        assert amps[code] == 1.0 + 0.0j
        assert np.count_nonzero(amps) == 1
    ms = _best_ms(lambda: enc.basis_encode_text("hello"))
    assert ms < 1.0
    _passed(2, f"five 7-qubit states at ASCII indices, {ms:.3f} ms")


def test_criterion_03_rotation_gates():
    def expm_pauli(pauli, theta):
        # independent oracle: diagonalize P, exponentiate the spectrum
        vals, vecs = np.linalg.eigh(pauli)
        return vecs @ np.diag(np.exp(-0.5j * theta * vals)) @ vecs.conj().T

    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=50):
        for gate, pauli in ((qsim.rx_gate, X), (qsim.ry_gate, Y), (qsim.rz_gate, Z)):
            got = gate(theta)
            want = expm_pauli(pauli, theta)
            assert np.max(np.abs(got - want)) < 1e-12

    diag = abs(qsim.rx_gate(math.radians(78.0))[0, 0])
    assert abs(diag - 0.7771459614569709) < 1e-12
    assert abs(diag - math.cos(math.radians(39.0))) < 1e-12
    _passed(3, "rx/ry/rz match exponential oracle; |diag Rx(78deg)| = cos 39deg")


def test_criterion_04_superposition_example():
    state = enc.superposition_encode(["100", "010", "001"])
    probs = qsim.probabilities(state)
    for index in (0b100, 0b010, 0b001):
        assert abs(probs[index] - 1.0 / 3.0) < 1e-12
    assert abs(np.sum(probs) - 1.0) < 1e-12
    assert np.count_nonzero(probs > 1e-15) == 3
    _passed(4, "each listed state carries probability 1/3 within 1e-12")


def test_criterion_05_simulator_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    def random_single():
        kind = rng.integers(0, 6)
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        return (
            qsim.rx_gate(theta) if kind == 0
            else qsim.ry_gate(theta) if kind == 1
            else qsim.rz_gate(theta) if kind == 2
            else qsim.hadamard() if kind == 3
            else qsim.pauli_x() if kind == 4
            else qsim.s_gate()
        )

    # 10,000 random gates on five qubits keep the norm to 1e-9
    n = 5
    state = qsim.new_zero_state(n)
    for _ in range(10_000):
        if rng.random() < 0.75:
            op = qsim.CircuitOp.single(random_single(), int(rng.integers(n)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            op = (
                qsim.CircuitOp.cnot(int(a), int(b))
                if rng.random() < 0.5
                else qsim.CircuitOp.swap(int(a), int(b))
            )
        state = qsim.apply(state, op)
    assert abs(np.sum(qsim.probabilities(state)) - 1.0) < 1e-9

    eye = np.eye(2)
    for _ in range(1000):  # unitarity
        gate = random_single()
        assert np.max(np.abs(gate.conj().T @ gate - eye)) < 1e-12
        assert qsim.is_unitary(gate, tol=1e-12)

    for _ in range(1000):  # involutions, as matrices and on states
        gate = qsim.hadamard() if rng.random() < 0.5 else qsim.pauli_x()
        assert np.max(np.abs(gate @ gate - eye)) < 1e-12
        start = qsim.apply(
            qsim.new_zero_state(2),
            qsim.CircuitOp.single(random_single(), int(rng.integers(2))),
        )
        twice = start
        op = qsim.CircuitOp.single(gate, int(rng.integers(2)))
        twice = qsim.apply(qsim.apply(twice, op), op)
        assert qsim.states_equal_up_to_phase(start, twice, tol=1e-9)

    for _ in range(1000):  # same-axis rotations compose additively
        gate = (qsim.rx_gate, qsim.ry_gate, qsim.rz_gate)[rng.integers(3)]
        a, b = rng.uniform(-math.pi, math.pi, size=2)
        assert np.max(np.abs(gate(a) @ gate(b) - gate(a + b))) < 1e-12

    for _ in range(1000):  # product fast path agrees with the dense expansion
        n = int(rng.integers(2, 6))
        state = qsim.new_zero_state(n)
        for q in range(n):
            state = qsim.apply(state, qsim.CircuitOp.single(random_single(), q))
        assert state.layout == "product"
        dense = state.to_dense()
        assert np.max(np.abs(qsim.probabilities(state) - qsim.probabilities(dense))) < 1e-12
        for q in range(n):
            assert abs(qsim.expectation_z(state, q) - qsim.expectation_z(dense, q)) < 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(5, f"norm walk + four 1000-trial suites in {elapsed:.1f} s")


@pytest.mark.skipif(
    not _telco_path().exists(),
    reason="churn CSV not supplied (set QEMBED_TELCO or add data/telco.csv); "
    "criterion 7 must pass in full instead",
)
def test_criterion_06_churn_pipeline_reproduction():
    t0 = time.perf_counter()
    dataset = load_csv(_telco_path(), TELCO_SCHEMA)
    assert dataset.n_rows == 7043

    pair = np.column_stack([dataset.columns["tenure"], dataset.columns["TotalCharges"]])
    r = correlation_matrix(FeatureMatrix(pair, ("tenure", "TotalCharges"), np.zeros(7043, int)))[0, 1]
    assert abs(r - 0.83) <= 0.02

    options = PreprocessOptions(extra_drops=("PhoneService",))
    result = run_preprocess(dataset, options)
    report = result.report

    assert report.one_hot_columns == 42
    assert report.class_counts_after == {"0": 1869, "1": 1869}
    assert result.train.n_rows + result.test.n_rows == 3738
    assert abs(report.elbow_index - 23) <= 2
    assert report.cumulative_at_elbow >= 0.999

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(
        6,
        f"7043 rows, corr {r:.3f}, 42 columns, 1869/class, "
        f"elbow {report.elbow_index} (cum {report.cumulative_at_elbow:.6f}), "
        f"{elapsed:.1f} s",
    )


def test_criterion_07_synthetic_pipeline_properties(vif_inputs):
    rng = np.random.default_rng(7)

    # VIF equals the inverse-correlation-matrix diagonal on random data;
    # mild mixing keeps the problems well conditioned so 1e-9 is absolute
    for _ in range(30):
        n, d = int(rng.integers(60, 160)), int(rng.integers(3, 7))
        mix = np.eye(d) + 0.3 * rng.normal(size=(d, d)) / math.sqrt(d)
        X = rng.normal(size=(n, d)) @ mix
        matrix = FeatureMatrix(X, tuple(f"c{j}" for j in range(d)), np.zeros(n, int))
        got = np.array([e.vif for e in compute_vif(*vif_inputs(matrix))])
        want = np.diag(np.linalg.inv(np.corrcoef(X.T)))
        assert np.max(want) < 100
        assert np.max(np.abs(got - want)) < 1e-9

    # full-rank PCA reconstructs the input
    for _ in range(10):
        n, d = int(rng.integers(30, 90)), int(rng.integers(4, 12))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
        matrix = FeatureMatrix(X, tuple(f"c{j}" for j in range(d)), np.zeros(n, int))
        model = pca_fit(matrix, d)
        back = pca_inverse_transform(model, pca_transform(model, matrix))
        assert np.max(np.abs(back - X)) < 1e-8

    # the elbow detector recovers a constructed knee exactly
    assert find_elbow([0.7, 0.2, 0.05, 0.03, 0.02]) == 1
    for _ in range(200):
        m = int(rng.integers(5, 40))
        knee = int(rng.integers(1, m - 2))
        steep = float(rng.uniform(1.0, 5.0))
        shallow = steep * float(rng.uniform(0.01, 0.5))
        ratios = np.r_[np.full(knee + 1, steep), np.full(m - knee - 1, shallow)]
        assert find_elbow(ratios) == knee

    # split is a stratified partition with floor-sized train classes
    for _ in range(500):
        n = int(rng.integers(10, 200))
        ratio = float(rng.uniform(0.3, 0.9))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        ids = np.arange(n, dtype=float)
        matrix = FeatureMatrix(
            np.column_stack([ids, rng.normal(size=n)]), ("id", "x"), labels
        )
        train, test = train_test_split(matrix, ratio, int(rng.integers(1000)))
        got_ids = np.concatenate([train.data[:, 0], test.data[:, 0]])
        assert sorted(got_ids.astype(int).tolist()) == list(range(n))
        for c in (0, 1):
            m_c = int(np.count_nonzero(labels == c))
            want_train = int(math.floor(m_c * ratio + 1e-9))
            assert int(np.count_nonzero(train.labels == c)) == want_train
        by_id = {int(i): int(l) for i, l in zip(ids, labels)}
        for part in (train, test):
            for row_id, label in zip(part.data[:, 0], part.labels):
                assert by_id[int(row_id)] == int(label)

    _passed(7, "VIF oracle, PCA reconstruction, exact elbows, 500 split checks")


def test_criterion_08_model_properties(gbt_losses):
    t0 = time.perf_counter()
    X, y = blobs(8, n=500, d=10)

    # analytic log-loss gradient vs central differences
    rng = np.random.default_rng(88)
    for _ in range(10):
        w = rng.normal(scale=0.5, size=10)
        b = float(rng.normal())
        l2 = float(rng.uniform(0, 0.1))
        grad_w, grad_b = log_loss_gradient(X, y, w, b, l2)
        grad = np.r_[grad_w, grad_b]
        num = np.empty(11)
        h = 1e-5
        for j in range(11):
            wp, bp = w.copy(), b
            wm, bm = w.copy(), b
            if j < 10:
                wp[j] += h
                wm[j] -= h
            else:
                bp += h
                bm -= h
            num[j] = (log_loss_l2(X, y, wp, bp, l2) - log_loss_l2(X, y, wm, bm, l2)) / (2 * h)
        rel = np.max(np.abs(num - grad)) / max(np.max(np.abs(grad)), 1e-12)
        assert rel < 1e-4

    # nearest neighbor memorizes its training set
    knn = models.fit(ModelSpec("knn", params={"k": 1}), X, y)
    assert np.array_equal(knn.predict(X), y)

    # SMO convergence satisfies the dual equality constraint
    svm_model = models.fit(ModelSpec("svm", seed=8), X, y)
    sv_coef = svm_model.state["sv_coef"]  # alpha*y, with alpha > 0 on a support vector
    residual = abs(float(np.sum(sv_coef)))
    assert residual < 1e-6
    C = svm_model.spec.params["C"]
    assert np.all(np.abs(sv_coef) <= C + 1e-12)

    # one full-feature unbagged tree is the forest's fixed point
    shared = {"max_depth": 6, "min_leaf": 2}
    tree = models.fit(ModelSpec("tree", seed=8, params=shared), X, y)
    forest = models.fit(
        ModelSpec(
            "forest",
            seed=8,
            params={**shared, "n_trees": 1, "feature_fraction": 1.0, "bootstrap": False},
        ),
        X,
        y,
    )
    probe = np.random.default_rng(9).normal(size=(100, 10))
    assert np.array_equal(tree.predict_proba(X), forest.predict_proba(X))
    assert np.array_equal(tree.predict_proba(probe), forest.predict_proba(probe))

    # boosting weights renormalize to exactly one each round
    from qembed.models import ensemble

    sums = []
    original = ensemble.grow_classifier

    def spy(nodes, Xa, ya, sample_weight=None, **kw):
        if sample_weight is not None:
            sums.append(float(np.sum(sample_weight)))
        return original(nodes, Xa, ya, sample_weight=sample_weight, **kw)

    ensemble.grow_classifier = spy
    try:
        models.fit(ModelSpec("adaboost", params={"n_rounds": 30}), X, y)
    finally:
        ensemble.grow_classifier = original
    assert len(sums) >= 2
    assert all(abs(s - 1.0) < 1e-12 for s in sums)

    # gradient boosting's training loss never increases
    gbt = models.fit(ModelSpec("gbt", params={"n_rounds": 60}), X, y)
    losses = gbt_losses(gbt, X, y)
    assert losses.size >= 2
    assert np.all(np.diff(losses) <= 1e-12)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passed(8, f"gradient, knn, svm, forest, adaboost, gbt checks in {elapsed:.1f} s")


def test_criterion_09_metrics_oracles():
    rng = np.random.default_rng(99)
    n = 1000
    y = rng.integers(0, 2, size=n)
    scores = np.round(rng.random(n), 2)  # heavy ties exercise the midranks
    report = mt.compute_report(y, scores)
    pred = (scores >= 0.5).astype(int)

    tp = fp = tn = fn = 0
    for t, p in zip(y, pred):
        if t == 1 and p == 1:
            tp += 1
        elif t == 0 and p == 1:
            fp += 1
        elif t == 0 and p == 0:
            tn += 1
        else:
            fn += 1
    acc = (tp + tn) / n
    prec = tp / (tp + fp)
    rec = tp / (tp + fn)
    f1 = 2 * prec * rec / (prec + rec)
    p_o = acc
    p_e = ((tp + fp) * (tp + fn) + (tn + fn) * (tn + fp)) / n**2
    kappa = (p_o - p_e) / (1 - p_e)

    s_pos = scores[y == 1][:, None]
    s_neg = scores[y == 0][None, :]
    auc_pairs = float(np.mean((s_pos > s_neg) + 0.5 * (s_pos == s_neg)))

    n_pos, n_neg = int(np.sum(y == 1)), int(np.sum(y == 0))
    points = [(0.0, 0.0)]
    for t in np.unique(scores)[::-1]:
        hit = scores >= t
        points.append((
            float(np.sum(hit & (y == 0))) / n_neg,
            float(np.sum(hit & (y == 1))) / n_pos,
        ))
    auc_trap = sum(
        (x1 - x0) * (y0 + y1) / 2 for (x0, y0), (x1, y1) in zip(points, points[1:])
    )

    assert abs(report.accuracy - acc) < 1e-12
    assert abs(report.precision - prec) < 1e-12
    assert abs(report.recall - rec) < 1e-12
    assert abs(report.f1 - f1) < 1e-12
    assert abs(report.kappa - kappa) < 1e-12
    assert abs(report.roc_auc - auc_pairs) < 1e-12
    assert abs(report.roc_auc - auc_trap) < 1e-12
    _passed(9, "six metrics and both AUC constructions agree within 1e-12")


def test_criterion_10_full_benchmark_matrix():
    t0 = time.perf_counter()
    config = load_config(_ROOT / "configs" / "synthetic.json")
    run = run_matrix(config)

    assert len(run.results) == 28
    assert {r.encoding for r in run.results} == {"classical", "basis", "angle", "amplitude"}
    assert {r.model for r in run.results} == {
        "logreg", "knn", "svm", "tree", "forest", "adaboost", "gbt",
    }
    for cell in run.results:
        assert cell.error is None
        assert cell.converged, (cell.encoding, cell.model)
        for name in mt.MetricReport.METRIC_NAMES:
            value = getattr(cell.report, name)
            assert value is None or math.isfinite(value)
        assert cell.encode_ms >= 0 and cell.fit_ms >= 0 and cell.predict_ms >= 0
        if cell.encoding == "classical":
            assert cell.encode_ms == 0.0
        else:
            assert cell.encode_ms > 0.0
        assert cell.split_checksum == run.manifest["split_checksum"]

    resumed = config_from_dict(run.manifest["config"])
    rerun = run_matrix(resumed)
    assert [asdict(r.report) for r in run.results] == [
        asdict(r.report) for r in rerun.results
    ]

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    _passed(10, f"28 cells clean, manifest re-run reproduced reports, {elapsed:.1f} s")
