import math
from dataclasses import asdict

import numpy as np
import pytest

from qembed import metrics as mt
from qembed.errors import EmptyInput, InvalidLabel, LengthMismatch, NonFiniteInput, SingleClass


def brute_confusion(y, p):
    tp = fp = tn = fn = 0
    for t, q in zip(y, p):
        if t == 1 and q == 1:
            tp += 1
        elif t == 0 and q == 1:
            fp += 1
        elif t == 0 and q == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def pairwise_auc(y, s):
    # probability a positive outranks a negative, ties at half credit
    wins = ties = pairs = 0
    for i in range(len(y)):
        for j in range(len(y)):
            if y[i] == 1 and y[j] == 0:
                pairs += 1
                if s[i] > s[j]:
                    wins += 1
                elif s[i] == s[j]:
                    ties += 1
    return (wins + 0.5 * ties) / pairs


def trapezoid_auc(y, s):
    y = np.asarray(y)
    s = np.asarray(s)
    n_pos = (y == 1).sum()
    n_neg = (y == 0).sum()
    points = [(0.0, 0.0)]
    for t in np.unique(s)[::-1]:
        pred = s >= t
        points.append((
            (pred & (y == 0)).sum() / n_neg,
            (pred & (y == 1)).sum() / n_pos,
        ))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2
    return auc


class TestConfusion:
    def test_perfect(self):
        c = mt.confusion([1, 0], [1, 0])
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)

    def test_all_missed(self):
        c = mt.confusion([1, 1], [0, 0])
        assert c.fn == 2 and c.tp == 0

    def test_total_invariant_and_oracle(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, size=1000)
        p = rng.integers(0, 2, size=1000)
        c = mt.confusion(y, p)
        assert (c.tp, c.fp, c.tn, c.fn) == brute_confusion(y, p)
        assert c.total == 1000

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            mt.confusion([1, 0], [1])
        with pytest.raises(EmptyInput):
            mt.confusion([], [])
        # truth or prediction, any entry but 0 or 1 (even one an int cast
        # would round to 0) is a typed label error
        for y, p in (([1, 2], [0, 1]), ([0, 1], [0, -1]), ([0.5, 1], [0, 1])):
            with pytest.raises(InvalidLabel):
                mt.confusion(y, p)


class TestRatioMetrics:
    def test_perfect_prediction(self):
        c = mt.ConfusionCounts(tp=1, fp=0, tn=1, fn=0)
        assert mt.accuracy(c) == mt.precision(c) == mt.recall(c) == mt.f1(c) == 1.0

    def test_precision_undefined(self):
        c = mt.ConfusionCounts(tp=0, fp=0, tn=3, fn=2)
        assert mt.precision(c) is None
        assert mt.f1(c) is None

    def test_recall_undefined(self):
        c = mt.ConfusionCounts(tp=0, fp=2, tn=3, fn=0)
        assert mt.recall(c) is None

    def test_hand_example(self):
        c = mt.ConfusionCounts(tp=3, fp=1, tn=4, fn=2)
        assert mt.precision(c) == pytest.approx(0.75)
        assert mt.recall(c) == pytest.approx(0.6)
        assert mt.f1(c) == pytest.approx(2 / 3)
        assert mt.accuracy(c) == pytest.approx(0.7)

    def test_f1_zero_pr_sum(self):
        c = mt.ConfusionCounts(tp=0, fp=2, tn=0, fn=3)
        assert mt.f1(c) is None  # P = R = 0

    def test_mean_inequality(self):
        # harmonic <= geometric <= arithmetic mean of P and R
        rng = np.random.default_rng(2)
        for _ in range(500):
            c = mt.ConfusionCounts(*(int(k) for k in rng.integers(1, 30, size=4)))
            p, r, f = mt.precision(c), mt.recall(c), mt.f1(c)
            assert f <= math.sqrt(p * r) + 1e-12
            assert math.sqrt(p * r) <= (p + r) / 2 + 1e-12


class TestRocAuc:
    def test_perfect_ranking(self):
        assert mt.roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_all_ties(self):
        assert mt.roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_reversed_ranking(self):
        assert mt.roc_auc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]) == 0.0

    def test_matches_trapezoid_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            y = rng.integers(0, 2, size=50)
            if y.min() == y.max():
                continue
            s = np.round(rng.uniform(size=50), 2)  # rounding forces ties
            assert mt.roc_auc(y, s) == pytest.approx(trapezoid_auc(y, s), abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(4, 64))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            s = rng.choice([0.2, 0.4, 0.6, 0.8], size=n)
            assert mt.roc_auc(y, s) == pytest.approx(pairwise_auc(y, s), abs=1e-12)

    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 2, size=40)
        y[0], y[1] = 0, 1
        s = rng.normal(size=40)
        base = mt.roc_auc(y, s)
        assert mt.roc_auc(y, np.exp(s)) == pytest.approx(base, abs=1e-12)
        assert mt.roc_auc(y, 3 * s + 7) == pytest.approx(base, abs=1e-12)

    def test_negation_complements(self):
        rng = np.random.default_rng(6)
        y = rng.integers(0, 2, size=31)
        y[:2] = [0, 1]
        s = rng.permutation(np.arange(31, dtype=float))  # distinct, no ties
        assert mt.roc_auc(y, s) + mt.roc_auc(y, -s) == pytest.approx(1.0, abs=1e-12)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            mt.roc_auc([1, 1, 1], [0.1, 0.5, 0.9])

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            mt.roc_auc([0, 1, 1], [0.1, 0.5])
        with pytest.raises(LengthMismatch):
            mt.roc_auc([[0, 1]], [[0.1, 0.5]])
        for bad in (math.nan, math.inf):
            with pytest.raises(NonFiniteInput):
                mt.roc_auc([0, 1, 1], [0.1, bad, 0.9])
        # a row labelled 2 is rejected, not silently left out of both classes
        with pytest.raises(InvalidLabel):
            mt.roc_auc([0, 2, 1, 1], [0.1, 0.9, 0.5, 0.6])

    def test_midranks_equal_mean_position_among_equals(self):
        # the definition: the mean 1-based sorted position of the equal values
        rng = np.random.default_rng(59)
        for trial in range(300):
            n = int(rng.integers(1, 40))
            if trial % 2:  # heavy ties, -0.0 equal to 0.0
                x = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], size=n)
            else:
                x = np.round(rng.normal(size=n), 1)
            ranked = np.sort(x)
            want = [np.flatnonzero(ranked == v).mean() + 1 for v in x]
            assert mt._midranks(x).tolist() == want


class TestKappa:
    def test_perfect_agreement(self):
        assert mt.cohen_kappa(mt.confusion([1, 0, 1, 0], [1, 0, 1, 0])) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        assert mt.cohen_kappa(mt.confusion([1, 0, 1, 0], [0, 1, 0, 1])) == pytest.approx(-1.0)

    def test_constant_prediction_balanced_truth(self):
        assert mt.cohen_kappa(mt.confusion([0, 1, 0, 1], [1, 1, 1, 1])) == pytest.approx(0.0)

    def test_total_chance_agreement_undefined(self):
        assert mt.cohen_kappa(mt.confusion([1, 1, 1], [1, 1, 1])) is None

    def test_range(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            y = rng.integers(0, 2, size=20)
            p = rng.integers(0, 2, size=20)
            k = mt.cohen_kappa(mt.confusion(y, p))
            if k is not None:
                assert -1.0 - 1e-12 <= k <= 1.0 + 1e-12

    def test_no_samples_undefined(self):
        assert mt.cohen_kappa(mt.ConfusionCounts(0, 0, 0, 0)) is None

    def test_counts_match_label_means_bit_for_bit(self):
        # the label-vector form the counts replaced: class shares as np.mean
        rng = np.random.default_rng(31)
        for _ in range(5000):
            n = int(rng.integers(1, 200))
            y = rng.integers(0, 2, size=n)
            p = rng.integers(0, 2, size=n) if rng.uniform() < 0.8 else np.ones(n, int)
            p_o = float(np.mean(y == p))
            p_e = sum(np.mean(y == c) * np.mean(p == c) for c in (0, 1))
            want = None if p_e >= 1.0 else float((p_o - p_e) / (1 - p_e))
            assert repr(mt.cohen_kappa(mt.confusion(y, p))) == repr(want)  # -0.0 too


def brute_kappa(y, p):
    n = len(y)
    p_o = sum(1 for a, b in zip(y, p) if a == b) / n
    p_e = 0.0
    for c in (0, 1):
        p_e += (sum(1 for a in y if a == c) / n) * (sum(1 for b in p if b == c) / n)
    return None if p_e >= 1 else (p_o - p_e) / (1 - p_e)


class TestOracleEquivalence:
    def test_1000_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            y = rng.integers(0, 2, size=n)
            p = rng.integers(0, 2, size=n)
            c = mt.confusion(y, p)
            tp, fp, tn, fn = brute_confusion(y, p)
            assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
            assert mt.accuracy(c) == pytest.approx((tp + tn) / n, abs=1e-12)
            if tp + fp:
                assert mt.precision(c) == pytest.approx(tp / (tp + fp), abs=1e-12)
            else:
                assert mt.precision(c) is None
            got, want = mt.cohen_kappa(mt.confusion(y, p)), brute_kappa(y, p)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)
            if 0 < y.sum() < n:
                s = rng.normal(size=n)
                assert mt.roc_auc(y, s) == pytest.approx(pairwise_auc(y, s), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 2, size=60)
        y[:2] = [0, 1]
        s = rng.normal(size=60)
        base = mt.compute_report(y, s)
        for _ in range(20):
            idx = rng.permutation(60)
            shuffled = mt.compute_report(y[idx], s[idx])
            for name in mt.MetricReport.METRIC_NAMES:
                assert getattr(shuffled, name) == pytest.approx(
                    getattr(base, name), abs=1e-12
                )


class TestComputeReport:
    def test_threshold_recorded_and_applied(self):
        y = [0, 0, 1, 1]
        s = [0.2, 0.4, 0.6, 0.9]
        report = mt.compute_report(y, s)
        assert report.threshold == 0.5
        assert report.accuracy == 1.0
        lenient = mt.compute_report(y, s, threshold=0.3)
        assert lenient.accuracy == 0.75  # 0.4 crosses the lower bar

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, True, "0.5"])
    def test_threshold_must_be_a_finite_real(self, threshold):
        # NaN would mark every row class 0 and report accuracy 0.5, without an error
        with pytest.raises(ValueError, match="^threshold must be a finite real number"):
            mt.compute_report([0, 1], [0.1, 0.9], threshold=threshold)

    def test_threshold_stored_as_python_float(self):
        for threshold in (0.5, np.float64(0.3)):
            stored = mt.compute_report([0, 1], [0.1, 0.9], threshold=threshold).threshold
            assert type(stored) is float and stored == threshold

    def test_single_class_truth_leaves_auc_undefined(self):
        report = mt.compute_report([1, 1, 1], [0.9, 0.8, 0.7])
        assert report.roc_auc is None
        assert report.accuracy == 1.0

    def test_asdict(self):
        report = mt.compute_report([0, 1], [0.1, 0.9])
        d = asdict(report)
        assert d["accuracy"] == 1.0
        assert d["threshold"] == 0.5
        assert set(mt.MetricReport.METRIC_NAMES) <= set(d)
