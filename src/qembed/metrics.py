"""Binary classification metrics with explicit undefined values.

Zero-denominator cases (no predicted positives, single-class AUC, total
chance agreement) return None rather than a conventional 0, so degenerate
benchmark cells stay visible in reports.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import EmptyInput, InvalidLabel, LengthMismatch, NonFiniteInput, SingleClass

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _binary(v: np.ndarray, what: str) -> np.ndarray:
    """v as ints; raises InvalidLabel unless every entry is 0 or 1."""
    if not np.isin(v, (0, 1)).all():
        raise InvalidLabel(f"{what}: labels must be 0 or 1")
    return v.astype(int)


def confusion(y_true, y_pred) -> ConfusionCounts:
    """Standard binary confusion counts with class 1 as positive."""
    t, p = np.asarray(y_true), np.asarray(y_pred)
    if t.ndim != 1 or t.shape != p.shape:
        raise LengthMismatch("confusion: vectors must be 1-D and equal length")
    if t.size == 0:
        raise EmptyInput("confusion: need at least one sample")
    t, p = _binary(t, "confusion"), _binary(p, "confusion")
    return ConfusionCounts(
        tp=int(np.sum((t == 1) & (p == 1))),
        fp=int(np.sum((t == 0) & (p == 1))),
        tn=int(np.sum((t == 0) & (p == 0))),
        fn=int(np.sum((t == 1) & (p == 0))),
    )


def accuracy(c: ConfusionCounts) -> float | None:
    return (c.tp + c.tn) / c.total if c.total else None


def precision(c: ConfusionCounts) -> float | None:
    denom = c.tp + c.fp
    return c.tp / denom if denom else None


def recall(c: ConfusionCounts) -> float | None:
    denom = c.tp + c.fn
    return c.tp / denom if denom else None


def f1(c: ConfusionCounts) -> float | None:
    p, r = precision(c), recall(c)
    if p is None or r is None or p + r == 0:
        return None
    return 2 * p * r / (p + r)


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group: a group
    of c equal values ending at rank r has midrank r - (c - 1) / 2."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def roc_auc(y_true, scores) -> float:
    """Rank-based (Mann-Whitney) AUC; ties contribute via midranks."""
    t = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    if t.ndim != 1 or t.shape != s.shape:
        raise LengthMismatch("roc_auc: vectors must be 1-D and equal length")
    if not np.all(np.isfinite(s)):
        raise NonFiniteInput("roc_auc: scores must be finite")
    t = _binary(t, "roc_auc")
    n_pos = int(np.sum(t == 1))
    n_neg = int(np.sum(t == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("roc_auc needs both classes present")
    r_pos = float(np.sum(_midranks(s)[t == 1]))
    return (r_pos - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def cohen_kappa(c: ConfusionCounts) -> float | None:
    """Chance-corrected agreement; None when expected agreement is total or n is 0."""
    n = c.total
    if not n:
        return None
    p_o = (c.tp + c.tn) / n
    p_e = ((c.tn + c.fp) / n) * ((c.tn + c.fn) / n) + ((c.tp + c.fn) / n) * ((c.tp + c.fp) / n)
    if p_e >= 1.0:
        return None
    return (p_o - p_e) / (1 - p_e)


@dataclass(frozen=True)
class MetricReport:
    """One evaluation's metrics; None marks an undefined value."""

    accuracy: float | None
    precision: float | None
    recall: float | None
    f1: float | None
    roc_auc: float | None
    kappa: float | None
    threshold: float

    METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "roc_auc", "kappa")

    def to_dict(self) -> dict:
        return asdict(self)


def compute_report(y_true, scores, threshold: float = DEFAULT_THRESHOLD) -> MetricReport:
    """Threshold the scores, then collect every metric into one report.

    A single-class truth vector leaves roc_auc undefined instead of
    raising, so one degenerate benchmark cell cannot abort a whole run.
    """
    s = np.asarray(scores, dtype=float)
    y_pred = (s >= threshold).astype(int)
    c = confusion(y_true, y_pred)
    try:
        auc = roc_auc(y_true, s)
    except SingleClass:
        auc = None
    return MetricReport(
        accuracy=accuracy(c),
        precision=precision(c),
        recall=recall(c),
        f1=f1(c),
        roc_auc=auc,
        kappa=cohen_kappa(c),
        threshold=threshold,
    )
