"""CART-style binary trees: flat node arrays grown from presorted columns.

One depth-first grower serves weighted Gini (tree, forest, AdaBoost) and
the Newton gain on gradient/hessian sums (gbt).  A `Tree` is six arrays
indexed by node id in preorder: split `feature` and `threshold`, child
ids `left` and `right` (feature and ids -1 at leaves), `value`, row count `n`.

`presort` sorts each column once, stably, into a (d + 1, m) int32 array
whose last row is 0..m-1.  Each node owns one segment [lo, hi) of every
row, and a split partitions the segment stably in place, left rows first.
So at every node row j of the segment lists the node's rows by column j
with ties in row order, exactly what a mergesort of the node's column
gives, and the last row lists them in row order, so node totals add the
same numbers in the same order as a per-node subset would.  A split whose
children reach the depth limit partitions only that last row, since
leaves need no more.

A node scores its candidate features in (features, rows) blocks of at
most `_BLOCK` elements: prefix sums along the rows, the criterion at each
cut, the best cut per feature.  The budget stops a wide node (thousands
of rows by dozens of columns) from allocating several full-size float
temporaries at once; partitions go in blocks of the same size.  Thresholds are midpoints between distinct
neighbors.  A later feature wins only by more than `_EPS`, so ties break
toward the lower feature, then the lower threshold.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

_EPS = 1e-12

# Elements per (features x rows) block in the split search: a constant, so
# memory per node is bounded whatever the data's width.
_BLOCK = 1 << 13


@dataclass
class Tree:
    """Flat preorder tree; `left[i] == -1` marks node i as a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value per row (class-1 probability or regression output)."""
        node = np.zeros(X.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.left[node] >= 0)  # rows not yet at a leaf
        while active.size:
            at = node[active]
            go_left = X[active, self.feature[at]] <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
            active = active[self.left[node[active]] >= 0]
        return self.value[node]

    @property
    def depth(self) -> int:
        depth, level = 0, np.flatnonzero(self.left[:1] >= 0)
        while level.size:
            level = np.concatenate([self.left[level], self.right[level]])
            level = level[self.left[level] >= 0]
            depth += 1
        return depth

    def to_record(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @staticmethod
    def from_record(rec: dict) -> "Tree":
        return Tree(**{f.name: np.asarray(rec[f.name]) for f in fields(Tree)})


def presort(X: np.ndarray) -> np.ndarray:
    """Stable column orders of X plus the identity, as a (d + 1, m) int32 array."""
    m, d = X.shape
    order = np.empty((d + 1, m), dtype=np.int32)
    for j in range(d):
        order[j] = np.argsort(X[:, j], kind="mergesort")
    order[d] = np.arange(m)
    return order


def _choose_features(d: int, n_sub: int | None, rng) -> np.ndarray:
    if n_sub is None or n_sub >= d:
        return np.arange(d)
    return np.sort(rng.choice(d, size=n_sub, replace=False))


def _best_split(X, seg, features, scores, totals, min_leaf, best):
    """Best (feature, threshold) whose score beats `best` by more than _EPS.

    Cut i puts sorted positions 0..i on the left; only cuts that leave
    min_leaf rows on each side and fall between distinct values count.
    """
    n = seg.shape[1]
    cuts = slice(min_leaf - 1, n - min_leaf)
    step = max(1, _BLOCK // n)
    best_j, best_thr = -1, 0.0
    for start in range(0, features.size, step):
        block = features[start:start + step]
        sorted_rows = seg[block]
        sc = X[sorted_rows, block[:, None]]
        below, above = sc[:, cuts], sc[:, min_leaf:n - min_leaf + 1]
        score = np.where(above > below, scores(sorted_rows, cuts, totals), np.inf)
        won = -1
        for r, s in enumerate(score.min(axis=1).tolist()):
            if s < best - _EPS:
                best, won = s, r
        if won >= 0:
            cut = score[won].argmin()  # the first, lowest-threshold cut of the best
            best_j, best_thr = int(block[won]), float((below[won] + above[won])[cut] / 2)
    return best_j, best_thr


def _partition(seg, go_left, n_left):
    """Stable in-place partition of every row of seg: go_left rows first."""
    n = seg.shape[1]
    step = max(1, _BLOCK // n)
    for start in range(0, seg.shape[0], step):
        part = seg[start:start + step]
        mask = go_left.take(part).ravel()
        flat = part.ravel()
        lefts, rights = flat.compress(mask), flat.compress(~mask)
        part[:, :n_left] = lefts.reshape(part.shape[0], n_left)
        part[:, n_left:] = rights.reshape(part.shape[0], n - n_left)


def _grow(X, node, scores, best0, max_depth, min_leaf, n_sub=None, rng=None, order=None):
    """Depth-first preorder growth: node(rows) gives (value, splittable, totals),
    scores(sorted_rows, cuts, totals) a score per cut (lower is better)."""
    m, d = X.shape
    limit = np.inf if max_depth is None else max_depth
    order = presort(X) if order is None else order.copy()
    go_left = np.zeros(m, dtype=bool)
    nodes = []  # [feature, threshold, left, right, value, n] per node
    stack = [(0, m, 0, None, 2)]  # segment, depth, parent node, child slot
    with np.errstate(divide="ignore", invalid="ignore"):
        while stack:
            lo, hi, depth, parent, slot = stack.pop()
            if parent is not None:
                parent[slot] = len(nodes)
            seg = order[:, lo:hi]
            rows = seg[d]
            val, splittable, totals = node(rows)
            nodes.append(rec := [-1, 0.0, -1, -1, val, hi - lo])
            if not splittable or hi - lo < 2 * min_leaf or depth >= limit:
                continue
            features = _choose_features(d, n_sub, rng)
            j, thr = _best_split(X, seg, features, scores, totals, min_leaf, best0)
            if j < 0:
                continue
            rec[:2] = j, thr
            go_left[rows] = goes = X[rows, j] <= thr
            n_left = int(np.count_nonzero(goes))
            # children at the depth limit are leaves and need only their rows
            _partition(seg[d:] if depth + 1 >= limit else seg, go_left, n_left)
            stack.append((lo + n_left, hi, depth + 1, rec, 3))
            stack.append((lo, lo + n_left, depth + 1, rec, 2))
    return Tree(*map(np.array, zip(*nodes)))


def grow_classifier(
    X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray | None = None,
    max_depth: int | None = 8, min_leaf: int = 2, n_sub: int | None = None,
    rng: np.random.Generator | None = None, order: np.ndarray | None = None,
) -> Tree:
    """Weighted-Gini CART on binary labels; leaves hold P(class 1).

    A zero-decrease split is still taken when one exists (pure nodes and
    size/depth limits stop growth), so distinct rows always separate at
    unlimited depth.  `order` is `presort(X)`, for callers that grow many
    trees on the same X; it is not modified.  Without sample weights every
    weight sum is a row count and every weighted label sum an integer, both
    exact in float64, so counting gives the same bits as summing ones.
    """
    w = None if sample_weight is None else np.asarray(sample_weight, float)
    wy = y if w is None else w * y

    def node(rows):
        yr = y.take(rows)
        if w is None:
            wsum, pos = float(rows.size), float(yr.sum())
        else:
            wr = w.take(rows)
            wsum, pos = wr.sum(), float(np.dot(wr, yr))
        return pos / wsum if wsum > 0 else 0.5, yr.min() != yr.max(), (wsum, pos)

    def scores(sorted_rows, cuts, totals):  # impurity after each cut
        total_w, total_pos = totals
        pl = wy.take(sorted_rows).cumsum(axis=1)[:, cuts]
        if w is None:
            wl = np.arange(1.0, sorted_rows.shape[1])[cuts]
        else:
            wl = w.take(sorted_rows).cumsum(axis=1)[:, cuts]
        wr, pr = total_w - wl, total_pos - pl
        ql, qr = pl / wl, pr / wr
        imp = (wl * (2 * ql * (1 - ql)) + wr * (2 * qr * (1 - qr))) / total_w
        return imp if w is None else np.where((wl > 0) & (wr > 0), imp, np.inf)

    return _grow(X, node, scores, np.inf, max_depth, min_leaf, n_sub, rng, order)


def grow_regression(
    X: np.ndarray, grad: np.ndarray, hess: np.ndarray, max_depth: int | None = 3,
    min_leaf: int = 2, order: np.ndarray | None = None,
) -> Tree:
    """Regression tree on gradient/hessian sums; leaves take a Newton step G/(H+eps).

    Splits maximize the usual second-order gain G_L^2/H_L + G_R^2/H_R - G^2/H
    and require it positive, so boosting rounds cannot increase the local
    quadratic objective.  The search minimizes the negated gain.
    """

    def node(rows):
        g, h = grad.take(rows).sum(), hess.take(rows).sum()
        return float(g / (h + _EPS)), True, (g, h, g**2 / (h + _EPS))

    def scores(sorted_rows, cuts, totals):  # negated gain after each cut
        total_g, total_h, parent = totals
        gl = grad.take(sorted_rows).cumsum(axis=1)[:, cuts]
        hl = hess.take(sorted_rows).cumsum(axis=1)[:, cuts]
        return -(gl**2 / (hl + _EPS) + (total_g - gl) ** 2 / (total_h - hl + _EPS) - parent)

    return _grow(X, node, scores, -0.0, max_depth, min_leaf, order=order)
