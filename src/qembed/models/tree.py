"""CART-style binary trees: flat node arrays grown from presorted columns.

A `Tree` is six arrays indexed by node id: split `feature` and `threshold`,
child ids `left` and `right` (feature and ids -1 at leaves), `value`, row
count `n`.  A depth-first grower serves weighted Gini (tree, AdaBoost) and
the Newton gain on gradient/hessian sums (gbt).  `grow_forest` grows a
forest's trees together, level by level: faster on many small trees, half
as fast on one large tree.

Depth-first, `presort` sorts X's columns once per tree (once per fit for
the boosters) into three kinds.  A constant column has no cut and is
never sorted, scored or partitioned.  A two-valued column has at most one
cut at any node, its lower value left of the threshold between its two
values; that cut is scored in closed form from the node's rows: integer
counts for unweighted Gini, otherwise sums that add the low side's values
one at a time in row order, as a prefix sum over the sorted column would.
Every other column is scanned, tied or tie-free: sorted once, stably (a
SIMD quicksort, or a stable sort when the column has a tie), into a
(s + 1, m) int32 array whose last row is 0..m-1.  Each node owns one segment [lo, hi) of every
row, and a split partitions the segment stably in place, left rows first.
So at every node each scanned column's row of the segment lists the
node's rows by that column with ties in row order, exactly what a
mergesort of the node's column gives, and the last row lists them in row
order, so node totals add the same numbers in the same order as a
per-node subset would.  A split whose children reach the depth limit
partitions only that last row, since leaves need no more.  A node visits
its features in index order, as runs of one kind, so its trees are the
ones a scan of every cut of every sorted column gives, bit for bit.

A node scores its scanned features in (features, rows) blocks of at
most `_BLOCK` elements: prefix sums along the rows, the criterion at each
cut, the best cut per feature, masking cuts between equal values of tied
features (a tie-free feature's values are read at its best cut only);
two-valued features and partitions go in blocks of the same size.  The budget stops a wide node (thousands of rows
by dozens of columns) from allocating several full-size float
temporaries at once.  In both growers thresholds are midpoints between
distinct neighbors, or the lower neighbor where the midpoint rounds up to
the upper one (adjacent floats) or overflows, so both children keep rows.
A later feature wins only by more than `_EPS`, so ties break toward the
lower feature, then the lower threshold.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_EPS = 1e-12

# Elements per (features x rows) block in the split search: a constant, so
# memory per node is bounded whatever the data's width.
_BLOCK = 1 << 13
_RUN = 1 << 12  # elements per run of the level-wise search, ~100 bytes each


@dataclass
class Tree:
    """Flat tree, root at node 0; `left[i] == -1` marks node i as a leaf.
    Forest trees number nodes in level order, others in preorder; `predict`
    and `depth` do not depend on the order."""

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


CONSTANT, TWO_VALUED, SCANNED, TIE_FREE = 0, 1, 2, 3  # column kinds; TIE_FREE: scanned, no tie


class Presorted(NamedTuple):
    """`presort(X)`: what the depth-first grower needs of X's columns."""

    # the non-constant columns in index order, as runs of one kind:
    # (kind, column indices, their rows of `order`, used by scanned runs)
    runs: list[tuple[int, np.ndarray, np.ndarray]]
    cut: np.ndarray  # per two-valued column its one threshold (else unused)
    order: np.ndarray  # (s + 1, m) int32: each scanned column's stable order, then 0..m-1


def _stable_argsort(col):
    """Stable order of a column and whether it has a tie: a SIMD quicksort,
    unless a tie needs a stable sort to order it by row.  Encoded features
    rarely tie, and untied the quicksort is ~5x faster at 12,000 rows; a
    tied column pays a quicksort and a compare on top."""
    col = np.ascontiguousarray(col)
    order = np.argsort(col, kind="quicksort")
    ranked = col.take(order)
    tied = bool((ranked[1:] == ranked[:-1]).any())
    return (np.argsort(col, kind="stable") if tied else order), tied


def presort(X: np.ndarray) -> Presorted:
    """X's columns told apart by kind, the two-valued ones' cuts and the
    scanned ones' orders."""
    m, d = X.shape
    kind, cut = np.full(d, SCANNED, dtype=np.int8), np.zeros(d)
    for j in range(d):
        col = np.ascontiguousarray(X[:, j])
        low, high = col.min(), col.max()
        if low == high:
            kind[j] = CONSTANT
        elif np.count_nonzero(col == low) + np.count_nonzero(col == high) == m:
            kind[j] = TWO_VALUED
            with np.errstate(over="ignore"):  # a midpoint of huge values
                cut[j] = _threshold(low, high)
    scanned = np.flatnonzero(kind == SCANNED)
    order = np.empty((scanned.size + 1, m), dtype=np.int32)
    for r, j in enumerate(scanned):
        order[r], tied = _stable_argsort(X[:, j])
        kind[j] = SCANNED if tied else TIE_FREE
    order[-1] = np.arange(m)
    order_row = np.cumsum(kind >= SCANNED) - 1
    runs = []
    for k, group in itertools.groupby(range(d), kind.__getitem__):
        features = np.fromiter(group, dtype=np.intp)
        if k != CONSTANT:
            runs.append((k, features, order_row[features]))
    return Presorted(runs, cut, order)


def _gini(wl, pl, total_w, total_pos):
    """Weighted Gini impurity after a cut with left weight wl and left label sum pl,
    (wl * (2ql * (1 - ql)) + wr * (2qr * (1 - qr))) / total_w, in place on four arrays."""
    ql, wr = pl / wl, total_w - wl
    qr = total_pos - pl
    qr /= wr
    imp = 1 - ql
    ql *= 2
    imp *= ql
    imp *= wl
    np.subtract(1, qr, out=ql)  # ql's last use is behind: it takes qr's side
    qr *= 2
    ql *= qr
    ql *= wr
    imp += ql
    imp /= total_w
    return imp


def _threshold(below, above):
    """Midpoint of neighbors, or the lower one if it rounds up or overflows."""
    mid = (below + above) / 2
    return np.where(mid < above, mid, below)


def _left_sum(left, v):
    """Per row of the mask `left`, the sum of v over its True entries, added
    in order: the prefix sum a scan of the sorted column reaches at the cut,
    since a stable sort lists the low side's rows first, in row order."""
    return np.where(left, v, 0.0).cumsum(axis=1)[:, -1]


def _best_split(X, seg, features, at, scores, totals, min_leaf, best, tie_free):
    """Best (score, feature, threshold) among scanned `features`, whose
    orders are rows `at` of seg, if it beats `best` by more than _EPS.

    Cut i puts sorted positions 0..i on the left; only cuts that leave
    min_leaf rows on each side and fall between distinct values count.  On
    `tie_free` columns every cut does, so only the winner's neighbors are read.
    """
    n = seg.shape[1]
    cuts = slice(min_leaf - 1, n - min_leaf)
    step = max(1, _BLOCK // n)
    best_j, best_thr = -1, 0.0
    for start in range(0, features.size, step):
        block = features[start:start + step]
        sorted_rows = seg[at[start]:at[start] + block.size]  # a run's rows are consecutive
        score = scores(sorted_rows, cuts, totals)
        if not tie_free:
            sc = X[sorted_rows, block[:, None]]
            score[sc[:, min_leaf:n - min_leaf + 1] <= sc[:, cuts]] = np.inf
        first = score.argmin(axis=1)  # the first, lowest-threshold cut of each min
        won = -1
        for r, s in enumerate(score[np.arange(block.size), first].tolist()):
            if s < best - _EPS:
                best, won = s, r
        if won >= 0:  # the winning cut's two neighbors
            best_j, cut = int(block[won]), first[won] + cuts.start
            best_thr = float(_threshold(*X[sorted_rows[won, cut:cut + 2], best_j]))
    return best, best_j, best_thr


def _best_cut(X, rows, features, cut, cut_scores, totals, min_leaf, best):
    """`_best_split` for two-valued `features`: each has one cut, `cut[j]`,
    scored in closed form from the node's rows, in row order."""
    n = rows.size
    step = max(1, _BLOCK // n)
    won = -1
    for start in range(0, features.size, step):
        block = features[start:start + step]
        left = X[rows, block[:, None]] <= cut[block, None]
        n_left = left.sum(axis=1)
        ok = (n_left >= min_leaf) & (n_left <= n - min_leaf)
        score = np.where(ok, cut_scores(left, n_left, rows, totals), np.inf)
        for r, s in enumerate(score.tolist()):
            if s < best - _EPS:
                best, won = s, start + r
    if won < 0:
        return best, -1, 0.0
    return best, int(features[won]), float(cut[features[won]])


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


def _grow(X, node, scores, cut_scores, best0, max_depth, min_leaf, presorted=None):
    """Depth-first preorder growth: node(rows) gives (value, splittable, totals),
    scores(sorted_rows, cuts, totals) a score per cut of scanned columns and
    cut_scores(left, n_left, rows, totals) one per two-valued column (lower
    is better)."""
    m = X.shape[0]
    limit = np.inf if max_depth is None else max_depth
    if presorted is None:
        runs, cut, order = presort(X)
    else:
        runs, cut, order = presorted.runs, presorted.cut, presorted.order.copy()
    go_left = np.zeros(m, dtype=bool)
    nodes = []  # [feature, threshold, left, right, value, n] per node
    stack = [(0, m, 0, None, 2)]  # segment, depth, parent node, child slot
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while stack:
            lo, hi, depth, parent, slot = stack.pop()
            if parent is not None:
                parent[slot] = len(nodes)
            seg = order[:, lo:hi]
            rows = seg[-1]
            val, splittable, totals = node(rows)
            nodes.append(rec := [-1, 0.0, -1, -1, val, hi - lo])
            if not splittable or hi - lo < 2 * min_leaf or depth >= limit:
                continue
            best, j, thr = best0, -1, 0.0
            for k, features, at in runs:
                found = (
                    _best_cut(X, rows, features, cut, cut_scores, totals, min_leaf, best)
                    if k == TWO_VALUED else
                    _best_split(X, seg, features, at, scores, totals, min_leaf, best,
                                k == TIE_FREE)
                )
                if found[1] >= 0:
                    best, j, thr = found
            if j < 0:
                continue
            rec[:2] = j, thr
            go_left[rows] = goes = X[rows, j] <= thr
            n_left = int(np.count_nonzero(goes))
            # children at the depth limit are leaves and need only their rows
            _partition(seg[-1:] if depth + 1 >= limit else seg, go_left, n_left)
            stack.append((lo + n_left, hi, depth + 1, rec, 3))
            stack.append((lo, lo + n_left, depth + 1, rec, 2))
    return Tree(*map(np.array, zip(*nodes)))


def grow_classifier(
    X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray | None = None,
    max_depth: int | None = 8, min_leaf: int = 2, presorted: Presorted | None = None,
) -> Tree:
    """Weighted-Gini CART on binary labels; leaves hold P(class 1).

    A zero-decrease split is still taken when one exists (pure nodes and
    size/depth limits stop growth), so distinct rows always separate at
    unlimited depth.  `presorted` is `presort(X)`, for callers that grow
    many trees on the same X; it is not modified.  Without sample weights
    every weight sum is a row count and every weighted label sum an
    integer, both exact in float64, so counting gives the same bits as
    summing ones.
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
        mixed = 0 < pos < wsum if w is None else yr.min() != yr.max()  # unweighted: 0/1 counts
        return pos / wsum if wsum > 0 else 0.5, mixed, (wsum, pos)

    def impurity(wl, pl, totals):
        total_w, total_pos = totals
        imp = _gini(wl, pl, total_w, total_pos)
        return imp if w is None else np.where((wl > 0) & (total_w - wl > 0), imp, np.inf)

    def scores(sorted_rows, cuts, totals):  # impurity after each cut
        pl = wy.take(sorted_rows).cumsum(axis=1)[:, cuts]
        if w is None:
            wl = np.arange(1.0, sorted_rows.shape[1])[cuts]
        else:
            wl = w.take(sorted_rows).cumsum(axis=1)[:, cuts]
        return impurity(wl, pl, totals)

    def cut_scores(left, n_left, rows, totals):
        if w is None:
            return impurity(n_left, (left & (y.take(rows) != 0)).sum(axis=1), totals)
        return impurity(_left_sum(left, w.take(rows)), _left_sum(left, wy.take(rows)), totals)

    return _grow(X, node, scores, cut_scores, np.inf, max_depth, min_leaf, presorted)


def grow_regression(
    X: np.ndarray, grad: np.ndarray, hess: np.ndarray, max_depth: int | None = 3,
    min_leaf: int = 2, presorted: Presorted | None = None,
) -> Tree:
    """Regression tree on gradient/hessian sums; leaves take a Newton step G/(H+eps).

    Splits maximize the usual second-order gain G_L^2/H_L + G_R^2/H_R - G^2/H
    and require it positive, so boosting rounds cannot increase the local
    quadratic objective.  The search minimizes the negated gain.
    """

    def node(rows):
        g, h = grad.take(rows).sum(), hess.take(rows).sum()
        return float(g / (h + _EPS)), True, (g, h, g**2 / (h + _EPS))

    def loss(gl, hl, totals):  # negated gain
        total_g, total_h, parent = totals
        return -(gl**2 / (hl + _EPS) + (total_g - gl) ** 2 / (total_h - hl + _EPS) - parent)

    def scores(sorted_rows, cuts, totals):
        gl = grad.take(sorted_rows).cumsum(axis=1)[:, cuts]
        hl = hess.take(sorted_rows).cumsum(axis=1)[:, cuts]
        return loss(gl, hl, totals)

    def cut_scores(left, n_left, rows, totals):
        return loss(_left_sum(left, grad.take(rows)), _left_sum(left, hess.take(rows)), totals)

    return _grow(X, node, scores, cut_scores, -0.0, max_depth, min_leaf, presorted)


def _runs(size, budget=_RUN):
    """Slices of consecutive segments with at most budget elements, or one segment."""
    ends, a = np.cumsum(size), 0
    while a < size.size:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - size[a] + budget, side="right")))
        yield slice(a, b)
        a = b


def _sorted(X, rank, idx, lo, size, j):
    """Elements of segments idx[lo:lo + size], each segment ordered by column j:
    their segment, place in idx and (row, column) index into X; segment offsets."""
    offs = np.cumsum(size) - size
    seg = np.repeat(np.arange(size.size), size)
    at = np.arange(seg.size) + np.repeat(lo - offs, size)
    flat = np.multiply(idx[at], X.shape[1], dtype=np.int64) + j[seg]
    o = np.argsort(seg * X.shape[0] + rank.take(flat))
    return seg, at[o], flat[o], offs


def _pair_splits(X, y, rank, idx, cnt, lo, size, j, n, pos, min_leaf):
    """`_best_split`'s cut for each (node, feature j) pair; the node owns in-bag
    rows idx[lo:lo + size], count sum n, label sum pos.  Result rows: impurity
    (inf: no cut), threshold, then the left side's count sum, label sum, rows."""
    pair, at, flat, offs = _sorted(X, rank, idx, lo, size, j)
    c, xs, rows = cnt[at], X.take(flat), flat // X.shape[1]
    # count and label sums left of each cut: integers, exact in float64
    last = offs[1:] - 1  # each pair's last element; no cut after it
    wl, pl = np.cumsum(c, dtype=float), np.cumsum(c * y.take(rows), dtype=float)
    wl -= np.repeat(np.concatenate([[0], wl[last]]), size)
    pl -= np.repeat(np.concatenate([[0], pl[last]]), size)
    del at, flat, rows, c
    ok = (xs[1:] > xs[:-1]) & (wl[:-1] >= min_leaf) & (wl[:-1] <= (n - min_leaf)[pair[:-1]])
    ok[last] = False
    cut = np.flatnonzero(ok)
    pair, wl, pl = pair[cut], wl[cut], pl[cut]
    imp = _gini(wl, pl, n[pair], pos[pair])
    has = np.bincount(pair, minlength=size.size)  # per pair the lowest impurity, first cut
    out = np.zeros((5, size.size))
    low = np.minimum.reduceat(np.append(imp, np.inf), np.cumsum(has) - has)
    out[0] = np.where(has, low, np.inf)
    hit = np.flatnonzero(imp == out[0, pair])
    hit = hit[np.diff(pair[hit], prepend=-1) != 0]
    won, cut = pair[hit], cut[hit]
    out[1:, won] = _threshold(xs[cut], xs[cut + 1]), wl[hit], pl[hit], cut - offs[won] + 1
    return out


def grow_forest(
    X: np.ndarray, y: np.ndarray, n_trees: int, feature_fraction: float | None,
    max_depth: int | None, min_leaf: int, bootstrap: bool, rng: np.random.Generator,
) -> list[Tree]:
    """Bagged Gini CART trees, all grown together level by level from bootstrap counts.

    Each split searches k = round(feature_fraction * d) features (None:
    1/sqrt(d); at least one).  Draw order: first each tree's bootstrap, in
    tree order, as row counts `bincount(rng.integers(0, m, m))` (all ones
    without bootstrap); then, per level, d uniforms per split-searched node
    in (tree, node) order, whose k smallest pick its features (none if k = d).
    With all features, tree t is `grow_classifier` on X and y with row i
    repeated counts[t, i] times: count and label sums are integers, exact
    in float64, and no cut falls between equal values.
    """
    X, (m, d) = np.ascontiguousarray(X), X.shape  # X.take indexes it row-major
    frac = feature_fraction if feature_fraction is not None else 1 / math.sqrt(d)
    k, limit = max(1, min(d, int(round(frac * d)))), np.inf if max_depth is None else max_depth
    rank = np.empty((m, d), dtype=np.int32)  # rank[i, j]: place of row i in column j
    for j in range(d):
        rank[_stable_argsort(X[:, j])[0], j] = np.arange(m, dtype=np.int32)
    idx, cnt, pos = [], [], []
    for _ in range(n_trees):
        c = np.bincount(rng.integers(0, m, size=m), minlength=m) if bootstrap else np.ones(m, int)
        idx.append(np.flatnonzero(c).astype(np.int32))
        cnt.append(c[idx[-1]].astype(np.int32))
        pos.append(float(c @ y))
    # node: in-bag rows idx[lo:lo + size], their counts in cnt; sums n, pos exact
    size, idx, cnt = np.array([r.size for r in idx]), np.concatenate(idx), np.concatenate(cnt)
    tree, lo, n = np.arange(n_trees), np.cumsum(size) - size, np.full(n_trees, m, float)
    pos = np.array(pos)
    next_id = np.ones(n_trees, dtype=np.int64)  # nodes numbered so far, per tree
    table = [[] for _ in range(7)]  # per level: tree, feature, threshold, left, right, value, n
    depth = 0
    with np.errstate(over="ignore"):  # a midpoint of huge neighbors
        while tree.size:
            feature, left, right = (np.full(tree.size, -1, np.int32) for _ in range(3))
            threshold = np.zeros(tree.size)
            level = (tree, feature, threshold, left, right, pos / n, n.astype(np.int64))
            for col, part in zip(table, level):
                col.append(part)
            # best split per searched node: chunks of at most 4 * _RUN (node, feature,
            # row) elements, or one node, draw features in order and hold per-pair arrays
            go = np.flatnonzero((pos > 0) & (pos < n) & (n >= 2 * min_leaf) & (depth < limit))
            found = np.full((5, go.size), -1.0)  # feature, then as in _pair_splits
            for chunk in _runs(k * size[go], 4 * _RUN):
                s = go[chunk]
                feats = np.broadcast_to(np.arange(d), (s.size, d)) if k == d else \
                    np.sort(rng.random((s.size, d)).argsort(axis=1)[:, :k], axis=1)
                node, j = np.repeat(s, k), feats.ravel()
                pairs = np.empty((5, node.size))
                for run in _runs(size[node]):
                    r = node[run]
                    pairs[:, run] = _pair_splits(
                        X, y, rank, idx, cnt, lo[r], size[r], j[run], n[r], pos[r], min_leaf)
                best, won = np.full(s.size, np.inf), np.full(s.size, -1)
                for col in range(k):  # a later feature wins only by more than _EPS
                    better = pairs[0, col::k] < best - _EPS
                    best[better], won[better] = pairs[0, col::k][better], col
                p, part = np.flatnonzero(won >= 0) * k + won[won >= 0], found[:, chunk]
                part[0, won >= 0], part[1:, won >= 0] = j[p], pairs[1:, p]
            w = found[0] >= 0
            split, (nl, pl), sl = go[w], found[2:4, w], found[4, w].astype(np.int64)
            feature[split], threshold[split] = found[:2, w]
            # children, left then right of each split, in (tree, node) order
            tree = np.repeat(tree[split], 2)
            cid = next_id[tree] + np.arange(tree.size) - np.searchsorted(tree, tree)
            next_id += np.bincount(tree, minlength=n_trees)
            left[split], right[split] = cid[0::2], cid[1::2]
            span, lo = size[split], np.repeat(lo[split], 2)
            lo[1::2] += sl
            size, n, pos = (np.column_stack([a, b - a]).ravel()
                            for a, b in [(sl, span), (nl, n[split]), (pl, pos[split])])
            depth += 1
            for run in _runs(span) if depth < limit else ():
                # sorting a split's rows by its feature puts the left child's first
                at = _sorted(X, rank, idx, lo[0::2][run], span[run], feature[split][run])[1]
                idx[np.sort(at)], cnt[np.sort(at)] = idx[at], cnt[at]
    by_tree = np.argsort(np.concatenate(table.pop(0)), kind="stable")
    for i, col in enumerate(table):  # a column at a time, freeing its levels
        table[i] = np.split(np.concatenate(col)[by_tree], np.cumsum(next_id)[:-1])
    return [Tree(*arrays) for arrays in zip(*table)]
