"""CART-style binary trees: one flat node table per model, grown from presorted columns.

A `Tree` is six arrays indexed by node id: split `feature` and `threshold`,
child ids `left` and `right` (feature and ids -1 at leaves), `value`, row
count `n`; and `roots`, each tree's root id in tree order.  Child ids index
the whole table, so a model's trees are one table that `predict` walks
once.  A depth-first grower appends a tree to its caller's node list and
returns the rows' leaf values; it serves weighted Gini (tree, AdaBoost)
and the Newton gain on gradient/hessian sums (gbt), one kernel scoring
both from two per-row arrays.  `grow_forest` grows a forest's trees
together, level by level: faster on many small trees, half as fast on
one large tree.

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

One search serves every run, in (features, rows) blocks of at most
`_BLOCK` elements: prefix sums along the rows, the criterion at each cut,
the best cut per feature, masking cuts between equal values of tied
features (a tie-free feature's values are read at its best cut only);
two-valued features and partitions go in blocks of the same size.  The
budget stops a wide node (thousands of rows by dozens of columns) from
allocating several full-size float temporaries at once.  In both growers thresholds are midpoints between
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
    """Flat node table of trees rooted at `roots`; `left[i] == -1` marks node i as a leaf.
    Forest trees number nodes in level order, others in preorder; `predict`
    does not depend on the order."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray
    roots: np.ndarray

    @classmethod
    def of(cls, nodes: list, roots) -> Tree:
        """The table of a grower's [feature, threshold, left, right, value, n] records."""
        columns = zip(*nodes) if nodes else [()] * 6
        dtypes = (int, float, int, int, float, int)
        return cls(*map(np.array, columns, dtypes), np.array(roots, dtype=int))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value (class-1 probability or regression output) per (tree, row)."""
        m = X.shape[0]
        node = np.repeat(self.roots, m)  # pair t * m + i: tree t, row i
        active = np.flatnonzero(self.left[node] >= 0)  # pairs not yet at a leaf
        while active.size:
            at = node[active]
            go_left = X[active % m, self.feature[at]] <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
            active = active[self.left[node[active]] >= 0]
        return self.value[node].reshape(self.roots.size, m)


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


def _best_split(X, seg, run, cut, search, totals, min_leaf, found):
    """found, a (score, feature, threshold), or the best split among one run
    of features if it beats found's score by more than _EPS.

    The run is (kind, features, their rows of seg); seg's last row lists
    the node's rows.  A scanned feature's cut i puts sorted positions 0..i
    on the left; only cuts that leave min_leaf rows on each side and fall
    between distinct values count.  On a tie-free feature every cut does,
    so only the winner's neighbors are read.  A two-valued feature j has
    one cut, cut[j], scored in closed form from the node's rows, in row order.
    """
    kind, features, at = run
    scores, cut_scores = search
    best, best_j, best_thr = found
    rows, n = seg[-1], seg.shape[1]
    cuts = slice(min_leaf - 1, n - min_leaf)
    step = max(1, _BLOCK // n)
    for start in range(0, features.size, step):
        block = features[start:start + step]
        if kind == TWO_VALUED:
            left = X[rows, block[:, None]] <= cut[block, None]
            n_left = left.sum(axis=1)
            ok = (n_left >= min_leaf) & (n_left <= n - min_leaf)
            score = np.where(ok, cut_scores(left, n_left, rows, totals), np.inf)
        else:
            sorted_rows = seg[at[start]:at[start] + block.size]  # a run's rows are consecutive
            per_cut = scores(sorted_rows, cuts, totals)
            if kind == SCANNED:
                sc = X[sorted_rows, block[:, None]]
                per_cut[sc[:, min_leaf:n - min_leaf + 1] <= sc[:, cuts]] = np.inf
            first = per_cut.argmin(axis=1)  # the first, lowest-threshold cut of each min
            score = per_cut[np.arange(block.size), first]
        won = -1
        for r, s in enumerate(score.tolist()):
            if s < best - _EPS:
                best, won = s, r
        if won < 0:
            continue
        best_j = int(block[won])
        if kind == TWO_VALUED:
            best_thr = float(cut[best_j])
        else:  # the winning cut's two neighbors
            c = first[won] + cuts.start
            best_thr = float(_threshold(*X[sorted_rows[won, c:c + 2], best_j]))
    return best, best_j, best_thr


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


def _grow(nodes, X, node, search, best0, max_depth, min_leaf, presorted=None):
    """Grow one tree depth-first onto nodes, a list of [feature, threshold,
    left, right, value, n] records whose child ids count the whole list, in
    preorder; return each row's leaf value.  node(rows) gives (value,
    splittable, totals); search is (scores, cut_scores): scores(sorted_rows,
    cuts, totals) a score per cut of scanned columns and cut_scores(left,
    n_left, rows, totals) one per two-valued column (lower is better)."""
    m = X.shape[0]
    limit = np.inf if max_depth is None else max_depth
    runs, cut, order = presort(X) if presorted is None else presorted
    order = order if presorted is None else order.copy()  # the caller's stays as it is
    go_left, leaf = np.zeros(m, dtype=bool), np.empty(m)
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
            found = (best0, -1, 0.0)
            if splittable and hi - lo >= 2 * min_leaf and depth < limit:
                for run in runs:
                    found = _best_split(X, seg, run, cut, search, totals, min_leaf, found)
            _, j, thr = found
            if j < 0:
                leaf[rows] = val
                continue
            rec[:2] = j, thr
            go_left[rows] = goes = X[rows, j] <= thr
            n_left = int(np.count_nonzero(goes))
            # children at the depth limit are leaves and need only their rows
            _partition(seg[-1:] if depth + 1 >= limit else seg, go_left, n_left)
            stack.append((lo + n_left, hi, depth + 1, rec, 3))
            stack.append((lo, lo + n_left, depth + 1, rec, 2))
    return leaf


def _search(a, b, criterion):
    """`_grow`'s search, `scores` and `cut_scores`, from per-row arrays a and b: each
    cut scores criterion(al, bl, totals) on the sums of a and of b over its
    left rows.  a None counts rows, and b then holds 0/1 labels."""

    def scores(sorted_rows, cuts, totals):
        bl = b.take(sorted_rows).cumsum(axis=1)[:, cuts]
        if a is None:
            return criterion(np.arange(1.0, sorted_rows.shape[1])[cuts], bl, totals)
        return criterion(a.take(sorted_rows).cumsum(axis=1)[:, cuts], bl, totals)

    def cut_scores(left, n_left, rows, totals):
        if a is None:
            return criterion(n_left, (left & (b.take(rows) != 0)).sum(axis=1), totals)
        return criterion(_left_sum(left, a.take(rows)), _left_sum(left, b.take(rows)), totals)

    return scores, cut_scores


def grow_classifier(
    nodes: list, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray | None = None,
    max_depth: int | None = 8, min_leaf: int = 2, presorted: Presorted | None = None,
) -> np.ndarray:
    """Weighted-Gini CART on binary labels, appended to nodes (see `_grow`);
    leaves hold P(class 1), and each row's leaf value is returned.

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
        imp = _gini(wl, pl, *totals)
        return imp if w is None else np.where((wl > 0) & (totals[0] - wl > 0), imp, np.inf)

    return _grow(nodes, X, node, _search(w, wy, impurity), np.inf, max_depth, min_leaf, presorted)


def grow_regression(
    nodes: list, X: np.ndarray, grad: np.ndarray, hess: np.ndarray,
    max_depth: int | None = 3, min_leaf: int = 2, presorted: Presorted | None = None,
) -> np.ndarray:
    """Regression tree on gradient/hessian sums, appended to nodes (see
    `_grow`); leaves take a Newton step G/(H+eps), and each row's leaf
    value is returned.

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

    return _grow(nodes, X, node, _search(grad, hess, loss), -0.0, max_depth, min_leaf, presorted)


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
) -> Tree:
    """Bagged Gini CART trees, all grown together level by level from bootstrap counts,
    as one table: roots 0..n_trees-1, then each level's nodes after the level above.

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
    lo, n, pos = np.cumsum(size) - size, np.full(n_trees, m, float), np.array(pos)
    table = []  # per level: feature, threshold, left, right, value, n
    numbered, depth = n_trees, 0  # nodes numbered so far: the levels down to this one
    with np.errstate(over="ignore"):  # a midpoint of huge neighbors
        while size.size:
            feature, left, right = (np.full(size.size, -1, np.int32) for _ in range(3))
            threshold = np.zeros(size.size)
            table.append((feature, threshold, left, right, pos / n, n.astype(np.int64)))
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
            left[split] = numbered + 2 * np.arange(split.size)
            right[split] = left[split] + 1
            numbered += 2 * split.size
            span, lo = size[split], np.repeat(lo[split], 2)
            lo[1::2] += sl
            size, n, pos = (np.column_stack([a, b - a]).ravel()
                            for a, b in [(sl, span), (nl, n[split]), (pl, pos[split])])
            depth += 1
            for run in _runs(span) if depth < limit else ():
                # sorting a split's rows by its feature puts the left child's first
                at = _sorted(X, rank, idx, lo[0::2][run], span[run], feature[split][run])[1]
                place = np.sort(at)
                idx[place], cnt[place] = idx[at], cnt[at]
    return Tree(*map(np.concatenate, zip(*table)), np.arange(n_trees))
